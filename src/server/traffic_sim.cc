#include "server/traffic_sim.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "query/query.h"
#include "server/protocol.h"
#include "server/server_core.h"
#include "util/check.h"
#include "util/mutex.h"
#include "util/random.h"
#include "util/thread_annotations.h"

namespace popan::server {

namespace {

/// Outstanding pinned reads are capped well below the 64 epoch reader
/// slots. Without the cap, a slow worker pool would let pins pile up
/// until TrySnapshot starts returning ResourceExhausted — and whether
/// that happens would depend on thread scheduling, poisoning the
/// determinism contract. With it, slot exhaustion is impossible in the
/// simulator at any thread count.
constexpr size_t kMaxOutstandingReads = 32;

/// One deferred read: prepared serially, completed by any worker. The
/// worker releases the snapshot pin (prepared.reset()) before raising
/// `done`, so "done" implies "epoch slot free". `frame` and `done` are
/// guarded by the owning ReadPool's mu_ (GUARDED_BY cannot name another
/// object's capability, so the contract is enforced at the pool's
/// annotated access sites instead).
struct ReadSlot {
  std::optional<PreparedRead> prepared;
  std::string frame;
  bool done = false;
};

/// FIFO job queue feeding the worker pool, plus the completion signal the
/// issuing thread waits on. All waits are RAII-locked and predicate-based.
class ReadPool {
 public:
  explicit ReadPool(size_t threads) {
    for (size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ReadPool() { Drain(); }

  /// Hands a slot to the pool (or completes it inline with no workers).
  void Submit(ReadSlot* slot) EXCLUDES(mu_) {
    if (workers_.empty()) {
      Complete(slot);
      return;
    }
    popan::MutexLock lock(mu_);
    jobs_.push_back(slot);
    jobs_cv_.NotifyOne();
  }

  /// Blocks until `slot` is completed and its pin released.
  void WaitFor(ReadSlot* slot) EXCLUDES(mu_) {
    popan::MutexLock lock(mu_);
    while (!slot->done) done_cv_.Wait(lock);
  }

  /// Stops the workers after the queue empties and joins them.
  void Drain() EXCLUDES(mu_) {
    {
      popan::MutexLock lock(mu_);
      stopping_ = true;
      jobs_cv_.NotifyAll();
    }
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
    workers_.clear();
  }

 private:
  void WorkerLoop() EXCLUDES(mu_) {
    for (;;) {
      ReadSlot* slot = nullptr;
      {
        popan::MutexLock lock(mu_);
        while (!stopping_ && jobs_.empty()) jobs_cv_.Wait(lock);
        if (jobs_.empty()) return;  // stopping and drained
        slot = jobs_.front();
        jobs_.pop_front();
      }
      Complete(slot);
    }
  }

  void Complete(ReadSlot* slot) EXCLUDES(mu_) {
    Response response = ServerCore::CompleteRead(*slot->prepared);
    std::string frame = EncodeResponseFrame(response);
    popan::MutexLock lock(mu_);
    slot->frame = std::move(frame);
    slot->prepared.reset();  // release the epoch pin before signaling
    slot->done = true;
    done_cv_.NotifyAll();
  }

  popan::Mutex mu_;
  popan::CondVar jobs_cv_;
  popan::CondVar done_cv_;
  std::deque<ReadSlot*> jobs_ GUARDED_BY(mu_);
  bool stopping_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  // spawned in ctor, joined in Drain
};

/// Per-client issuing state, all touched only by the serial loop.
struct SimClient {
  uint64_t id = 0;
  Pcg32 rng{0};
  std::vector<geo::Point2> owned;     ///< points this client inserted
  std::vector<uint64_t> subs;         ///< live subscription ids
  /// Response frames in request order: inline strings for serially
  /// handled requests, slot references for deferred reads.
  struct Entry {
    std::string frame;
    ReadSlot* slot = nullptr;
  };
  std::vector<Entry> entries;
  ClientTranscript transcript;
};

geo::Point2 RandomPoint(Pcg32* rng, const geo::Box2& bounds) {
  return geo::Point2(rng->NextDouble(bounds.lo().x(), bounds.hi().x()),
                     rng->NextDouble(bounds.lo().y(), bounds.hi().y()));
}

geo::Box2 RandomBox(Pcg32* rng, const geo::Box2& bounds, double max_frac) {
  double qx = rng->NextDouble() * max_frac * bounds.Extent(0);
  double qy = rng->NextDouble() * max_frac * bounds.Extent(1);
  geo::Point2 lo = RandomPoint(rng, bounds);
  return geo::Box2(lo,
                   geo::Point2(std::min(lo.x() + qx, bounds.hi().x()),
                               std::min(lo.y() + qy, bounds.hi().y())));
}

/// Builds the next request for `client` from its private RNG stream.
Request NextRequest(SimClient* client, const TrafficConfig& config) {
  Pcg32* rng = &client->rng;
  Request request;
  uint32_t roll = rng->Next32() % 100;
  if (roll < 46 && roll >= 34 && client->owned.empty()) {
    roll = 0;  // nothing to erase yet: insert instead
  }
  if (roll < 34) {
    request.type = MsgType::kInsert;
    request.point = RandomPoint(rng, config.bounds);
    client->owned.push_back(request.point);
  } else if (roll < 46) {
    request.type = MsgType::kErase;
    size_t idx = rng->Next32() % client->owned.size();
    request.point = client->owned[idx];
    client->owned.erase(client->owned.begin() +
                        static_cast<ptrdiff_t>(idx));
  } else if (roll < 52) {
    request.type = MsgType::kInsertBatch;
    size_t n = 2 + rng->Next32() % 6;
    for (size_t i = 0; i < n; ++i) {
      request.batch.push_back(RandomPoint(rng, config.bounds));
      client->owned.push_back(request.batch.back());
    }
  } else if (roll < 64) {
    request.type = MsgType::kRange;
    request.box = RandomBox(rng, config.bounds, 0.25);
  } else if (roll < 74) {
    request.type = MsgType::kNearestK;
    request.point = RandomPoint(rng, config.bounds);
    request.k = 1 + rng->Next32() % static_cast<uint32_t>(config.k_max);
  } else if (roll < 80) {
    request.type = MsgType::kPartialMatch;
    request.axis = static_cast<uint8_t>(rng->Next32() & 1);
    request.value = rng->NextDouble(config.bounds.lo()[request.axis],
                                    config.bounds.hi()[request.axis]);
  } else if (roll < 86) {
    request.type = MsgType::kCensus;
  } else if (roll < 92) {
    if (client->subs.size() < config.max_subs_per_client) {
      request.type = MsgType::kSubscribe;
      request.box = RandomBox(rng, config.bounds, 0.2);
    } else {
      request.type = MsgType::kRange;
      request.box = RandomBox(rng, config.bounds, 0.25);
    }
  } else if (roll < 97 && !client->subs.empty()) {
    request.type = MsgType::kUnsubscribe;
    size_t idx = rng->Next32() % client->subs.size();
    request.sub_id = client->subs[idx];
    client->subs.erase(client->subs.begin() + static_cast<ptrdiff_t>(idx));
  } else {
    request.type = MsgType::kPing;
  }
  return request;
}

/// Splits the frames `core` queued for every client into response frames
/// (owed to the issuing client's entry list) and notification frames
/// (folded into the receiving client's transcript immediately — delivery
/// order IS outbox order).
void DrainOutboxes(ServerCore* core, std::vector<SimClient>* clients,
                   SimClient* issuer) {
  for (SimClient& client : *clients) {
    std::string output = core->TakeOutput(client.id);
    if (output.empty()) continue;
    size_t offset = 0;
    std::string_view payload;
    Status error;
    while (NextFrame(output, &offset, &payload, &error)) {
      POPAN_CHECK(!payload.empty());
      bool is_notification =
          static_cast<uint8_t>(payload[0]) ==
          static_cast<uint8_t>(MsgType::kNotification);
      // Reconstruct the full frame bytes for the checksum.
      std::string_view frame(payload.data() - 4, payload.size() + 4);
      if (is_notification) {
        client.transcript.notification_checksum =
            FoldBytes(client.transcript.notification_checksum, frame);
        ++client.transcript.notifications;
      } else {
        POPAN_CHECK(&client == issuer)
            << "response routed to a client that did not ask";
        issuer->entries.push_back(
            SimClient::Entry{std::string(frame), nullptr});
      }
    }
    POPAN_CHECK(error.ok()) << error.ToString();
    POPAN_CHECK(offset == output.size());
  }
}

}  // namespace

uint64_t FoldBytes(uint64_t h, std::string_view bytes) {
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t FoldU64(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TrafficResult RunTraffic(const TrafficConfig& config) {
  POPAN_CHECK(config.clients >= 1 && config.steps >= 1);
  POPAN_CHECK(config.k_max >= 1);
  spatial::PrTreeOptions options;
  options.capacity = config.capacity;
  options.max_depth = config.max_depth;
  ServerCore core(config.bounds, options);

  RngStreamFamily family(config.seed);
  std::vector<SimClient> clients(config.clients);
  for (size_t c = 0; c < config.clients; ++c) {
    clients[c].id = core.OpenClient();
    clients[c].rng = family.MakeStream(c);
    clients[c].transcript.request_checksum = query::kChecksumSeed;
    clients[c].transcript.response_checksum = query::kChecksumSeed;
    clients[c].transcript.notification_checksum = query::kChecksumSeed;
  }

  std::deque<ReadSlot> slots;  // deque: stable addresses for the pool
  size_t oldest_pending = 0;   // first slot not yet known-done
  ReadPool pool(config.reader_threads);

  for (size_t step = 0; step < config.steps; ++step) {
    for (SimClient& client : clients) {
      Request request = NextRequest(&client, config);
      std::string request_frame = EncodeRequestFrame(request);
      client.transcript.request_checksum =
          FoldBytes(client.transcript.request_checksum, request_frame);
      ++client.transcript.requests;

      if (IsReadKind(request.type)) {
        // Bound the live epoch pins before taking another one.
        while (slots.size() - oldest_pending >= kMaxOutstandingReads) {
          pool.WaitFor(&slots[oldest_pending]);
          ++oldest_pending;
        }
        StatusOr<PreparedRead> prepared = core.PrepareRead(request);
        POPAN_CHECK(prepared.ok()) << prepared.status().ToString();
        slots.emplace_back();
        ReadSlot* slot = &slots.back();
        slot->prepared.emplace(std::move(prepared).value());
        client.entries.push_back(SimClient::Entry{std::string(), slot});
        pool.Submit(slot);
      } else {
        // Writes and control requests travel the full wire path: encode,
        // frame, decode, handle — then the outboxes are drained so
        // notification delivery order is fixed serially.
        Status consumed = core.ConsumeBytes(client.id, request_frame);
        POPAN_CHECK(consumed.ok()) << consumed.ToString();
        DrainOutboxes(&core, &clients, &client);
        if (request.type == MsgType::kSubscribe) {
          // Mirror the granted id from the drained response so later
          // unsubscribes use real ids.
          const std::string& frame = client.entries.back().frame;
          StatusOr<Response> response =
              DecodeResponsePayload(std::string_view(frame).substr(4));
          POPAN_CHECK(response.ok());
          if (response.value().status == 0) {
            client.subs.push_back(response.value().sub_id);
          }
        }
      }
    }
  }
  pool.Drain();

  TrafficResult result;
  result.combined_checksum = query::kChecksumSeed;
  for (SimClient& client : clients) {
    for (const SimClient::Entry& entry : client.entries) {
      const std::string& frame =
          entry.slot != nullptr ? entry.slot->frame : entry.frame;
      POPAN_CHECK(frame.size() >= 6);
      client.transcript.response_checksum =
          FoldBytes(client.transcript.response_checksum, frame);
      if (static_cast<uint8_t>(frame[5]) == 0) {
        ++client.transcript.responses_ok;
      } else {
        ++client.transcript.responses_error;
      }
    }
    ClientTranscript& t = client.transcript;
    result.total_requests += t.requests;
    result.total_notifications += t.notifications;
    uint64_t h = result.combined_checksum;
    h = FoldU64(h, t.request_checksum);
    h = FoldU64(h, t.response_checksum);
    h = FoldU64(h, t.notification_checksum);
    h = FoldU64(h, t.requests);
    h = FoldU64(h, t.responses_ok);
    h = FoldU64(h, t.responses_error);
    h = FoldU64(h, t.notifications);
    result.combined_checksum = h;
    result.transcripts.push_back(t);
  }
  result.final_size = core.size();
  result.final_sequence = core.sequence();
  result.combined_checksum = FoldU64(result.combined_checksum,
                                     result.final_size);
  result.combined_checksum = FoldU64(result.combined_checksum,
                                     result.final_sequence);
  return result;
}

}  // namespace popan::server
