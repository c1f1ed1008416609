#include "server/traffic_sim.h"

#include <algorithm>
#include <memory>
#include <string>

#include "query/query.h"
#include "server/cow_store.h"
#include "server/protocol.h"
#include "server/server_core.h"
#include "util/check.h"
#include "util/random.h"
#include "util/text_io.h"

namespace popan::server {

namespace {

/// Per-client issuing state, all touched only by the serial loop.
struct SimClient {
  uint64_t id = 0;
  Pcg32 rng{0};
  std::vector<geo::Point2> owned;     ///< points this client inserted
  std::vector<uint64_t> subs;         ///< live subscription ids
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

/// Folds the frames `core` queued for every client into their
/// transcripts: notifications into the receiving client's, in delivery
/// (outbox) order, and the one response into the issuer's, in request
/// order. Returns that response's payload.
std::string DrainOutboxes(ServerCore* core, std::vector<SimClient>* clients,
                          const SimClient* issuer) {
  std::string response;
  size_t responses = 0;
  for (SimClient& client : *clients) {
    std::string output = core->TakeOutput(client.id);
    if (output.empty()) continue;
    size_t offset = 0;
    std::string_view payload;
    Status error;
    while (NextFrame(output, &offset, &payload, &error)) {
      POPAN_CHECK(payload.size() >= 2);
      // Reconstruct the full frame bytes for the checksum.
      std::string_view frame(payload.data() - 4, payload.size() + 4);
      ClientTranscript& t = client.transcript;
      if (static_cast<uint8_t>(payload[0]) ==
          static_cast<uint8_t>(MsgType::kNotification)) {
        t.notification_checksum =
            Fnv1a(frame.data(), frame.size(), t.notification_checksum);
        ++t.notifications;
        continue;
      }
      POPAN_CHECK(&client == issuer)
          << "response routed to a client that did not ask";
      t.response_checksum =
          Fnv1a(frame.data(), frame.size(), t.response_checksum);
      if (payload[1] == 0) {
        ++t.responses_ok;
      } else {
        ++t.responses_error;
      }
      response = std::string(payload);
      ++responses;
    }
    POPAN_CHECK(error.ok()) << error.ToString();
    POPAN_CHECK(offset == output.size());
  }
  POPAN_CHECK(responses == 1) << responses << " responses to one request";
  return response;
}

}  // namespace

TrafficResult RunTraffic(const TrafficConfig& config) {
  POPAN_CHECK(config.clients >= 1 && config.steps >= 1);
  POPAN_CHECK(config.k_max >= 1);
  spatial::PrTreeOptions options;
  options.capacity = config.capacity;
  options.max_depth = config.max_depth;
  ServerCore core(std::make_unique<CowTreeBackend>(config.bounds, options));

  RngStreamFamily family(config.seed);
  std::vector<SimClient> clients(config.clients);
  for (size_t c = 0; c < config.clients; ++c) {
    clients[c].id = core.OpenClient();
    clients[c].rng = family.MakeStream(c);
    clients[c].transcript.request_checksum = query::kChecksumSeed;
    clients[c].transcript.response_checksum = query::kChecksumSeed;
    clients[c].transcript.notification_checksum = query::kChecksumSeed;
  }

  for (size_t step = 0; step < config.steps; ++step) {
    for (SimClient& client : clients) {
      Request request = NextRequest(&client, config);
      std::string request_frame = EncodeRequestFrame(request);
      client.transcript.request_checksum =
          Fnv1a(request_frame.data(), request_frame.size(),
                client.transcript.request_checksum);
      ++client.transcript.requests;
      // Every request travels the full wire path and is answered before
      // the next is issued, so notification delivery order is fixed
      // serially.
      Status consumed = core.ConsumeBytes(client.id, request_frame);
      POPAN_CHECK(consumed.ok()) << consumed.ToString();
      std::string response = DrainOutboxes(&core, &clients, &client);
      if (request.type == MsgType::kSubscribe) {
        // Mirror the granted id so later unsubscribes use real ids.
        StatusOr<Response> granted = DecodeResponsePayload(response);
        POPAN_CHECK(granted.ok());
        if (granted.value().status == 0) {
          client.subs.push_back(granted.value().sub_id);
        }
      }
    }
  }

  TrafficResult result;
  result.combined_checksum = query::kChecksumSeed;
  for (const SimClient& client : clients) {
    const ClientTranscript& t = client.transcript;
    result.total_requests += t.requests;
    result.total_notifications += t.notifications;
    uint64_t h = result.combined_checksum;
    h = Fnv1aU64(h, t.request_checksum);
    h = Fnv1aU64(h, t.response_checksum);
    h = Fnv1aU64(h, t.notification_checksum);
    h = Fnv1aU64(h, t.requests);
    h = Fnv1aU64(h, t.responses_ok);
    h = Fnv1aU64(h, t.responses_error);
    h = Fnv1aU64(h, t.notifications);
    result.combined_checksum = h;
    result.transcripts.push_back(t);
  }
  result.final_size = core.size();
  result.final_sequence = core.sequence();
  result.combined_checksum =
      Fnv1aU64(result.combined_checksum, result.final_size);
  result.combined_checksum =
      Fnv1aU64(result.combined_checksum, result.final_sequence);
  return result;
}

}  // namespace popan::server
