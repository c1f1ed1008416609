#include "loadgen.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "stats.h"
#include "util/random.h"
#include "wire.h"

namespace popan::perfbench {

namespace {

using server::MsgType;
using server::Request;
using server::Response;

constexpr size_t kPreloadBatch = 4096;
constexpr size_t kMaxLoggedErrors = 8;
/// How long outstanding requests may take to come back after the window.
constexpr int64_t kDrainNs = 5'000'000'000LL;
/// Recording caps for the traced run's replays.
constexpr size_t kRecordedFramesPerConnection = 100000;
constexpr size_t kRecordedResponses = 20000;
/// range_scan keeps every kOracleEvery-th read per connection, up to
/// kOraclePerConnection, for the oracle comparison.
constexpr uint64_t kOracleEvery = 97;
constexpr size_t kOraclePerConnection = 40;

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t PointKey(char op, const geo::Point2& p) {
  uint64_t h = Mix(static_cast<uint64_t>(op), std::bit_cast<uint64_t>(p.x()));
  return Mix(h, std::bit_cast<uint64_t>(p.y()));
}

bool IsRead(MsgType type) {
  return type == MsgType::kRange || type == MsgType::kNearestK ||
         type == MsgType::kPartialMatch;
}

double CpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// One connection's client state.
struct ConnState {
  size_t index = 0;
  std::unique_ptr<Connection> conn;
  std::unique_ptr<OpStream> ops;
  std::deque<geo::Point2> unacked;  ///< insert points awaiting their ack
  std::map<uint64_t, geo::Box2> subs;
  uint64_t next_index = 0;
  uint64_t last_sequence = 0;
  uint64_t bytes_seen = 0;  ///< received bytes already counted
  bool dead = false;
  // Open loop.
  Pcg32 arrivals{0};
  double gap_mean_ns = 0.0;
  int64_t next_due = 0;
  int64_t idle_since = 0;
  // Oracle sample: reads in flight that were picked, by request number.
  std::deque<std::pair<uint64_t, Request>> sampled;
  uint64_t reads_sent = 0;
  size_t oracle_taken = 0;
};

/// Per-thread results, merged after the threads join.
struct ThreadOut {
  LoadResult result;
  std::vector<std::pair<uint64_t, int64_t>> write_sends;  ///< key, send
  std::vector<std::pair<uint64_t, int64_t>> notices;      ///< key, arrival
};

class LoadThread {
 public:
  LoadThread(const WorkloadSpec& spec, const LoadOptions& options,
             int64_t start, int64_t window_start, int64_t window_end,
             std::atomic<bool>* abort)
      : spec_(spec),
        options_(options),
        start_(start),
        ws_(window_start),
        we_(window_end),
        abort_(abort) {}

  void Add(ConnState* c) { conns_.push_back(c); }
  ThreadOut& out() { return out_; }

  void Run() {
    ::prctl(PR_SET_TIMERSLACK, 1UL);
    const bool open = spec_.loop == Loop::kOpen;
    for (ConnState* c : conns_) {
      c->idle_since = start_;
      if (open) c->next_due = start_ + NextGap(c);
    }
    const int64_t hard_end = we_ + kDrainNs;
    std::vector<pollfd> fds(conns_.size());
    for (;;) {
      int64_t now = NowNs();
      if (abort_->load(std::memory_order_relaxed)) break;
      bool busy = false;
      for (ConnState* c : conns_) {
        if (c->dead) continue;
        if (open) {
          if (c->conn->pending().empty() && c->next_due <= now &&
              c->next_due < we_) {
            int64_t intended = c->next_due;
            c->next_due += NextGap(c);
            if (now >= ws_ && now < we_) {
              out_.result.late_ns.push_back(
                  now - std::max(intended, c->idle_since));
            }
            Send(c, now, intended);
          }
          if (c->next_due < we_ || !c->conn->pending().empty()) busy = true;
        } else {
          while (now < we_ && c->conn->pending().size() < spec_.window) {
            Send(c, now, now);
          }
          if (now < we_ || !c->conn->pending().empty()) busy = true;
        }
        if (c->conn->wants_write() && !c->conn->Flush()) Drop(c, "send failed");
      }
      if (!busy || now >= hard_end) break;

      // Sleep until a response, a due arrival, or the end of the window.
      int64_t wake = hard_end;
      if (now < we_) wake = std::min(wake, we_);
      for (size_t i = 0; i < conns_.size(); ++i) {
        ConnState* c = conns_[i];
        short events = 0;
        if (!c->dead) {
          events = POLLIN;
          if (c->conn->wants_write()) events |= POLLOUT;
          if (open && c->conn->pending().empty() && c->next_due < we_) {
            wake = std::min(wake, c->next_due);
          }
        }
        fds[i] = pollfd{c->dead ? -1 : c->conn->fd(), events, 0};
      }
      int64_t wait = std::max<int64_t>(0, wake - now);
      timespec ts{static_cast<time_t>(wait / 1000000000),
                  static_cast<long>(wait % 1000000000)};
      int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
      if (ready <= 0) continue;
      for (size_t i = 0; i < conns_.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
          Receive(conns_[i]);
        }
      }
    }
    // Whatever is still outstanding was never answered.
    for (ConnState* c : conns_) {
      if (!c->conn->pending().empty()) {
        out_.result.failed += c->conn->pending().size();
        Error("requests left unanswered at the end of the run");
        c->conn->pending().clear();
      }
    }
  }

 private:
  int64_t NextGap(ConnState* c) {
    double u = c->arrivals.NextDouble();
    return static_cast<int64_t>(-std::log1p(-u) * c->gap_mean_ns);
  }

  void Error(const std::string& what) {
    if (out_.result.errors.size() < kMaxLoggedErrors) {
      out_.result.errors.push_back(what);
    }
  }

  void Violation(const std::string& what) {
    if (out_.result.violations.size() < kMaxLoggedErrors) {
      out_.result.violations.push_back(what);
    }
  }

  void Drop(ConnState* c, const std::string& why) {
    if (c->dead) return;
    c->dead = true;
    out_.result.failed += c->conn->pending().size();
    c->conn->pending().clear();
    Error("connection " + std::to_string(c->index) + " lost: " + why);
    // A server crash ends the run for every connection.
    abort_->store(true);
  }

  void Send(ConnState* c, int64_t now, int64_t intended) {
    Request request = c->ops->Next(&c->unacked);
    std::string frame = server::EncodeRequestFrame(request);
    Pending pending;
    pending.type = request.type;
    pending.intended_ns = intended;
    pending.sent_ns = now;
    pending.in_window = now >= ws_ && now < we_;
    pending.index = c->next_index++;
    if (request.type == MsgType::kInsert) pending.insert_points = 1;
    if (request.type == MsgType::kInsertBatch) {
      pending.insert_points = static_cast<uint32_t>(request.batch.size());
    }
    ++out_.result.attempted;
    LoadResult& r = out_.result;
    if (options_.record) {
      if (r.frames[c->index].size() < kRecordedFramesPerConnection) {
        r.frames[c->index].push_back(frame);
      }
      if (pending.in_window && IsRead(request.type)) {
        r.read_ids.emplace_back(ReadKey(request),
                                RequestId(c->index, pending.index));
      }
    }
    if (IsRead(request.type) && spec_.name == "range_scan") {
      if (c->reads_sent++ % kOracleEvery == 0 &&
          c->oracle_taken < kOraclePerConnection) {
        c->sampled.emplace_back(pending.index, request);
        ++c->oracle_taken;
      }
    }
    if (spec_.subscriptions_per_connection > 0 &&
        (request.type == MsgType::kInsert || request.type == MsgType::kErase)) {
      char op = request.type == MsgType::kInsert ? 'I' : 'E';
      out_.write_sends.emplace_back(PointKey(op, request.point), now);
    }
    c->conn->Queue(frame, pending);
  }

  void Receive(ConnState* c) {
    if (c->dead) return;
    bool alive = c->conn->ReadAvailable();
    int64_t now = NowNs();
    std::string_view payload;
    Status frame_error;
    while (c->conn->NextPayload(&payload, &frame_error)) {
      switch (Classify(payload, c->conn->pending())) {
        case FrameKind::kNotification:
          OnNotification(c, payload, now);
          break;
        case FrameKind::kResponse: {
          Pending pending = c->conn->pending().front();
          c->conn->pending().pop_front();
          OnResponse(c, pending, payload, now);
          break;
        }
        case FrameKind::kUnexpected:
          Violation("connection " + std::to_string(c->index) +
                    ": response out of request order");
          Drop(c, "protocol violation");
          return;
      }
    }
    if (!frame_error.ok()) {
      Violation("poisoned frame stream: " + frame_error.ToString());
      Drop(c, "poisoned frame stream");
      return;
    }
    if (now >= ws_ && now < we_) {
      // Count bytes as they arrive; the window edges split at most one
      // read per connection.
      uint64_t total = c->conn->bytes_in();
      out_.result.bytes_in_window += total - c->bytes_seen;
    }
    c->bytes_seen = c->conn->bytes_in();
    if (!alive) Drop(c, "server closed the connection");
  }

  void OnNotification(ConnState* c, std::string_view payload, int64_t now) {
    StatusOr<server::Notification> decoded =
        server::DecodeNotificationPayload(payload);
    if (!decoded.ok()) {
      Violation("undecodable notification");
      return;
    }
    const server::Notification& n = decoded.value();
    auto sub = c->subs.find(n.sub_id);
    if (sub == c->subs.end()) {
      Violation("notification for a subscription this connection lacks");
      return;
    }
    if (!sub->second.Contains(n.point)) {
      Violation("notification point outside its subscription box");
      return;
    }
    out_.notices.emplace_back(PointKey(n.op, n.point), now);
    if (now >= ws_ && now < we_) ++out_.result.notifications_in_window;
  }

  void OnResponse(ConnState* c, const Pending& pending,
                  std::string_view payload, int64_t now) {
    LoadResult& r = out_.result;
    StatusOr<Response> decoded = server::DecodeResponsePayload(payload);
    bool ok = decoded.ok() && decoded.value().status == 0;
    if (!decoded.ok()) {
      Violation("undecodable response");
    } else if (!ok) {
      Error(decoded.value().message);
    }
    const Response* response = decoded.ok() ? &decoded.value() : nullptr;
    if (ok && pending.type == MsgType::kInsertBatch &&
        (response->inserted != pending.insert_points ||
         response->duplicates != 0 || response->rejected != 0)) {
      Error("batch insert not fully applied");
      ok = false;
    }
    for (uint32_t i = 0; i < pending.insert_points; ++i) {
      if (ok) c->ops->Acked(c->unacked.front());
      c->unacked.pop_front();
    }
    bool write = pending.type == MsgType::kInsert ||
                 pending.type == MsgType::kErase ||
                 pending.type == MsgType::kInsertBatch;
    if (ok && write) {
      if (response->sequence <= c->last_sequence) {
        Violation("write sequence did not rise on connection " +
                  std::to_string(c->index));
      }
      c->last_sequence = response->sequence;
      uint64_t points = pending.type == MsgType::kErase
                            ? 1
                            : uint64_t{pending.insert_points};
      if (pending.type == MsgType::kErase) {
        r.erased_points += 1;
      } else {
        r.inserted_points += points;
      }
      if (now >= ws_ && now < we_) r.point_writes_in_window += points;
      if (options_.record && pending.in_window) {
        // A batch's response carries its last sequence; join that one.
        r.write_ids.emplace_back(response->sequence,
                                 RequestId(c->index, pending.index));
      }
    }
    if (!ok) ++r.failed;
    if (IsRead(pending.type) && !c->sampled.empty() &&
        c->sampled.front().first == pending.index) {
      if (ok) r.oracle.push_back({c->sampled.front().second, *response});
      c->sampled.pop_front();
    }
    if (ok && now >= ws_ && now < we_) {
      ++r.ok_in_window;
      r.latency_ns.push_back(now - pending.intended_ns);
      r.latency_slice.push_back(
          static_cast<uint32_t>((now - ws_) / kSliceNs));
      r.send_latency_ns.push_back(now - pending.sent_ns);
      if (IsRead(pending.type)) {
        ++r.reads;
        r.nodes += static_cast<double>(response->cost.nodes_visited);
        r.results += static_cast<double>(response->points.size());
        r.scanned += static_cast<double>(response->cost.points_scanned);
        if (pending.type != MsgType::kNearestK) {
          r.model_nodes += static_cast<double>(response->cost.nodes_visited);
          r.predicted_nodes += response->predicted_nodes;
        }
      }
      if (options_.record &&
          r.responses.size() < kRecordedResponses / kMaxLoadThreads) {
        r.responses.push_back(*response);
      }
    }
    c->idle_since = now;
  }

  const WorkloadSpec& spec_;
  const LoadOptions& options_;
  int64_t start_;
  int64_t ws_;
  int64_t we_;
  std::atomic<bool>* abort_;
  std::vector<ConnState*> conns_;
  ThreadOut out_;
};

void Merge(LoadResult* into, LoadResult&& from) {
  auto append = [](auto* a, auto&& b) {
    a->insert(a->end(), std::make_move_iterator(b.begin()),
              std::make_move_iterator(b.end()));
  };
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->ok_in_window += from.ok_in_window;
  append(&into->latency_ns, from.latency_ns);
  append(&into->latency_slice, from.latency_slice);
  append(&into->send_latency_ns, from.send_latency_ns);
  append(&into->late_ns, from.late_ns);
  into->bytes_in_window += from.bytes_in_window;
  into->point_writes_in_window += from.point_writes_in_window;
  into->notifications_in_window += from.notifications_in_window;
  into->reads += from.reads;
  into->nodes += from.nodes;
  into->results += from.results;
  into->scanned += from.scanned;
  into->model_nodes += from.model_nodes;
  into->predicted_nodes += from.predicted_nodes;
  into->inserted_points += from.inserted_points;
  into->erased_points += from.erased_points;
  append(&into->violations, from.violations);
  append(&into->errors, from.errors);
  append(&into->oracle, from.oracle);
  append(&into->responses, from.responses);
  append(&into->write_ids, from.write_ids);
  append(&into->read_ids, from.read_ids);
  for (size_t i = 0; i < from.frames.size(); ++i) {
    append(&into->frames[i], from.frames[i]);
  }
}

}  // namespace

uint64_t ReadKey(const Request& request) {
  uint64_t h = Mix(0, static_cast<uint64_t>(request.type));
  switch (request.type) {
    case MsgType::kRange:
      h = Mix(h, std::bit_cast<uint64_t>(request.box.lo().x()));
      h = Mix(h, std::bit_cast<uint64_t>(request.box.lo().y()));
      h = Mix(h, std::bit_cast<uint64_t>(request.box.hi().x()));
      return Mix(h, std::bit_cast<uint64_t>(request.box.hi().y()));
    case MsgType::kNearestK:
      h = Mix(h, std::bit_cast<uint64_t>(request.point.x()));
      h = Mix(h, std::bit_cast<uint64_t>(request.point.y()));
      return Mix(h, request.k);
    case MsgType::kPartialMatch:
      h = Mix(h, request.axis);
      return Mix(h, std::bit_cast<uint64_t>(request.value));
    default:
      return h;
  }
}

std::vector<std::deque<geo::Point2>> DealPreload(
    const std::vector<geo::Point2>& points, size_t connections) {
  std::vector<std::deque<geo::Point2>> owned(connections);
  for (size_t i = 0; i < points.size(); ++i) {
    owned[i % connections].push_back(points[i]);
  }
  return owned;
}

bool Preload(uint16_t port, const std::vector<geo::Point2>& points,
             int64_t deadline_ns, std::string* error) {
  StatusOr<int> fd = Connection::ConnectLoopback(port);
  if (!fd.ok()) {
    *error = fd.status().ToString();
    return false;
  }
  Connection conn(fd.value());
  std::vector<std::string> frames;
  for (size_t i = 0; i < points.size(); i += kPreloadBatch) {
    Request request;
    request.type = MsgType::kInsertBatch;
    size_t end = std::min(points.size(), i + kPreloadBatch);
    request.batch.assign(points.begin() + static_cast<ptrdiff_t>(i),
                         points.begin() + static_cast<ptrdiff_t>(end));
    frames.push_back(server::EncodeRequestFrame(request));
  }
  StatusOr<std::vector<Response>> responses =
      Exchange(&conn, frames, 4, deadline_ns);
  if (!responses.ok()) {
    *error = "preload: " + responses.status().ToString();
    return false;
  }
  uint64_t inserted = 0;
  for (const Response& r : responses.value()) inserted += r.inserted;
  if (inserted != points.size()) {
    *error = "preload inserted " + std::to_string(inserted) + " of " +
             std::to_string(points.size()) + " points";
    return false;
  }
  return true;
}

LoadResult RunLoad(const WorkloadSpec& spec, uint64_t seed, uint16_t port,
                   size_t preload, std::vector<std::deque<geo::Point2>> owned,
                   const LoadOptions& options) {
  LoadResult result;
  result.frames.resize(spec.connections);
  const int64_t setup_deadline = NowNs() + 30'000'000'000LL;

  std::vector<ConnState> conns(spec.connections);
  for (size_t i = 0; i < spec.connections; ++i) {
    ConnState& c = conns[i];
    c.index = i;
    StatusOr<int> fd = Connection::ConnectLoopback(port);
    if (!fd.ok()) {
      result.violations.push_back("connect failed: " + fd.status().ToString());
      return result;
    }
    c.conn = std::make_unique<Connection>(fd.value());
    c.ops = std::make_unique<OpStream>(spec, seed, i, std::move(owned[i]));
    c.arrivals = Pcg32(seed * 1000003ULL + 200 + i);
    if (spec.loop == Loop::kOpen) {
      c.gap_mean_ns = 1e9 * static_cast<double>(spec.connections) / spec.rate_rps;
    }
    std::vector<geo::Box2> boxes = SubscriptionBoxes(spec, seed, i);
    std::vector<std::string> frames;
    for (const geo::Box2& box : boxes) {
      Request request;
      request.type = MsgType::kSubscribe;
      request.box = box;
      frames.push_back(server::EncodeRequestFrame(request));
      if (options.record) result.frames[i].push_back(frames.back());
    }
    StatusOr<std::vector<Response>> subscribed =
        Exchange(c.conn.get(), frames, frames.size() + 1, setup_deadline);
    if (!subscribed.ok()) {
      result.violations.push_back("subscribe failed: " +
                                  subscribed.status().ToString());
      return result;
    }
    for (size_t j = 0; j < boxes.size(); ++j) {
      c.subs.emplace(subscribed.value()[j].sub_id, boxes[j]);
    }
    result.boxes.push_back(boxes);
  }

  const size_t threads = std::min(kMaxLoadThreads, spec.connections);
  std::atomic<bool> abort{false};
  const int64_t start = NowNs();
  const int64_t ws = start + static_cast<int64_t>(options.warmup_s * 1e9);
  const int64_t we = ws + static_cast<int64_t>(options.seconds * 1e9);
  if (options.on_window) options.on_window(ws, we);
  std::vector<std::unique_ptr<LoadThread>> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.push_back(
        std::make_unique<LoadThread>(spec, options, start, ws, we, &abort));
    workers.back()->out().result.frames.resize(spec.connections);
  }
  for (size_t i = 0; i < spec.connections; ++i) {
    workers[i % threads]->Add(&conns[i]);
  }
  double cpu_before = CpuSeconds();
  std::thread pauser;
  if (options.pause_pid > 0) {
    pauser = std::thread([&options, start] {
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
              start + static_cast<int64_t>(options.pause_at_s * 1e9))));
      ::kill(options.pause_pid, SIGSTOP);
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<int64_t>(options.pause_ms * 1000)));
      ::kill(options.pause_pid, SIGCONT);
    });
  }
  {
    std::vector<std::thread> running;
    for (size_t t = 1; t < threads; ++t) {
      running.emplace_back([&workers, t] { workers[t]->Run(); });
    }
    workers[0]->Run();
    for (std::thread& th : running) th.join();
  }
  if (pauser.joinable()) pauser.join();
  result.loadgen_cpu_s = CpuSeconds() - cpu_before;
  result.window_s = static_cast<double>(we - ws) * 1e-9;

  std::vector<std::pair<uint64_t, int64_t>> write_sends;
  std::vector<std::pair<uint64_t, int64_t>> notices;
  for (auto& worker : workers) {
    ThreadOut& out = worker->out();
    Merge(&result, std::move(out.result));
    write_sends.insert(write_sends.end(), out.write_sends.begin(),
                       out.write_sends.end());
    notices.insert(notices.end(), out.notices.begin(), out.notices.end());
  }

  // Every notification must name a write some connection sent.
  if (!notices.empty()) {
    std::unordered_map<uint64_t, int64_t> sent(write_sends.begin(),
                                               write_sends.end());
    const int64_t ws_ns = ws;
    for (const auto& [key, arrival] : notices) {
      auto it = sent.find(key);
      if (it == sent.end()) {
        result.violations.push_back("notification names a point no "
                                    "connection wrote");
        break;
      }
      if (arrival >= ws_ns && arrival < we) {
        result.delivery_ns.push_back(arrival - it->second);
      }
    }
  }

  // The final census must account for every acknowledged write.
  if (!abort.load() && !conns.empty() && !conns[0].dead) {
    Request census;
    census.type = MsgType::kCensus;
    StatusOr<std::vector<Response>> answer =
        Exchange(conns[0].conn.get(), {server::EncodeRequestFrame(census)}, 1,
                 NowNs() + 10'000'000'000LL);
    if (!answer.ok()) {
      result.violations.push_back("census failed: " +
                                  answer.status().ToString());
    } else {
      result.final_size = answer.value()[0].size;
      uint64_t expected = preload + result.inserted_points - result.erased_points;
      if (result.final_size != expected) {
        result.violations.push_back(
            "census size " + std::to_string(result.final_size) +
            " != preload + inserted - erased = " + std::to_string(expected));
      }
    }
  }
  return result;
}

}  // namespace popan::perfbench
