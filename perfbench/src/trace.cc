#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "loadgen.h"
#include "server/cow_store.h"
#include "server/shard_store.h"
#include "server/subscriptions.h"
#include "shard/key_range.h"
#include "spatial/wal.h"
#include "stats.h"

namespace popan::perfbench {

namespace {

using server::MsgType;
using server::Request;
using server::Response;

constexpr double kMinReplaySeconds = 0.2;
constexpr int kMaxReplayPasses = 20;

geo::Box2 Domain() { return geo::Box2::UnitCube(1.0); }

/// The tree options popan_server uses by default.
spatial::PrTreeOptions ServerTreeOptions() {
  spatial::PrTreeOptions options;
  options.capacity = 4;
  options.max_depth = 16;
  return options;
}

SpanKind ReadKind(MsgType type) {
  switch (type) {
    case MsgType::kRange:
      return SpanKind::kRange;
    case MsgType::kNearestK:
      return SpanKind::kNearestK;
    case MsgType::kPartialMatch:
      return SpanKind::kPartialMatch;
    default:
      return SpanKind::kCensus;
  }
}

/// The point writes in the recorded request frames, in stream order.
std::vector<std::pair<char, geo::Point2>> PointWrites(
    const std::vector<std::vector<std::string>>& frames) {
  std::vector<std::pair<char, geo::Point2>> writes;
  for (const std::vector<std::string>& stream : frames) {
    for (const std::string& frame : stream) {
      StatusOr<Request> request =
          server::DecodeRequestPayload(std::string_view(frame).substr(4));
      if (!request.ok()) continue;
      const Request& r = request.value();
      if (r.type == MsgType::kInsert) writes.emplace_back('I', r.point);
      if (r.type == MsgType::kErase) writes.emplace_back('E', r.point);
      if (r.type == MsgType::kInsertBatch) {
        for (const geo::Point2& p : r.batch) writes.emplace_back('I', p);
      }
    }
  }
  return writes;
}

/// Repeats `pass` (which handles `per_pass` items) until it has run for
/// kMinReplaySeconds; returns mean ns per item.
template <typename Pass>
double TimePasses(size_t per_pass, Pass pass) {
  if (per_pass == 0) return 0.0;
  int64_t start = NowNs();
  uint64_t items = 0;
  for (int i = 0; i < kMaxReplayPasses; ++i) {
    pass();
    items += per_pass;
    if (static_cast<double>(NowNs() - start) * 1e-9 >= kMinReplaySeconds) {
      break;
    }
  }
  return static_cast<double>(NowNs() - start) / static_cast<double>(items);
}

/// Keeps replayed results observable so the work is not folded away.
volatile uint64_t g_sink = 0;

/// The traced read view: times Complete and reports to the backend.
class TimedView final : public server::ReadView {
 public:
  TimedView(std::unique_ptr<const server::ReadView> inner,
            const TimedBackend* owner)
      : inner_(std::move(inner)), owner_(owner) {}

  Response Complete(const Request& request) const override {
    int64_t start = NowNs();
    Response response = inner_->Complete(request);
    owner_->NoteRead(request, start);
    return response;
  }
  uint64_t sequence() const override { return inner_->sequence(); }

 private:
  std::unique_ptr<const server::ReadView> inner_;
  const TimedBackend* owner_;
};

}  // namespace

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kApplyInsert:
      return "store.apply_insert";
    case SpanKind::kApplyErase:
      return "store.apply_erase";
    case SpanKind::kPrepareRead:
      return "store.prepare_read";
    case SpanKind::kRange:
      return "store.range";
    case SpanKind::kNearestK:
      return "store.knn";
    case SpanKind::kPartialMatch:
      return "store.partial";
    case SpanKind::kCensus:
      return "store.census";
    case SpanKind::kConsume:
      return "server_core.consume";
    case SpanKind::kCount:
      break;
  }
  return "unknown";
}

int64_t Tracer::Record(SpanKind kind, int64_t start_ns, int64_t end_ns,
                       uint64_t key) {
  durations(kind).push_back(end_ns - start_ns);
  if (open_) child_ns_ += end_ns - start_ns;
  if (spans_.size() >= kMaxLoggedSpans) return -1;
  spans_.push_back(Span{kind, start_ns, end_ns, parent_, key, 0});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::Begin(SpanKind kind, int64_t start_ns, uint64_t key) {
  open_ = true;
  open_kind_ = kind;
  open_start_ = start_ns;
  child_ns_ = 0;
  parent_ = -1;
  if (spans_.size() < kMaxLoggedSpans) {
    spans_.push_back(Span{kind, start_ns, start_ns, -1, key, 0});
    parent_ = static_cast<int64_t>(spans_.size()) - 1;
  }
}

int64_t Tracer::End(int64_t end_ns) {
  durations(open_kind_).push_back(end_ns - open_start_);
  if (parent_ >= 0) spans_[static_cast<size_t>(parent_)].end_ns = end_ns;
  open_ = false;
  parent_ = -1;
  return child_ns_;
}

TimedBackend::TimedBackend(std::unique_ptr<server::StoreBackend> inner,
                           Tracer* tracer,
                           const spatial::EpochManager* epochs,
                           const shard::ShardRouter* router)
    : inner_(std::move(inner)),
      tracer_(tracer),
      epochs_(epochs),
      router_(router) {}

void TimedBackend::WindowOp() const {
  if (window_open_) return;
  window_open_ = true;
  if (epochs_ != nullptr) {
    retired_base_ = epochs_->objects_retired();
    versions_base_ = epochs_->epochs_advanced();
  }
  if (router_ != nullptr) {
    splits_base_ = router_->splits();
    merges_base_ = router_->merges();
  }
}

StatusOr<uint64_t> TimedBackend::Apply(bool insert, const geo::Point2& p) {
  int64_t start = NowNs();
  bool in_window = tracer_->InWindow(start);
  if (in_window) WindowOp();
  StatusOr<uint64_t> applied =
      insert ? inner_->ApplyInsert(p) : inner_->ApplyErase(p);
  int64_t end = NowNs();
  if (applied.ok()) ++counters_.writes;
  if (!in_window) return applied;
  tracer_->Record(insert ? SpanKind::kApplyInsert : SpanKind::kApplyErase,
                  start, end, applied.ok() ? applied.value() : 0);
  ++counters_.window_writes;
  if (epochs_ != nullptr) {
    counters_.retired = epochs_->objects_retired() - retired_base_;
    counters_.versions = epochs_->epochs_advanced() - versions_base_;
    counters_.limbo_peak =
        std::max<uint64_t>(counters_.limbo_peak, epochs_->limbo_size());
  }
  if (router_ != nullptr) {
    counters_.splits = router_->splits() - splits_base_;
    counters_.merges = router_->merges() - merges_base_;
  }
  return applied;
}

StatusOr<uint64_t> TimedBackend::ApplyInsert(const geo::Point2& p) {
  return Apply(true, p);
}

StatusOr<uint64_t> TimedBackend::ApplyErase(const geo::Point2& p) {
  return Apply(false, p);
}

StatusOr<std::unique_ptr<const server::ReadView>> TimedBackend::PrepareRead()
    const {
  int64_t start = NowNs();
  StatusOr<std::unique_ptr<const server::ReadView>> view =
      inner_->PrepareRead();
  int64_t end = NowNs();
  if (tracer_->InWindow(start)) {
    WindowOp();
    tracer_->Record(SpanKind::kPrepareRead, start, end, 0);
    if (!view.ok()) ++counters_.pin_failures;
  }
  if (!view.ok()) return view.status();
  return std::unique_ptr<const server::ReadView>(
      std::make_unique<TimedView>(std::move(view).value(), this));
}

void TimedBackend::NoteRead(const Request& request, int64_t start_ns) const {
  int64_t end = NowNs();
  if (!tracer_->InWindow(start_ns)) return;
  WindowOp();
  tracer_->Record(ReadKind(request.type), start_ns, end, ReadKey(request));
  if (router_ == nullptr || request.type != MsgType::kRange) return;
  // Fan-out: shards whose key range reaches the query box. The shard map
  // is re-read only after a split or merge, outside the timed span.
  uint64_t epoch = router_->splits() + router_->merges();
  if (epoch != shard_epoch_) {
    shard_epoch_ = epoch;
    shard_ranges_.clear();
    for (const shard::ShardInfo& info : router_->Shards()) {
      shard_ranges_.push_back(info.range);
    }
  }
  for (const shard::KeyRange& range : shard_ranges_) {
    if (shard::RangeTouchesBox(router_->domain(), range, request.box)) {
      ++counters_.fanout;
    }
  }
  ++counters_.range_reads;
}

StatusOr<std::unique_ptr<TracedStore>> BuildTracedStore(
    const WorkloadSpec& spec, const std::string& dir, Tracer* tracer) {
  auto store = std::make_unique<TracedStore>();
  const geo::Box2 bounds = Domain();
  const spatial::PrTreeOptions options = ServerTreeOptions();
  std::unique_ptr<server::StoreBackend> inner;
  const spatial::EpochManager* epochs = nullptr;
  const shard::ShardRouter* router = nullptr;
  if (spec.sharded) {
    shard::RouterOptions router_options;
    router_options.tree = options;
    router_options.rebalance.enabled = true;
    router_options.rebalance.max_shards = spec.max_shards;
    router_options.rebalance.split_cost = spec.split_cost;
    router_options.rebalance.merge_cost = spec.merge_cost;
    auto sharded = std::make_unique<shard::ShardRouter>(bounds, router_options);
    router = sharded.get();
    inner = std::make_unique<server::ShardStoreBackend>(std::move(sharded));
  } else {
    spatial::WalWriter* wal = nullptr;
    if (spec.wal) {
      store->wal_path = dir + "/popan.wal";
      StatusOr<server::BootResult> booted =
          server::BootWithWal(store->wal_path, bounds, options);
      if (!booted.ok()) return booted.status();
      store->boot = std::move(booted).value();
      wal = &*store->boot.wal;
    }
    auto cow = std::make_unique<server::CowTreeBackend>(
        bounds, options, wal, store->boot.initial_sequence,
        store->boot.seed_points);
    epochs = &cow->tree().epochs();
    inner = std::move(cow);
  }
  auto timed =
      std::make_unique<TimedBackend>(std::move(inner), tracer, epochs, router);
  store->backend = timed.get();
  store->router = router;
  store->core = std::make_unique<server::ServerCore>(std::move(timed));
  return store;
}

InProcessServer::InProcessServer(std::unique_ptr<TracedStore> store)
    : store_(std::move(store)), transport_(store_->core.get()) {}

StatusOr<std::unique_ptr<InProcessServer>> InProcessServer::Start(
    std::unique_ptr<TracedStore> store) {
  std::unique_ptr<InProcessServer> server(
      new InProcessServer(std::move(store)));
  StatusOr<uint16_t> port = server->transport_.Listen(0);
  if (!port.ok()) return port.status();
  server->port_ = port.value();
  InProcessServer* self = server.get();
  server->thread_ = std::thread([self] {
    Status served = self->transport_.Serve();
    if (!served.ok()) {
      std::fprintf(stderr, "in-process server: %s\n",
                   served.ToString().c_str());
    }
  });
  return server;
}

void InProcessServer::Stop() {
  if (!thread_.joinable()) return;
  transport_.RequestStop();
  thread_.join();
}

StatusOr<ConsumeReplay> ReplayConsume(
    const WorkloadSpec& spec, const std::string& dir,
    const std::vector<geo::Point2>& preload,
    const std::vector<std::vector<std::string>>& frames, Tracer* tracer) {
  StatusOr<std::unique_ptr<TracedStore>> built =
      BuildTracedStore(spec, dir, tracer);
  if (!built.ok()) return built.status();
  server::ServerCore& core = *built.value()->core;

  // Preload through the same byte path, untimed.
  uint64_t loader = core.OpenClient();
  for (size_t i = 0; i < preload.size(); i += 4096) {
    Request batch;
    batch.type = MsgType::kInsertBatch;
    size_t end = std::min(preload.size(), i + 4096);
    batch.batch.assign(preload.begin() + static_cast<ptrdiff_t>(i),
                       preload.begin() + static_cast<ptrdiff_t>(end));
    Status consumed =
        core.ConsumeBytes(loader, server::EncodeRequestFrame(batch));
    if (!consumed.ok()) return consumed;
    g_sink = g_sink + core.TakeOutput(loader).size();
  }

  // One connection's recorded stream after another: each stream erases
  // only its own points, so any order of whole streams is valid.
  std::vector<uint64_t> clients;
  for (size_t c = 0; c < frames.size(); ++c) clients.push_back(core.OpenClient());
  tracer->SetWindow(INT64_MIN, INT64_MAX);
  ConsumeReplay out;
  for (size_t c = 0; c < frames.size(); ++c) {
    for (size_t i = 0; i < frames[c].size(); ++i) {
      const std::string& frame = frames[c][i];
      int64_t start = NowNs();
      tracer->Begin(SpanKind::kConsume, start, RequestId(c, i));
      Status consumed = core.ConsumeBytes(clients[c], frame);
      for (uint64_t id : core.ClientsWithOutput()) {
        g_sink = g_sink + core.TakeOutput(id).size();
      }
      int64_t end = NowNs();
      int64_t child_ns = tracer->End(end);
      if (!consumed.ok()) return consumed;
      out.consume_ns += static_cast<double>(end - start);
      out.store_ns += static_cast<double>(child_ns);
      ++out.requests;
      MsgType type = static_cast<MsgType>(static_cast<uint8_t>(frame[4]));
      if (type == MsgType::kInsert || type == MsgType::kErase) {
        ++out.point_writes;
      } else if (type == MsgType::kInsertBatch) {
        out.point_writes += static_cast<uint8_t>(frame[5]) |
                            (static_cast<uint32_t>(static_cast<uint8_t>(frame[6])) << 8);
      }
    }
  }
  tracer->SetWindow(INT64_MAX, INT64_MIN);
  return out;
}

double ReplayDecodeNs(const std::vector<std::vector<std::string>>& frames) {
  size_t count = 0;
  for (const auto& stream : frames) count += stream.size();
  return TimePasses(count, [&frames] {
    for (const auto& stream : frames) {
      for (const std::string& frame : stream) {
        StatusOr<Request> request =
            server::DecodeRequestPayload(std::string_view(frame).substr(4));
        g_sink = g_sink + (request.ok() ? 1 : 0);
      }
    }
  });
}

double ReplayEncodeNs(const std::vector<Response>& responses) {
  return TimePasses(responses.size(), [&responses] {
    for (const Response& response : responses) {
      g_sink = g_sink + server::EncodeResponseFrame(response).size();
    }
  });
}

double ReplayWalAppendUs(const std::vector<std::vector<std::string>>& frames,
                         const std::string& path) {
  std::vector<std::pair<char, geo::Point2>> writes = PointWrites(frames);
  if (writes.empty()) return 0.0;
  double mean_ns = 0.0;
  {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    spatial::WalWriter writer(&file, Domain(), ServerTreeOptions());
    int64_t start = NowNs();
    for (const auto& [op, p] : writes) {
      StatusOr<uint64_t> logged =
          op == 'I' ? writer.LogInsert(p) : writer.LogErase(p);
      g_sink = g_sink + (logged.ok() ? logged.value() : 0);
    }
    mean_ns = static_cast<double>(NowNs() - start) /
              static_cast<double>(writes.size());
  }
  std::remove(path.c_str());
  return mean_ns * 1e-3;
}

double ReplayMatchNs(const std::vector<std::vector<std::string>>& frames,
                     const std::vector<std::vector<geo::Box2>>& boxes) {
  server::SubscriptionIndex index(Domain());
  size_t subscribed = 0;
  for (const auto& list : boxes) {
    for (const geo::Box2& box : list) {
      if (index.Subscribe(box).ok()) ++subscribed;
    }
  }
  if (subscribed == 0) return 0.0;
  std::vector<std::pair<char, geo::Point2>> writes = PointWrites(frames);
  std::vector<uint64_t> matches;
  return TimePasses(writes.size(), [&] {
    for (const auto& write : writes) {
      matches.clear();
      index.Match(write.second, &matches);
      g_sink = g_sink + matches.size();
    }
  });
}

}  // namespace popan::perfbench
