#ifndef POPAN_PERFBENCH_TRACE_H_
#define POPAN_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/boot.h"
#include "server/server_core.h"
#include "server/socket_server.h"
#include "server/store.h"
#include "shard/router.h"
#include "spatial/epoch.h"
#include "util/statusor.h"
#include "workload.h"

namespace popan::perfbench {

/// Span kinds recorded from outside the server's modules.
enum class SpanKind : uint8_t {
  kApplyInsert,
  kApplyErase,
  kPrepareRead,
  kRange,
  kNearestK,
  kPartialMatch,
  kCensus,
  kConsume,  ///< replay: ServerCore::ConsumeBytes + TakeOutput
  kCount,
};
const char* SpanName(SpanKind kind);

/// One timed call. `key` is the write's sequence or the read's ReadKey;
/// `request_id` is filled in when the span is joined to a client request.
struct Span {
  SpanKind kind = SpanKind::kConsume;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  ///< index of the enclosing span, -1 for none
  uint64_t key = 0;
  uint64_t request_id = 0;
};

/// Collects spans in memory, only for calls that start inside
/// [window_start, window_end) (set from the load generator's thread
/// before the load starts; read on the server thread). Durations are
/// kept per kind for percentiles; the span log itself is capped.
class Tracer {
 public:
  static constexpr size_t kMaxLoggedSpans = size_t{1} << 18;

  void SetWindow(int64_t start_ns, int64_t end_ns) {
    window_end_.store(end_ns);
    window_start_.store(start_ns);
  }
  bool InWindow(int64_t t) const {
    return t >= window_start_.load(std::memory_order_relaxed) &&
           t < window_end_.load(std::memory_order_relaxed);
  }

  /// Records a leaf span, a child of the open parent span if any.
  /// Returns the span's log index or -1 once the log is full.
  int64_t Record(SpanKind kind, int64_t start_ns, int64_t end_ns,
                 uint64_t key);

  /// Opens a parent span (replay); spans recorded until End are its
  /// children. End returns the time the children covered: they run one
  /// after another on one thread, so their durations do not overlap.
  void Begin(SpanKind kind, int64_t start_ns, uint64_t key);
  int64_t End(int64_t end_ns);

  std::vector<int64_t>& durations(SpanKind kind) {
    return durations_[static_cast<size_t>(kind)];
  }
  std::vector<Span>& spans() { return spans_; }

 private:
  std::atomic<int64_t> window_start_{INT64_MAX};
  std::atomic<int64_t> window_end_{INT64_MIN};
  bool open_ = false;
  SpanKind open_kind_ = SpanKind::kConsume;
  int64_t open_start_ = 0;
  int64_t parent_ = -1;
  int64_t child_ns_ = 0;
  std::vector<Span> spans_;
  std::vector<int64_t> durations_[static_cast<size_t>(SpanKind::kCount)];
};

/// Counters the timing decorator keeps over the traced window.
struct BackendCounters {
  uint64_t writes = 0;          ///< all applied writes, set-up included
  uint64_t window_writes = 0;
  uint64_t pin_failures = 0;
  uint64_t retired = 0;         ///< epoch objects retired in the window
  uint64_t versions = 0;        ///< epochs advanced in the window
  uint64_t limbo_peak = 0;
  uint64_t splits = 0;          ///< router splits in the window
  uint64_t merges = 0;
  uint64_t range_reads = 0;
  uint64_t fanout = 0;          ///< shards a range read's box touches
};

/// A StoreBackend decorator that times every call into the storage
/// engine (and, through TimedView, every read completion) from outside
/// the engine. `epochs` (single tree) and `router` (sharded) may be null.
class TimedBackend final : public server::StoreBackend {
 public:
  TimedBackend(std::unique_ptr<server::StoreBackend> inner, Tracer* tracer,
               const spatial::EpochManager* epochs,
               const shard::ShardRouter* router);

  const geo::Box2& bounds() const override { return inner_->bounds(); }
  uint64_t sequence() const override { return inner_->sequence(); }
  size_t size() const override { return inner_->size(); }
  [[nodiscard]] StatusOr<uint64_t> ApplyInsert(const geo::Point2& p) override;
  [[nodiscard]] StatusOr<uint64_t> ApplyErase(const geo::Point2& p) override;
  [[nodiscard]] StatusOr<std::unique_ptr<const server::ReadView>>
  PrepareRead() const override;

  /// Server thread only while serving; any thread once it stopped.
  const BackendCounters& counters() const { return counters_; }

  /// Called by TimedView after a read completes (server thread).
  void NoteRead(const server::Request& request, int64_t start_ns) const;

 private:
  StatusOr<uint64_t> Apply(bool insert, const geo::Point2& p);
  void WindowOp() const;

  std::unique_ptr<server::StoreBackend> inner_;
  Tracer* tracer_;
  const spatial::EpochManager* epochs_;
  const shard::ShardRouter* router_;
  mutable BackendCounters counters_;
  mutable bool window_open_ = false;
  mutable uint64_t retired_base_ = 0;
  mutable uint64_t versions_base_ = 0;
  mutable uint64_t splits_base_ = 0;
  mutable uint64_t merges_base_ = 0;
  mutable uint64_t shard_epoch_ = UINT64_MAX;
  mutable std::vector<shard::KeyRange> shard_ranges_;
};

/// Builds the storage engine popan_server would build for `spec` (WAL
/// boot in `dir` for the WAL mix), wrapped in a TimedBackend. The boot
/// state must outlive the backend.
struct TracedStore {
  server::BootResult boot;
  TimedBackend* backend = nullptr;  ///< owned by the ServerCore below
  const shard::ShardRouter* router = nullptr;  ///< sharded mix only
  std::unique_ptr<server::ServerCore> core;
  std::string wal_path;
};
[[nodiscard]] StatusOr<std::unique_ptr<TracedStore>> BuildTracedStore(
    const WorkloadSpec& spec, const std::string& dir, Tracer* tracer);

/// SocketServer + ServerCore in this process, serving on its own thread.
class InProcessServer {
 public:
  [[nodiscard]] static StatusOr<std::unique_ptr<InProcessServer>> Start(
      std::unique_ptr<TracedStore> store);
  ~InProcessServer() { Stop(); }
  InProcessServer(const InProcessServer&) = delete;
  InProcessServer& operator=(const InProcessServer&) = delete;

  uint16_t port() const { return port_; }
  /// Stops the poll loop and joins the serving thread; idempotent.
  void Stop();
  TracedStore& store() { return *store_; }

 private:
  explicit InProcessServer(std::unique_ptr<TracedStore> store);

  std::unique_ptr<TracedStore> store_;
  server::SocketServer transport_;
  uint16_t port_ = 0;
  std::thread thread_;
};

/// Result of the socketless replay of recorded request bytes through
/// ServerCore::ConsumeBytes + TakeOutput on a fresh store.
struct ConsumeReplay {
  uint64_t requests = 0;
  uint64_t point_writes = 0;
  double consume_ns = 0.0;  ///< sum of consume spans
  double store_ns = 0.0;    ///< sum of their store child spans
};
[[nodiscard]] StatusOr<ConsumeReplay> ReplayConsume(
    const WorkloadSpec& spec, const std::string& dir,
    const std::vector<geo::Point2>& preload,
    const std::vector<std::vector<std::string>>& frames, Tracer* tracer);

/// Mean ns per DecodeRequestPayload over the recorded frames.
double ReplayDecodeNs(const std::vector<std::vector<std::string>>& frames);
/// Mean ns per EncodeResponseFrame over the recorded responses.
double ReplayEncodeNs(const std::vector<server::Response>& responses);
/// Mean us per WalWriter::LogInsert / LogErase over the recorded point
/// writes, appended to a fresh log at `path`.
double ReplayWalAppendUs(const std::vector<std::vector<std::string>>& frames,
                         const std::string& path);
/// Mean ns per SubscriptionIndex::Match over the recorded point writes,
/// with the recorded subscription boxes; 0 without subscriptions.
double ReplayMatchNs(const std::vector<std::vector<std::string>>& frames,
                     const std::vector<std::vector<geo::Box2>>& boxes);

}  // namespace popan::perfbench

#endif  // POPAN_PERFBENCH_TRACE_H_
