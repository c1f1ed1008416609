#include "shard/shard_storm.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <span>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "query/query.h"
#include "sim/rw_storm.h"
#include "spatial/census.h"
#include "spatial/snapshot_view.h"
#include "util/check.h"
#include "util/random.h"
#include "util/text_io.h"

namespace popan::shard {

namespace {

/// FNV-1a over the raw bit patterns of a canonical point stream — the
/// transcript's content fingerprint. Bitwise, not approximate: two runs
/// agree on a checkpoint iff every coordinate is identical.
uint64_t PointsChecksum(const std::vector<geo::Point2>& points) {
  uint64_t hash = kTranscriptSeed;
  for (const geo::Point2& p : points) {
    hash = Fnv1aU64(hash, std::bit_cast<uint64_t>(p.x()));
    hash = Fnv1aU64(hash, std::bit_cast<uint64_t>(p.y()));
  }
  return hash;
}

/// The deterministic query battery: query `index` at `sequence` rotates
/// range / partial-match / k-NN, a pure function of (config.seed,
/// sequence, index) plus the trace (partial-match values are live
/// coordinates so the probe actually hits points).
query::QuerySpec BatteryQuery(const ShardStormConfig& config,
                              std::span<const sim::StormOp> trace,
                              uint64_t sequence, uint64_t index) {
  Pcg32 rng(DeriveSeed(DeriveSeed(config.seed, 0x5A0000 + sequence), index));
  switch (index % 3) {
    case 0:
      return query::QuerySpec::Range(
          sim::StormQueryBox(config.seed, sequence, index));
    case 1: {
      const geo::Point2& p =
          trace[rng.NextBounded(static_cast<uint32_t>(trace.size()))].point;
      size_t axis = index % 2;
      return query::QuerySpec::PartialMatch(axis,
                                            axis == 0 ? p.x() : p.y());
    }
    default:
      return query::QuerySpec::NearestK(
          geo::Point2(rng.NextDouble(), rng.NextDouble()),
          1 + rng.NextBounded(16));
  }
}

/// What one reader records per pinned MultiSnapshot.
struct StormRecord {
  uint64_t sequence = 0;
  uint64_t size = 0;
  /// The cut's merged LiveCensus equals the merged walks of its views.
  bool census_matches = false;
  std::vector<std::vector<geo::Point2>> query_results;
};

StormRecord RecordSnapshot(const ShardStormConfig& config,
                           std::span<const sim::StormOp> trace,
                           const MultiSnapshot& snapshot) {
  StormRecord record;
  record.sequence = snapshot.sequence();
  record.size = snapshot.size();
  spatial::Census walked;
  for (const MultiSnapshot::Entry& entry : snapshot.entries()) {
    walked.Merge(spatial::TakeCensus(entry.view));
  }
  record.census_matches = snapshot.LiveCensus() == walked;
  record.query_results.reserve(config.queries_per_snapshot);
  for (uint64_t j = 0; j < config.queries_per_snapshot; ++j) {
    query::QueryResult result = Execute(
        snapshot, BatteryQuery(config, trace, record.sequence, j));
    record.query_results.push_back(std::move(result.points));
  }
  return record;
}

/// Verifies one record against a serial single-tree replay of its
/// sequence prefix: the parity oracle. Returns "" on success.
std::string VerifyRecord(const ShardStormConfig& config,
                         std::span<const sim::StormOp> trace,
                         const StormRecord& record) {
  spatial::CowPrQuadtree ref(geo::Box2::UnitCube(), config.tree,
                             /*initial_sequence=*/0, /*epoch_readers=*/1);
  for (size_t i = 0; i < record.sequence; ++i) {
    Status s = trace[i].insert ? ref.Insert(trace[i].point)
                               : ref.Erase(trace[i].point);
    if (!s.ok()) return "replay failed: " + s.ToString();
  }
  if (ref.size() != record.size) {
    return "size mismatch at sequence " + std::to_string(record.sequence);
  }
  spatial::SnapshotView2 view = ref.Snapshot();
  for (uint64_t j = 0; j < record.query_results.size(); ++j) {
    query::QueryResult expect = query::Execute(
        view, BatteryQuery(config, trace, record.sequence, j));
    if (expect.points != record.query_results[j]) {
      return "query divergence at sequence " +
             std::to_string(record.sequence) + " query " +
             std::to_string(j);
    }
  }
  return "";
}

/// One transcript checkpoint line (phase 2), from a pinned snapshot.
void AppendCheckpoint(const ShardStormConfig& config,
                      std::span<const sim::StormOp> trace,
                      const ShardRouter& router, std::ostream* out) {
  MultiSnapshot snapshot = router.Snapshot();
  *out << "seq=" << snapshot.sequence() << " size=" << snapshot.size()
       << " shards=" << snapshot.entries().size()
       << " splits=" << router.splits() << " merges=" << router.merges();
  for (uint64_t j = 0; j < config.queries_per_snapshot; ++j) {
    query::QueryResult result = Execute(
        snapshot, BatteryQuery(config, trace, snapshot.sequence(), j));
    *out << " q" << j << "=" << result.points.size() << ":"
         << PointsChecksum(result.points);
  }
  *out << "\n";
}

}  // namespace

[[nodiscard]] StatusOr<ShardStormResult> RunShardStorm(
    const ShardStormConfig& config, sim::ExperimentRunner& runner) {
  POPAN_CHECK(config.checkpoints >= 1);
  const std::vector<sim::StormOp> trace = sim::MakeStormTrace(
      config.num_ops, config.insert_fraction, config.seed,
      config.drain_insert_fraction, config.drain_after);
  const std::span<const sim::StormOp> trace_span(trace.data(),
                                                 trace.size());
  RouterOptions router_options;
  router_options.tree = config.tree;
  router_options.rebalance = config.rebalance;

  // --- Phase 1: concurrent storm -------------------------------------
  ShardRouter router(geo::Box2::UnitCube(), router_options);
  std::atomic<uint64_t> progress{0};
  std::vector<std::vector<StormRecord>> per_reader(config.reader_threads);
  std::vector<std::thread> readers;
  readers.reserve(config.reader_threads);
  for (size_t r = 0; r < config.reader_threads; ++r) {
    readers.emplace_back([&, r]() {
      std::vector<StormRecord>& out = per_reader[r];
      out.reserve(config.snapshots_per_reader);
      for (size_t i = 0; i < config.snapshots_per_reader; ++i) {
        uint64_t target = ((i + 1) * config.num_ops) /
                          (config.snapshots_per_reader + 1);
        while (progress.load(std::memory_order_relaxed) < target) {
          std::this_thread::yield();
        }
        out.push_back(
            RecordSnapshot(config, trace_span, router.Snapshot()));
      }
    });
  }

  Status writer_status = Status::OK();
  for (const sim::StormOp& op : trace) {
    Status s =
        op.insert ? router.Insert(op.point) : router.Erase(op.point);
    if (!s.ok()) {
      writer_status = std::move(s);
      break;
    }
    progress.fetch_add(1, std::memory_order_relaxed);
  }
  progress.store(config.num_ops, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  POPAN_RETURN_IF_ERROR(writer_status);
  if (router.sequence() != config.num_ops) {
    return Status::Internal("final sequence does not match the trace");
  }

  std::vector<StormRecord> records;
  for (std::vector<StormRecord>& part : per_reader) {
    for (StormRecord& record : part) records.push_back(std::move(record));
  }
  // The final state rides along so the full trace is always verified.
  records.push_back(RecordSnapshot(config, trace_span, router.Snapshot()));

  for (const StormRecord& record : records) {
    if (!record.census_matches) {
      return Status::Internal("live census diverged from the walked views "
                              "at sequence " +
                              std::to_string(record.sequence));
    }
  }
  std::vector<std::string> failures = runner.Map<std::string>(
      records.size(), [&config, trace_span, &records](size_t i) {
        return VerifyRecord(config, trace_span, records[i]);
      });
  for (const std::string& failure : failures) {
    if (!failure.empty()) return Status::Internal(failure);
  }

  // --- Phase 2: serial transcript ------------------------------------
  ShardRouter serial(geo::Box2::UnitCube(), router_options);
  std::ostringstream transcript;
  const size_t stride = std::max<size_t>(1, config.num_ops / config.checkpoints);
  size_t applied = 0;
  for (const sim::StormOp& op : trace) {
    POPAN_RETURN_IF_ERROR(op.insert ? serial.Insert(op.point)
                                    : serial.Erase(op.point));
    ++applied;
    if (applied % stride == 0 || applied == config.num_ops) {
      AppendCheckpoint(config, trace_span, serial, &transcript);
    }
  }
  transcript << "final";
  for (const ShardInfo& info : serial.Shards()) {
    transcript << " " << info.range.ToString() << "@" << info.size;
  }
  transcript << "\n";

  // The balancer consumes only writer-side state, so the concurrent
  // run's structural history must be byte-for-byte the serial run's.
  if (serial.splits() != router.splits() ||
      serial.merges() != router.merges() ||
      serial.size() != router.size() ||
      serial.sequence() != router.sequence()) {
    return Status::Internal(
        "concurrent readers perturbed the writer's rebalance history");
  }
  std::vector<ShardInfo> a = router.Shards();
  std::vector<ShardInfo> b = serial.Shards();
  if (a.size() != b.size()) {
    return Status::Internal("shard maps diverged between phases");
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].range != b[i].range || a[i].size != b[i].size) {
      return Status::Internal("shard " + std::to_string(i) +
                              " diverged between phases");
    }
  }

  ShardStormResult result;
  result.ops_applied = config.num_ops;
  result.snapshots_verified = records.size();
  result.splits = router.splits();
  result.merges = router.merges();
  result.final_size = router.size();
  result.final_shards = router.shard_count();
  result.transcript = transcript.str();
  return result;
}

}  // namespace popan::shard
