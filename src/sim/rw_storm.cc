#include "sim/rw_storm.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <utility>

#include "spatial/census.h"
#include "spatial/knn_heap.h"
#include "spatial/linear_quadtree.h"
#include "spatial/snapshot_view.h"
#include "util/check.h"
#include "util/random.h"

namespace popan::sim {

namespace {

/// What one reader records per pinned snapshot; verified after the join
/// against a serial replay of the first `sequence` trace operations.
struct SnapshotRecord {
  uint64_t sequence = 0;
  uint64_t size = 0;
  spatial::Census census;
  std::vector<std::vector<geo::Point2>> query_results;
};

spatial::PrTreeOptions OptionsOf(const RwStormConfig& config) {
  spatial::PrTreeOptions options;
  options.capacity = config.capacity;
  options.max_depth = config.max_depth;
  return options;
}

/// Spreads reader snapshot i of `total` across the writer's progress:
/// waits until at least the target fraction of operations has been
/// applied (returns immediately once the writer is done).
void AwaitProgress(const std::atomic<uint64_t>& progress, uint64_t target) {
  while (progress.load(std::memory_order_relaxed) < target) {
    std::this_thread::yield();
  }
}

/// The storm's range probes on `tree` at `sequence`, each answer sorted
/// canonically: what a record holds and what its replay must reproduce.
template <typename Tree>
std::vector<std::vector<geo::Point2>> ProbeQueries(const RwStormConfig& config,
                                                   const Tree& tree,
                                                   uint64_t sequence) {
  std::vector<std::vector<geo::Point2>> out;
  out.reserve(config.queries_per_snapshot);
  for (uint64_t j = 0; j < config.queries_per_snapshot; ++j) {
    std::vector<geo::Point2> points =
        tree.RangeQuery(StormQueryBox(config.seed, sequence, j));
    std::sort(points.begin(), points.end(), spatial::PointTieLess());
    out.push_back(std::move(points));
  }
  return out;
}

/// The record of one pinned CowPrTree version.
SnapshotRecord RecordSnapshot(const RwStormConfig& config,
                              const spatial::SnapshotView2& snapshot) {
  SnapshotRecord record;
  record.sequence = snapshot.sequence();
  record.size = snapshot.size();
  record.census = snapshot.LiveCensus();
  record.query_results = ProbeQueries(config, snapshot, record.sequence);
  return record;
}

std::string CompareRecord(const SnapshotRecord& record, uint64_t ref_size,
                          const spatial::Census& ref_census,
                          const std::vector<std::vector<geo::Point2>>& ref_q) {
  if (record.size != ref_size) {
    return "size mismatch at sequence " + std::to_string(record.sequence) +
           ": snapshot " + std::to_string(record.size) + " replay " +
           std::to_string(ref_size);
  }
  if (!(record.census == ref_census)) {
    return "census mismatch at sequence " + std::to_string(record.sequence);
  }
  for (size_t j = 0; j < record.query_results.size(); ++j) {
    if (record.query_results[j] != ref_q[j]) {
      return "range-query mismatch at sequence " +
             std::to_string(record.sequence) + " query " + std::to_string(j);
    }
  }
  return "";
}

/// Fans the per-record verifications over the executor (each record is an
/// independent deterministic replay) and reduces to the first failure.
[[nodiscard]] Status VerifyRecords(
    const std::vector<SnapshotRecord>& records,
    const std::function<std::string(const SnapshotRecord&)>& verify_one,
    ExperimentRunner& runner) {
  std::vector<std::string> failures = runner.Map<std::string>(
      records.size(),
      [&records, &verify_one](size_t i) { return verify_one(records[i]); });
  for (const std::string& failure : failures) {
    if (!failure.empty()) return Status::Internal(failure);
  }
  return Status::OK();
}

}  // namespace

std::vector<StormOp> MakeStormTrace(size_t num_ops, double insert_fraction,
                                    uint64_t seed,
                                    double drain_insert_fraction,
                                    double drain_after) {
  const size_t drain_at =
      drain_insert_fraction < 0.0
          ? num_ops
          : static_cast<size_t>(static_cast<double>(num_ops) * drain_after);
  Pcg32 rng(DeriveSeed(seed, 0));
  std::vector<StormOp> trace;
  trace.reserve(num_ops);
  std::vector<geo::Point2> live;
  for (size_t i = 0; i < num_ops; ++i) {
    const double fraction =
        i < drain_at ? insert_fraction : drain_insert_fraction;
    StormOp op;
    if (live.empty() || rng.NextDouble() < fraction) {
      op.insert = true;
      op.point = geo::Point2(rng.NextDouble(), rng.NextDouble());
      live.push_back(op.point);
    } else {
      op.insert = false;
      size_t victim = rng.NextBounded(static_cast<uint32_t>(live.size()));
      op.point = live[victim];
      live[victim] = live.back();
      live.pop_back();
    }
    trace.push_back(op);
  }
  return trace;
}

[[nodiscard]] Status ReplayTrace(std::span<const StormOp> trace,
                                 size_t prefix, spatial::PrTree<2>* tree) {
  POPAN_CHECK(prefix <= trace.size());
  for (size_t i = 0; i < prefix; ++i) {
    if (trace[i].insert) {
      POPAN_RETURN_IF_ERROR(tree->Insert(trace[i].point));
    } else {
      POPAN_RETURN_IF_ERROR(tree->Erase(trace[i].point));
    }
  }
  return Status::OK();
}

geo::Box2 StormQueryBox(uint64_t seed, uint64_t sequence, uint64_t index) {
  Pcg32 rng(DeriveSeed(DeriveSeed(seed, 1 + sequence), index));
  double cx = rng.NextDouble();
  double cy = rng.NextDouble();
  double hx = rng.NextDouble(0.01, 0.25);
  double hy = rng.NextDouble(0.01, 0.25);
  geo::Point2 lo(std::max(0.0, cx - hx), std::max(0.0, cy - hy));
  geo::Point2 hi(std::min(1.0, cx + hx), std::min(1.0, cy + hy));
  return geo::Box2(lo, hi);
}

[[nodiscard]] StatusOr<RwStormStats> RunCowTreeStorm(
    const RwStormConfig& config, ExperimentRunner& runner) {
  const std::vector<StormOp> trace =
      MakeStormTrace(config.num_ops, config.insert_fraction, config.seed);
  spatial::CowPrQuadtree tree(geo::Box2::UnitCube(), OptionsOf(config));

  std::atomic<uint64_t> progress{0};
  std::vector<std::vector<SnapshotRecord>> per_reader(config.reader_threads);
  std::vector<std::thread> readers;
  readers.reserve(config.reader_threads);
  for (size_t r = 0; r < config.reader_threads; ++r) {
    readers.emplace_back([&, r]() {
      std::vector<SnapshotRecord>& out = per_reader[r];
      out.reserve(config.snapshots_per_reader);
      for (size_t i = 0; i < config.snapshots_per_reader; ++i) {
        AwaitProgress(progress, ((i + 1) * config.num_ops) /
                                    (config.snapshots_per_reader + 1));
        out.push_back(RecordSnapshot(config, tree.Snapshot()));
      }
    });
  }

  Status writer_status = Status::OK();
  for (const StormOp& op : trace) {
    Status s = op.insert ? tree.Insert(op.point) : tree.Erase(op.point);
    if (!s.ok()) {
      writer_status = std::move(s);
      break;
    }
    progress.fetch_add(1, std::memory_order_relaxed);
  }
  // Unblock any reader still pacing, even on a failed writer.
  progress.store(config.num_ops, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  POPAN_RETURN_IF_ERROR(writer_status);

  // All pins are released: one more advance makes every retired object
  // reclaimable, so a storm that leaks is caught right here.
  tree.epochs().AdvanceEpoch();
  tree.epochs().Reclaim();
  if (tree.epochs().limbo_size() != 0) {
    return Status::Internal("limbo not empty after all readers released");
  }
  POPAN_RETURN_IF_ERROR(tree.CheckInvariants());
  if (tree.sequence() != config.num_ops) {
    return Status::Internal("final sequence does not match the trace length");
  }

  std::vector<SnapshotRecord> records;
  for (std::vector<SnapshotRecord>& part : per_reader) {
    for (SnapshotRecord& record : part) records.push_back(std::move(record));
  }
  // Record the final state too, so the full trace is always verified.
  records.push_back(RecordSnapshot(config, tree.Snapshot()));

  std::span<const StormOp> trace_span(trace.data(), trace.size());
  Status verified = VerifyRecords(
      records,
      [&config, trace_span](const SnapshotRecord& record) -> std::string {
        spatial::PrTree<2> ref(geo::Box2::UnitCube(), OptionsOf(config));
        Status replayed = ReplayTrace(
            trace_span, static_cast<size_t>(record.sequence), &ref);
        if (!replayed.ok()) return replayed.ToString();
        return CompareRecord(record, ref.size(), ref.LiveCensus(),
                             ProbeQueries(config, ref, record.sequence));
      },
      runner);
  POPAN_RETURN_IF_ERROR(verified);

  RwStormStats stats;
  stats.ops_applied = config.num_ops;
  stats.snapshots_verified = records.size();
  stats.epochs_advanced = tree.epochs().epochs_advanced();
  stats.objects_retired = tree.epochs().objects_retired();
  stats.objects_reclaimed = tree.epochs().objects_reclaimed();
  stats.final_size = tree.size();
  return stats;
}

[[nodiscard]] StatusOr<RwStormStats> RunLinearQuadtreeStorm(
    const RwStormConfig& config, ExperimentRunner& runner) {
  POPAN_CHECK(config.batch_size >= 1);
  const std::vector<StormOp> trace =
      MakeStormTrace(config.num_ops, config.insert_fraction, config.seed);
  const geo::Box2 bounds = geo::Box2::UnitCube();
  const spatial::PrTreeOptions options = OptionsOf(config);

  POPAN_ASSIGN_OR_RETURN(
      spatial::LinearPrQuadtree initial,
      spatial::LinearPrQuadtree::BulkLoad(bounds, {}, options));
  spatial::VersionedObject<spatial::LinearPrQuadtree> versioned(
      std::move(initial), 0);

  std::atomic<uint64_t> progress{0};
  std::vector<std::vector<SnapshotRecord>> per_reader(config.reader_threads);
  std::vector<std::thread> readers;
  readers.reserve(config.reader_threads);
  for (size_t r = 0; r < config.reader_threads; ++r) {
    readers.emplace_back([&, r]() {
      std::vector<SnapshotRecord>& out = per_reader[r];
      out.reserve(config.snapshots_per_reader);
      for (size_t i = 0; i < config.snapshots_per_reader; ++i) {
        AwaitProgress(progress, ((i + 1) * config.num_ops) /
                                    (config.snapshots_per_reader + 1));
        auto view = versioned.Snapshot();
        SnapshotRecord record;
        record.sequence = view.sequence();
        record.size = view->size();
        record.census = spatial::TakeCensus(*view);
        record.query_results = ProbeQueries(config, *view, record.sequence);
        out.push_back(std::move(record));
      }
    });
  }

  // The writer maintains the live set and publishes a canonical bulk
  // rebuild every batch_size operations (and once at the very end), so
  // published sequences are exactly the batch boundaries.
  std::vector<geo::Point2> live;
  Status writer_status = Status::OK();
  uint64_t applied = 0;
  for (const StormOp& op : trace) {
    if (op.insert) {
      live.push_back(op.point);
    } else {
      auto it = std::find(live.begin(), live.end(), op.point);
      if (it == live.end()) {
        writer_status = Status::Internal("trace erases a point not live");
        break;
      }
      *it = live.back();
      live.pop_back();
    }
    ++applied;
    if (applied % config.batch_size == 0 || applied == config.num_ops) {
      StatusOr<spatial::LinearPrQuadtree> rebuilt =
          spatial::LinearPrQuadtree::BulkLoad(bounds, live, options);
      if (!rebuilt.ok()) {
        writer_status = rebuilt.status();
        break;
      }
      versioned.Publish(std::move(rebuilt.value()), applied);
      progress.store(applied, std::memory_order_relaxed);
    }
  }
  progress.store(config.num_ops, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  POPAN_RETURN_IF_ERROR(writer_status);

  versioned.epochs().AdvanceEpoch();
  versioned.epochs().Reclaim();
  if (versioned.epochs().limbo_size() != 0) {
    return Status::Internal("limbo not empty after all readers released");
  }

  std::vector<SnapshotRecord> records;
  for (std::vector<SnapshotRecord>& part : per_reader) {
    for (SnapshotRecord& record : part) records.push_back(std::move(record));
  }

  std::span<const StormOp> trace_span(trace.data(), trace.size());
  Status verified = VerifyRecords(
      records,
      [&config, &bounds, &options,
       trace_span](const SnapshotRecord& record) -> std::string {
        // Rebuild the live set of the first `sequence` operations, then
        // bulk-load it: BulkLoad is canonical in the point set, so the
        // result must match the published revision leaf for leaf.
        std::vector<geo::Point2> ref_live;
        for (size_t i = 0; i < record.sequence; ++i) {
          const StormOp& op = trace_span[i];
          if (op.insert) {
            ref_live.push_back(op.point);
          } else {
            auto it = std::find(ref_live.begin(), ref_live.end(), op.point);
            if (it == ref_live.end()) return "replayed erase of a dead point";
            *it = ref_live.back();
            ref_live.pop_back();
          }
        }
        StatusOr<spatial::LinearPrQuadtree> ref =
            spatial::LinearPrQuadtree::BulkLoad(bounds, std::move(ref_live),
                                                options);
        if (!ref.ok()) return ref.status().ToString();
        return CompareRecord(record, ref->size(), spatial::TakeCensus(*ref),
                             ProbeQueries(config, *ref, record.sequence));
      },
      runner);
  POPAN_RETURN_IF_ERROR(verified);

  RwStormStats stats;
  stats.ops_applied = config.num_ops;
  stats.snapshots_verified = records.size();
  stats.epochs_advanced = versioned.epochs().epochs_advanced();
  stats.objects_retired = versioned.epochs().objects_retired();
  stats.objects_reclaimed = versioned.epochs().objects_reclaimed();
  stats.final_size = live.size();
  return stats;
}

}  // namespace popan::sim
