#ifndef POPAN_SIM_RW_STORM_H_
#define POPAN_SIM_RW_STORM_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"
#include "sim/experiment.h"
#include "spatial/pr_tree.h"
#include "util/statusor.h"

namespace popan::sim {

/// Seeded reader/writer storm harness for the epoch-snapshot layer
/// (spatial/snapshot_view.h): one writer thread replays a deterministic
/// insert/erase trace while N reader threads repeatedly pin snapshots and
/// record what they see — sequence number, size, live census, and
/// canonical range-query results. After the threads join, every recorded
/// snapshot is verified against a serial replay of the first `sequence`
/// trace operations into a fresh stop-the-world tree: the pinned view
/// must be bitwise identical to that prefix state. The thread schedule is
/// free to vary run to run; the verification oracle is not.
///
/// The storm is the TSan target in CI: every head publication, epoch pin,
/// and limbo reclamation runs here under maximal reader pressure.
///
/// Concurrency discipline: the harness owns no mutexes — cross-thread
/// state is exactly one atomic progress counter (explicitly-ordered, see
/// the atomic-implicit-ordering lint rule) plus per-reader record slots
/// that only their owning thread touches before the join. This file is an
/// allowlisted raw-thread-spawn site (popan_lint's raw-thread-spawn
/// rule): the storm needs real unpooled threads so TSan observes the
/// exact pin/publish interleavings the epoch proof talks about.

/// One operation of a storm trace.
struct StormOp {
  bool insert = true;
  geo::Point2 point;
};

/// Builds a deterministic trace of `num_ops` operations over the unit
/// square: inserts of fresh uniform points with probability
/// `insert_fraction` (always, while empty), erases of a uniformly chosen
/// live point otherwise. Every operation succeeds when replayed in order,
/// so sequence number k corresponds exactly to the first k operations.
/// A non-negative `drain_insert_fraction` adds a drain phase: operations
/// from `drain_after * num_ops` onward insert with that probability
/// instead (the population swells, then drains). Negative, the default,
/// keeps one constant fraction.
std::vector<StormOp> MakeStormTrace(size_t num_ops, double insert_fraction,
                                    uint64_t seed,
                                    double drain_insert_fraction = -1.0,
                                    double drain_after = 0.5);

/// Replays the first `prefix` operations of `trace` into `tree` — the
/// stop-the-world reference a pinned snapshot is compared against.
[[nodiscard]] Status ReplayTrace(std::span<const StormOp> trace,
                                 size_t prefix, spatial::PrTree<2>* tree);

/// The deterministic query boxes a snapshot at `sequence` is probed with
/// (readers and the verification replay must agree on them, so they are a
/// pure function of the trace seed, the sequence, and the query index).
geo::Box2 StormQueryBox(uint64_t seed, uint64_t sequence, uint64_t index);

struct RwStormConfig {
  size_t num_ops = 2048;
  size_t reader_threads = 4;
  /// Snapshots each reader pins, spread across the writer's progress.
  size_t snapshots_per_reader = 8;
  /// Range queries probed per snapshot (at the StormQueryBox boxes).
  size_t queries_per_snapshot = 4;
  size_t capacity = 4;
  size_t max_depth = 32;
  double insert_fraction = 0.65;
  uint64_t seed = 1;
  /// LinearPrQuadtree storm only: operations per published rebuild.
  size_t batch_size = 64;
};

struct RwStormStats {
  uint64_t ops_applied = 0;
  uint64_t snapshots_verified = 0;
  uint64_t epochs_advanced = 0;
  uint64_t objects_retired = 0;
  uint64_t objects_reclaimed = 0;
  uint64_t final_size = 0;
};

/// Runs the storm against a CowPrQuadtree: the writer applies the trace
/// one operation per published version while readers pin per-operation
/// snapshots. Verification replays each recorded sequence prefix with
/// `runner` (one deterministic replay per snapshot, fanned out over the
/// executor) and returns Internal on any divergence — census, size,
/// query results, or final-state invariants. On success all retired
/// objects have been reclaimed.
[[nodiscard]] StatusOr<RwStormStats> RunCowTreeStorm(
    const RwStormConfig& config, ExperimentRunner& runner);

/// Same storm against a VersionedObject<LinearPrQuadtree>: the writer
/// bulk-rebuilds and publishes every `batch_size` operations (and once at
/// the end), readers pin whole-structure revisions. Verifies each pinned
/// revision against a bulk load of the replayed prefix's live set.
[[nodiscard]] StatusOr<RwStormStats> RunLinearQuadtreeStorm(
    const RwStormConfig& config, ExperimentRunner& runner);

}  // namespace popan::sim

#endif  // POPAN_SIM_RW_STORM_H_
