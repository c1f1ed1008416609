#ifndef POPAN_SHARD_SHARD_STORM_H_
#define POPAN_SHARD_SHARD_STORM_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "shard/router.h"
#include "sim/experiment.h"
#include "spatial/pr_tree.h"
#include "util/statusor.h"

namespace popan::shard {

/// Seeded multi-shard churn storm: the sharded-store analogue of
/// sim/rw_storm.h, and the TSan target for the shard map.
///
/// Two phases share one deterministic trace (sim::MakeStormTrace):
///
///  1. CONCURRENT: a single writer replays the trace through a
///     ShardRouter with the census-predicted balancer live (splits and
///     merges land mid-storm wherever the thresholds say), while
///     `reader_threads` real threads pin MultiSnapshots at paced
///     progress points and record canonically-ordered query answers.
///     After the join, every pinned record is verified — fanned over
///     the runner — against a serial replay of its sequence prefix
///     into a single CowPrTree: result points must be BITWISE equal.
///
///  2. SERIAL TRANSCRIPT: the same trace replays serially through a
///     fresh router, emitting a checkpoint line (sequence, size, shard
///     count, split/merge counters, per-query point counts + content
///     checksums) every num_ops/checkpoints operations plus a final
///     shard-map line. The balancer consumes only writer-side state,
///     so the transcript is a pure function of the config — bit
///     identical at ANY thread count and under SIMD or forced-scalar
///     execution. The storm fails (Internal) if the concurrent phase's
///     final shard map, split/merge counters, size, or sequence differ
///     from the serial phase's: concurrent readers must not perturb
///     the writer.
///
/// This file is an allowlisted raw-thread-spawn site (popan_lint): like
/// rw_storm, it needs real unpooled threads so TSan observes the exact
/// pin/rebalance interleavings the MultiSnapshot contract talks about.
struct ShardStormConfig {
  size_t num_ops = 4096;
  size_t reader_threads = 4;
  /// MultiSnapshots each reader pins, spread across writer progress.
  size_t snapshots_per_reader = 8;
  /// Queries probed per pinned snapshot and per transcript checkpoint,
  /// rotating range / partial-match / k-NN.
  size_t queries_per_snapshot = 6;
  /// Transcript checkpoints across the trace (plus the final state).
  size_t checkpoints = 16;
  double insert_fraction = 0.65;
  /// When >= 0, operations from `drain_after * num_ops` onward use this
  /// insert fraction instead: the population swells (splits fire), then
  /// drains until adjacent shards sink below the merge bound. Negative
  /// (the default) keeps the plain constant-fraction sim trace.
  double drain_insert_fraction = -1.0;
  double drain_after = 0.5;
  uint64_t seed = 1;
  spatial::PrTreeOptions tree;
  /// The balancer under test. Enable it (with thresholds calibrated to
  /// the population) to get mid-storm splits and merges.
  RebalanceConfig rebalance;
};

/// The start of the transcript's FNV-1a chains: each checkpoint's point
/// checksums, and the whole transcript's fingerprint in bench_shard. It
/// is the standard offset basis with its last decimal digit dropped, kept
/// so the gated transcript checksums never move.
inline constexpr uint64_t kTranscriptSeed = 1469598103934665603ull;

struct ShardStormResult {
  uint64_t ops_applied = 0;
  uint64_t snapshots_verified = 0;
  uint64_t splits = 0;
  uint64_t merges = 0;
  uint64_t final_size = 0;
  size_t final_shards = 0;
  /// The deterministic phase-2 transcript (see above).
  std::string transcript;
};

[[nodiscard]] StatusOr<ShardStormResult> RunShardStorm(
    const ShardStormConfig& config, sim::ExperimentRunner& runner);

}  // namespace popan::shard

#endif  // POPAN_SHARD_SHARD_STORM_H_
