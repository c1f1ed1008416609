#ifndef POPAN_SIM_EXPERIMENT_H_
#define POPAN_SIM_EXPERIMENT_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/phasing.h"
#include "geometry/box.h"
#include "numerics/vector.h"
#include "sim/distributions.h"
#include "sim/stats.h"
#include "sim/thread_pool.h"
#include "spatial/census.h"
#include "spatial/pr_tree.h"
#include "util/check.h"
#include "util/random.h"

namespace popan::sim {

/// Specification of one ensemble experiment in the paper's style: build
/// `trials` independent PR trees of `num_points` points each and average
/// their censuses ("Experimental data was collected by constructing ten
/// quadtrees of 1000 random points for each case and averaging").
struct ExperimentSpec {
  size_t num_points = 1000;
  size_t trials = 10;
  size_t capacity = 1;
  /// The paper's implementation truncated trees at depth 9 (Table 3's
  /// anomaly); keep that default so the reproduction shows the same
  /// artifact, raise it for untruncated runs.
  size_t max_depth = 9;
  PointDistributionKind distribution = PointDistributionKind::kUniform;
  PointDistributionParams distribution_params;
  uint64_t base_seed = 1987;  // SIGMOD '87
};

/// The averaged outcome of an ensemble.
struct ExperimentResult {
  /// All trials' leaves pooled into one census (per-trial means are the
  /// pooled counts divided by `trials`).
  spatial::Census pooled_census;
  size_t trials = 0;

  /// The empirical expected-distribution estimate: pooled proportions,
  /// sized at least capacity+1 (Table 1's "exp" rows).
  num::Vector proportions;

  /// Per-trial average occupancy (indexed by trial), its ensemble mean,
  /// and the sample standard deviation across trials (the paper reports
  /// trial scatter of roughly 10%).
  std::vector<double> per_trial_occupancy;
  double mean_occupancy = 0.0;
  double stddev_occupancy = 0.0;

  /// Mean leaves per trial (Table 4/5's "nodes" column).
  double mean_leaves = 0.0;

  /// Mean bytes the trials' node pools hold (PrTree::NodeBytes): nodes
  /// per point times the slot size, per point once divided by N.
  double mean_node_bytes = 0.0;

  /// Full summary (CI etc.) of the per-trial occupancies.
  SampleSummary occupancy_summary;
};

/// The number of threads experiments use when the caller does not choose:
/// the POPAN_THREADS environment variable if it parses as a positive
/// integer, otherwise std::thread::hardware_concurrency() (at least 1).
size_t DefaultThreadCount();

/// Schedules independent trials over a thread pool. Results are
/// bit-identical for every thread count: trial t always draws from the
/// counter-based stream DeriveSeed(base_seed, t), each trial writes into
/// its own slot, and reductions walk the slots in trial order — the
/// schedule never touches the arithmetic.
///
/// `ExperimentRunner runner;` picks DefaultThreadCount() threads;
/// `ExperimentRunner runner(1);` is fully serial (no worker threads at
/// all). The calling thread always participates, so `num_threads` worker
/// threads means `num_threads - 1` spawned workers.
class ExperimentRunner {
 public:
  explicit ExperimentRunner(size_t num_threads = 0)
      : num_threads_(num_threads == 0 ? DefaultThreadCount() : num_threads),
        pool_(num_threads_ - 1) {}

  size_t num_threads() const { return num_threads_; }

  /// Runs fn(i) for every i in [0, n) across the pool. `fn` must be safe
  /// to call concurrently for distinct indices.
  void ForEachIndex(size_t n, const std::function<void(size_t)>& fn,
                    size_t grain = 1) {
    pool_.ParallelFor(n, fn, grain);
  }

  /// Runs make(i) for every i in [0, n) in parallel and returns the
  /// results in index order — the deterministic fan-out/fan-in primitive
  /// every experiment below is built from. T must be default-constructible
  /// and move-assignable.
  template <typename T, typename Fn>
  std::vector<T> Map(size_t n, Fn&& make, size_t grain = 1) {
    std::vector<T> out(n);
    pool_.ParallelFor(
        n, [&](size_t i) { out[i] = make(i); }, grain);
    return out;
  }

 private:
  size_t num_threads_;
  ThreadPool pool_;
};

namespace internal_experiment {

/// What one trial contributes to the ensemble.
struct TrialOutcome {
  spatial::Census census;
  double occupancy = 0.0;
  double leaves = 0.0;
  double node_bytes = 0.0;
};

/// Builds one tree from the trial's own RNG stream and takes its census.
/// Pure function of (spec, trial): safe to run on any thread in any order.
template <size_t D>
TrialOutcome RunSingleTrial(const ExperimentSpec& spec, size_t trial) {
  geo::Box<D> bounds = geo::Box<D>::UnitCube();
  Pcg32 rng = RngStreamFamily(spec.base_seed).MakeStream(trial);
  spatial::PrTreeOptions options;
  options.capacity = spec.capacity;
  options.max_depth = spec.max_depth;
  spatial::PrTree<D> tree(bounds, options);
  tree.ReserveForPoints(spec.num_points);
  size_t inserted = 0;
  while (inserted < spec.num_points) {
    geo::Point<D> p = DrawPoint(spec.distribution, spec.distribution_params,
                                bounds, rng, spec.base_seed);
    Status s = tree.Insert(p);
    if (s.code() == StatusCode::kAlreadyExists) continue;  // resample
    POPAN_CHECK(s.ok()) << s.ToString();
    ++inserted;
  }
  TrialOutcome outcome;
  // The live census is maintained O(1) per operation; snapshotting it
  // avoids the full-tree walk per trial. CheckInvariants (tests) verifies
  // it never drifts from TakeCensus.
  outcome.census = tree.LiveCensus();
  outcome.occupancy = outcome.census.AverageOccupancy();
  outcome.leaves = static_cast<double>(outcome.census.LeafCount());
  outcome.node_bytes = static_cast<double>(tree.NodeBytes());
  return outcome;
}

/// Per-chunk mergeable accumulator for the reduction phase. Chunks are
/// fixed runs of kReduceChunk consecutive trials, so the chunking (and
/// therefore every floating-point operation in the reduction) is the same
/// for any thread count.
struct ChunkAccumulator {
  RunningMoments occupancy;
  RunningMoments leaves;
  RunningMoments node_bytes;
  spatial::Census census;

  void Merge(const ChunkAccumulator& other) {
    occupancy.Merge(other.occupancy);
    leaves.Merge(other.leaves);
    node_bytes.Merge(other.node_bytes);
    census.Merge(other.census);
  }
};

inline constexpr size_t kReduceChunk = 16;

/// Reduces per-trial outcomes into the ExperimentResult: parallel
/// per-chunk accumulation (Welford), then a serial merge in chunk order
/// (Chan; histogram merge for the censuses).
ExperimentResult ReduceOutcomes(const ExperimentSpec& spec,
                                const std::vector<TrialOutcome>& outcomes,
                                ExperimentRunner& runner);

}  // namespace internal_experiment

/// Runs the ensemble for a PR tree of dimension D over the unit cube on
/// `runner`'s threads. Deterministic in spec.base_seed; trial t uses the
/// counter-based stream DeriveSeed(base_seed, t), and the result is
/// bit-identical for every thread count.
template <size_t D>
ExperimentResult RunPrTreeExperiment(const ExperimentSpec& spec,
                                     ExperimentRunner& runner) {
  POPAN_CHECK(spec.trials >= 1);
  using internal_experiment::RunSingleTrial;
  using internal_experiment::TrialOutcome;
  std::vector<TrialOutcome> outcomes = runner.Map<TrialOutcome>(
      spec.trials, [&](size_t trial) { return RunSingleTrial<D>(spec, trial); });
  return internal_experiment::ReduceOutcomes(spec, outcomes, runner);
}

/// Convenience overload with a private default-width runner.
template <size_t D>
ExperimentResult RunPrTreeExperiment(const ExperimentSpec& spec) {
  ExperimentRunner runner;
  return RunPrTreeExperiment<D>(spec, runner);
}

/// 2-D convenience wrappers (the paper's experiments).
ExperimentResult RunPrQuadtreeExperiment(const ExperimentSpec& spec,
                                         ExperimentRunner& runner);
ExperimentResult RunPrQuadtreeExperiment(const ExperimentSpec& spec);

/// Runs the Table-4/5 sweep: for every N in `schedule`, an ensemble of
/// `spec.trials` trees of N points; returns the occupancy-versus-size
/// series (spec.num_points is ignored). Each tree is built fresh per N
/// exactly as the paper did, rather than grown incrementally, so trials
/// are independent across sample sizes — the whole schedule-by-trial grid
/// fans out over the runner at once.
core::OccupancySeries RunOccupancySweep(const ExperimentSpec& spec,
                                        const std::vector<size_t>& schedule,
                                        ExperimentRunner& runner);
core::OccupancySeries RunOccupancySweep(const ExperimentSpec& spec,
                                        const std::vector<size_t>& schedule);

}  // namespace popan::sim

#endif  // POPAN_SIM_EXPERIMENT_H_
