#include "sim/experiment.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <thread>

namespace popan::sim {

size_t DefaultThreadCount() {
  if (const char* env = std::getenv("POPAN_THREADS")) {
    // strtoul silently wraps negative input ("-3" becomes ~2^64), so any
    // sign character makes the value invalid, as does anything beyond a
    // generous upper bound (also catches ERANGE saturation to ULONG_MAX).
    constexpr unsigned long kMaxThreads = 4096;
    char* end = nullptr;
    unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 1 && parsed <= kMaxThreads &&
        env[std::strspn(env, " \t")] != '-' &&
        env[std::strspn(env, " \t")] != '+') {
      return static_cast<size_t>(parsed);
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

namespace internal_experiment {

ExperimentResult ReduceOutcomes(const ExperimentSpec& spec,
                                const std::vector<TrialOutcome>& outcomes,
                                ExperimentRunner& runner) {
  ExperimentResult result;
  result.trials = outcomes.size();
  result.per_trial_occupancy.reserve(outcomes.size());
  for (const TrialOutcome& outcome : outcomes) {
    result.per_trial_occupancy.push_back(outcome.occupancy);
  }

  // Chunk boundaries depend only on the trial index, so the accumulate
  // phase (parallel) and the merge phase (serial, chunk order) perform the
  // same floating-point operations for every thread count.
  size_t num_chunks = (outcomes.size() + kReduceChunk - 1) / kReduceChunk;
  std::vector<ChunkAccumulator> chunks = runner.Map<ChunkAccumulator>(
      num_chunks, [&](size_t chunk) {
        ChunkAccumulator acc;
        size_t begin = chunk * kReduceChunk;
        size_t end = std::min(outcomes.size(), begin + kReduceChunk);
        for (size_t t = begin; t < end; ++t) {
          acc.occupancy.Add(outcomes[t].occupancy);
          acc.leaves.Add(outcomes[t].leaves);
          acc.node_bytes.Add(outcomes[t].node_bytes);
          acc.census.Merge(outcomes[t].census);
        }
        return acc;
      });
  ChunkAccumulator total;
  for (const ChunkAccumulator& chunk : chunks) total.Merge(chunk);

  result.pooled_census = total.census;
  result.mean_occupancy = total.occupancy.mean();
  result.stddev_occupancy = total.occupancy.SampleStddev();
  result.mean_leaves = total.leaves.mean();
  result.mean_node_bytes = total.node_bytes.mean();
  result.occupancy_summary = total.occupancy.ToSummary();
  result.proportions = result.pooled_census.Proportions(spec.capacity + 1);
  return result;
}

}  // namespace internal_experiment

ExperimentResult RunPrQuadtreeExperiment(const ExperimentSpec& spec,
                                         ExperimentRunner& runner) {
  return RunPrTreeExperiment<2>(spec, runner);
}

ExperimentResult RunPrQuadtreeExperiment(const ExperimentSpec& spec) {
  ExperimentRunner runner;
  return RunPrQuadtreeExperiment(spec, runner);
}

core::OccupancySeries RunOccupancySweep(const ExperimentSpec& spec,
                                        const std::vector<size_t>& schedule,
                                        ExperimentRunner& runner) {
  POPAN_CHECK(spec.trials >= 1);
  using internal_experiment::ReduceOutcomes;
  using internal_experiment::RunSingleTrial;
  using internal_experiment::TrialOutcome;

  // Different N get different seed families so trees are independent.
  std::vector<ExperimentSpec> point_specs;
  point_specs.reserve(schedule.size());
  for (size_t n : schedule) {
    ExperimentSpec point_spec = spec;
    point_spec.num_points = n;
    point_spec.base_seed = DeriveSeed(spec.base_seed, n);
    point_specs.push_back(point_spec);
  }

  // Fan the whole schedule-by-trial grid out at once: with T trials per
  // sample size the per-N loop alone would cap the speedup at T-way.
  size_t trials = spec.trials;
  std::vector<TrialOutcome> outcomes = runner.Map<TrialOutcome>(
      schedule.size() * trials, [&](size_t job) {
        return RunSingleTrial<2>(point_specs[job / trials], job % trials);
      });

  core::OccupancySeries series;
  for (size_t i = 0; i < schedule.size(); ++i) {
    std::vector<TrialOutcome> slice(
        std::make_move_iterator(outcomes.begin() + i * trials),
        std::make_move_iterator(outcomes.begin() + (i + 1) * trials));
    ExperimentResult result = ReduceOutcomes(point_specs[i], slice, runner);
    series.sample_sizes.push_back(schedule[i]);
    series.nodes.push_back(result.mean_leaves);
    series.average_occupancy.push_back(result.mean_occupancy);
  }
  return series;
}

core::OccupancySeries RunOccupancySweep(const ExperimentSpec& spec,
                                        const std::vector<size_t>& schedule) {
  ExperimentRunner runner;
  return RunOccupancySweep(spec, schedule, runner);
}

}  // namespace popan::sim
