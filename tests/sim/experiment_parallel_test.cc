// Determinism contract of the parallel experiment engine: for a fixed
// seed, every statistic — and the rendered table built from it — is
// byte-identical whether the ensemble ran on 1, 2, or 8 threads.

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/experiment.h"
#include "sim/table.h"

namespace popan::sim {
namespace {

ExperimentSpec ParallelSpec() {
  ExperimentSpec spec;
  spec.num_points = 300;
  // More trials than one reduce chunk (16), so the chunked accumulator
  // merge path is exercised, not just single-chunk Welford.
  spec.trials = 20;
  spec.capacity = 2;
  spec.max_depth = 16;
  spec.base_seed = 424242;
  return spec;
}

/// Formats a result the way the bench drivers do, so "byte-identical
/// table output" is tested end to end, not just field equality.
std::string RenderTable(const ExperimentResult& result) {
  TextTable table("determinism probe");
  table.SetHeader({"stat", "value"});
  table.AddRow({"mean occupancy", TextTable::Fmt(result.mean_occupancy, 17)});
  table.AddRow({"stddev", TextTable::Fmt(result.stddev_occupancy, 17)});
  table.AddRow({"mean leaves", TextTable::Fmt(result.mean_leaves, 17)});
  table.AddRow({"summary", result.occupancy_summary.ToString(12)});
  for (size_t i = 0; i < result.proportions.size(); ++i) {
    std::string label = "p";
    label += std::to_string(i);
    table.AddRow({label, TextTable::Fmt(result.proportions[i], 17)});
  }
  for (size_t i = 0; i < result.per_trial_occupancy.size(); ++i) {
    std::string label = "trial ";
    label += std::to_string(i);
    table.AddRow({label, TextTable::Fmt(result.per_trial_occupancy[i], 17)});
  }
  return table.Render();
}

void ExpectBitIdentical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.mean_occupancy, b.mean_occupancy);
  EXPECT_EQ(a.stddev_occupancy, b.stddev_occupancy);
  EXPECT_EQ(a.mean_leaves, b.mean_leaves);
  EXPECT_EQ(a.per_trial_occupancy, b.per_trial_occupancy);
  EXPECT_EQ(a.proportions, b.proportions);
  EXPECT_EQ(a.occupancy_summary.mean, b.occupancy_summary.mean);
  EXPECT_EQ(a.occupancy_summary.stddev, b.occupancy_summary.stddev);
  EXPECT_EQ(a.occupancy_summary.ci95_low, b.occupancy_summary.ci95_low);
  EXPECT_EQ(a.occupancy_summary.ci95_high, b.occupancy_summary.ci95_high);
  EXPECT_EQ(a.pooled_census.LeafCount(), b.pooled_census.LeafCount());
  EXPECT_EQ(a.pooled_census.ItemCount(), b.pooled_census.ItemCount());
  ASSERT_EQ(a.pooled_census.MaxOccupancy(), b.pooled_census.MaxOccupancy());
  ASSERT_EQ(a.pooled_census.MaxDepth(), b.pooled_census.MaxDepth());
  for (size_t occ = 0; occ <= a.pooled_census.MaxOccupancy(); ++occ) {
    for (size_t depth = 0; depth <= a.pooled_census.MaxDepth(); ++depth) {
      EXPECT_EQ(a.pooled_census.CountAt(occ, depth),
                b.pooled_census.CountAt(occ, depth))
          << "occ=" << occ << " depth=" << depth;
    }
  }
  EXPECT_EQ(RenderTable(a), RenderTable(b));
}

TEST(ExperimentParallelTest, BitIdenticalAcross1And2And8Threads) {
  ExperimentSpec spec = ParallelSpec();
  ExperimentRunner serial(1);
  ExperimentRunner two(2);
  ExperimentRunner eight(8);
  ExperimentResult r1 = RunPrQuadtreeExperiment(spec, serial);
  ExperimentResult r2 = RunPrQuadtreeExperiment(spec, two);
  ExperimentResult r8 = RunPrQuadtreeExperiment(spec, eight);
  ExpectBitIdentical(r1, r2);
  ExpectBitIdentical(r1, r8);
}

TEST(ExperimentParallelTest, RepeatedRunsOnSameRunnerAreIdentical) {
  ExperimentSpec spec = ParallelSpec();
  ExperimentRunner runner(8);
  ExperimentResult a = RunPrQuadtreeExperiment(spec, runner);
  ExperimentResult b = RunPrQuadtreeExperiment(spec, runner);
  ExpectBitIdentical(a, b);
}

TEST(ExperimentParallelTest, SweepBitIdenticalAcrossThreadCounts) {
  ExperimentSpec spec = ParallelSpec();
  spec.trials = 5;
  std::vector<size_t> schedule = {64, 128, 256, 512};
  ExperimentRunner serial(1);
  ExperimentRunner eight(8);
  core::OccupancySeries a = RunOccupancySweep(spec, schedule, serial);
  core::OccupancySeries b = RunOccupancySweep(spec, schedule, eight);
  ASSERT_EQ(a.sample_sizes, b.sample_sizes);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.average_occupancy, b.average_occupancy);
}

TEST(ExperimentParallelTest, TrialStreamsAreCounterBased) {
  // Trial t's contribution must equal a standalone run of trial t alone:
  // streams depend only on (base_seed, trial index), never on scheduling.
  ExperimentSpec spec = ParallelSpec();
  ExperimentRunner runner(8);
  ExperimentResult ensemble = RunPrQuadtreeExperiment(spec, runner);
  internal_experiment::TrialOutcome solo =
      internal_experiment::RunSingleTrial<2>(spec, 7);
  EXPECT_EQ(ensemble.per_trial_occupancy[7], solo.occupancy);
}

TEST(ExperimentParallelTest, BintreeAndOctreeParallelToo) {
  ExperimentSpec spec = ParallelSpec();
  ExperimentRunner serial(1);
  ExperimentRunner four(4);
  ExperimentResult b1 = RunPrTreeExperiment<1>(spec, serial);
  ExperimentResult b4 = RunPrTreeExperiment<1>(spec, four);
  ExpectBitIdentical(b1, b4);
  ExperimentResult o1 = RunPrTreeExperiment<3>(spec, serial);
  ExperimentResult o4 = RunPrTreeExperiment<3>(spec, four);
  ExpectBitIdentical(o1, o4);
}

TEST(ExperimentParallelTest, RunnerReportsThreadCount) {
  ExperimentRunner runner(3);
  EXPECT_EQ(runner.num_threads(), 3u);
  EXPECT_GE(ExperimentRunner(0).num_threads(), 1u);
}

TEST(ExperimentParallelTest, DefaultThreadCountHonorsEnvOverride) {
  ASSERT_EQ(setenv("POPAN_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(DefaultThreadCount(), 3u);
  ASSERT_EQ(setenv("POPAN_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(DefaultThreadCount(), 1u);  // unparsable: hardware fallback
  ASSERT_EQ(setenv("POPAN_THREADS", "0", 1), 0);
  EXPECT_GE(DefaultThreadCount(), 1u);  // zero is invalid: fallback
  ASSERT_EQ(setenv("POPAN_THREADS", "-3", 1), 0);
  EXPECT_LE(DefaultThreadCount(), 4096u);  // strtoul must not wrap the sign
  ASSERT_EQ(setenv("POPAN_THREADS", "99999999999999999999", 1), 0);
  EXPECT_LE(DefaultThreadCount(), 4096u);  // ERANGE saturation: fallback
  ASSERT_EQ(unsetenv("POPAN_THREADS"), 0);
  EXPECT_GE(DefaultThreadCount(), 1u);
}

}  // namespace
}  // namespace popan::sim
