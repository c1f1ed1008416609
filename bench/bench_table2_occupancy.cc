// Reproduces the paper's Table 2: average node occupancy, experimental vs
// theoretical, with the percent difference column whose uniform sign is
// the paper's evidence for aging and whose cyclic magnitude is its
// evidence for phasing. The last two columns restate occupancy as memory:
// a 4-ary tree with L = N / occupancy leaves has (L - 1) / 3 internal
// nodes, so bytes per point = (4/3) / occupancy x the slot size, predicted
// from the theoretical occupancy and measured as NodeBytes() / N.

#include <cstdio>
#include <string>

#include "core/occupancy.h"
#include "core/steady_state.h"
#include "sim/experiment.h"
#include "sim/bench_json.h"
#include "sim/table.h"
#include "spatial/pr_tree.h"

int main() {
  popan::sim::WallTimer bench_timer;
  using popan::core::PercentDifference;
  using popan::core::PopulationModel;
  using popan::core::SolveSteadyState;
  using popan::core::TreeModelParams;
  using popan::sim::ExperimentRunner;
  using popan::sim::ExperimentSpec;
  using popan::sim::TextTable;

  ExperimentRunner runner;
  std::printf("Artifact: Table 2 - average node occupancy\n");
  std::printf("Workload: 10 trees x 1000 uniform points per capacity "
              "(%zu threads; override with POPAN_THREADS)\n\n",
              runner.num_threads());

  TextTable table("Table 2: Average Node Occupancy");
  table.SetHeader({"node capacity", "experimental", "theoretical",
                   "percent difference", "trial stddev",
                   "bytes/point predicted", "bytes/point measured"});
  popan::sim::BenchJson bench_json("table2_occupancy");
  for (size_t m = 1; m <= 8; ++m) {
    PopulationModel model(TreeModelParams{m, 4});
    popan::StatusOr<popan::core::SteadyState> theory =
        SolveSteadyState(model);
    if (!theory.ok()) {
      std::fprintf(stderr, "solver failed for m=%zu\n", m);
      return 1;
    }
    ExperimentSpec spec;
    spec.capacity = m;
    spec.num_points = 1000;
    spec.trials = 10;
    spec.max_depth = 16;
    spec.base_seed = 1987;
    popan::sim::ExperimentResult experiment =
        popan::sim::RunPrQuadtreeExperiment(spec, runner);
    const double slot_bytes = static_cast<double>(
        popan::spatial::PrNode<2, popan::spatial::NodeIndex>::SlotBytes(m));
    const double predicted_bytes =
        4.0 / 3.0 / theory->average_occupancy * slot_bytes;
    const double measured_bytes =
        experiment.mean_node_bytes / static_cast<double>(spec.num_points);
    std::string predicted_key = "bytes_per_point_predicted_m";
    predicted_key += std::to_string(m);
    std::string measured_key = "bytes_per_point_measured_m";
    measured_key += std::to_string(m);
    bench_json.Add(predicted_key, predicted_bytes)
        .Add(measured_key, measured_bytes);
    table.AddRow({TextTable::Fmt(m),
                  TextTable::Fmt(experiment.mean_occupancy, 2),
                  TextTable::Fmt(theory->average_occupancy, 2),
                  TextTable::Fmt(PercentDifference(theory->average_occupancy,
                                                   experiment.mean_occupancy),
                                 1),
                  TextTable::Fmt(experiment.stddev_occupancy, 3),
                  TextTable::Fmt(predicted_bytes, 1),
                  TextTable::Fmt(measured_bytes, 1)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("Paper's rows (exp/thy/%%): 0.46/0.50/7.2  0.92/1.03/10.8  "
              "1.36/1.56/12.9  1.85/2.10/11.6\n"
              "                           2.44/2.63/7.4  3.03/3.17/4.4   "
              "3.44/3.72/7.5   3.79/4.25/10.8\n");
  std::printf("Expected shape: theory uniformly above experiment (aging); "
              "gap cycles with m (phasing).\n"
              "Bytes per point: measured above predicted by the same "
              "aging gap (fewer points per leaf, more nodes per point).\n");
  bench_json.Add("wall_seconds", bench_timer.Seconds());
  bench_json.WriteFile();
  return 0;
}
