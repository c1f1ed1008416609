// Partial-match cost exponent. Flajolet & Puech's classic result for
// point quadtrees says a partial-match query with one of two coordinates
// specified visits Theta(N^alpha) nodes, alpha = (sqrt(17) - 3) / 2
// ~ 0.5616: each node forwards the search into one child pair when the
// pivot splits the specified axis and into both pairs otherwise. This
// bench regenerates the exponent empirically — point quadtrees over an
// N sweep, mean nodes_visited per partial-match query, least-squares
// slope in log-log space — and hard-fails if it drifts from alpha.
//
// A second section checks the regular-decomposition counterpart: the PR
// quadtree's measured partial-match cost against core/query_model's
// closed-form Sum_d {T_d, L_d, items_d} 2^-d, which is exact in
// expectation for uniform query values.
//
//   POPAN_PM_MIN_POW / POPAN_PM_MAX_POW   N sweep 2^min..2^max (10..17)
//   POPAN_PM_QUERIES                      queries per N (default 512)
//   POPAN_PM_SLOPE_TOLERANCE              |slope - alpha| gate (0.06)
//   POPAN_PM_MODEL_TOLERANCE              PR-tree relative gate (0.05)
//
// Deterministic end to end; CI diffs the integer JSON fields against
// bench/results/BENCH_partial_match.json exactly.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/query_model.h"
#include "geometry/box.h"
#include "geometry/point.h"
#include "query/executor.h"
#include "query/workload.h"
#include "sim/bench_json.h"
#include "sim/experiment.h"
#include "sim/table.h"
#include "spatial/census.h"
#include "spatial/point_quadtree.h"
#include "spatial/pr_tree.h"
#include "util/random.h"

namespace {

using popan::Pcg32;
using popan::core::QueryCostModel;
using popan::core::QueryCostPrediction;
using popan::geo::Box2;
using popan::geo::Point2;
using popan::query::BatchOutcome;
using popan::query::MakePartialMatchWorkload;
using popan::query::QuerySpec;
using popan::query::RunQueryBatch;
using popan::sim::BenchJson;
using popan::sim::ExperimentRunner;
using popan::sim::TextTable;
using popan::spatial::PointQuadtree;
using popan::spatial::PrQuadtree;
using popan::spatial::PrTreeOptions;
using popan::spatial::TakeCensus;

constexpr double kAlpha = 0.56155281280883027;  // (sqrt(17) - 3) / 2

size_t EnvOr(const char* name, size_t fallback) {
  if (const char* env = std::getenv(name)) {
    char* end = nullptr;
    unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 1) {
      return static_cast<size_t>(parsed);
    }
  }
  return fallback;
}

double EnvOrDouble(const char* name, double fallback) {
  if (const char* env = std::getenv(name)) {
    char* end = nullptr;
    double parsed = std::strtod(env, &end);
    if (end != env && *end == '\0' && parsed > 0.0) return parsed;
  }
  return fallback;
}

// Least-squares slope of y over x.
double Slope(const std::vector<double>& x, const std::vector<double>& y) {
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  const double n = static_cast<double>(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

}  // namespace

int main() {
  const size_t kMinPow = EnvOr("POPAN_PM_MIN_POW", 10);
  const size_t kMaxPow = EnvOr("POPAN_PM_MAX_POW", 17);
  const size_t kQueries = EnvOr("POPAN_PM_QUERIES", 512);
  const double kSlopeTol = EnvOrDouble("POPAN_PM_SLOPE_TOLERANCE", 0.06);
  const double kModelTol = EnvOrDouble("POPAN_PM_MODEL_TOLERANCE", 0.05);
  const uint64_t kSeed = 1987;

  std::printf("Partial-match exponent: point quadtrees, N = 2^%zu .. 2^%zu, "
              "%zu queries per N\n"
              "theory: alpha = (sqrt(17) - 3)/2 = %.5f\n\n",
              kMinPow, kMaxPow, kQueries, kAlpha);

  ExperimentRunner runner(popan::sim::DefaultThreadCount());
  BenchJson json("partial_match");
  json.Add("queries_per_n", static_cast<uint64_t>(kQueries))
      .Add("min_pow", static_cast<uint64_t>(kMinPow))
      .Add("max_pow", static_cast<uint64_t>(kMaxPow));

  TextTable table("Point-quadtree partial match (axis 0)");
  table.SetHeader({"N", "mean nodes", "log2 N", "log2 nodes"});
  std::vector<double> log_n;
  std::vector<double> log_nodes;
  std::vector<std::string> gate_fields;
  uint64_t checksum_all = popan::query::kChecksumSeed;
  for (size_t pow = kMinPow; pow <= kMaxPow; ++pow) {
    const size_t n = size_t{1} << pow;
    PointQuadtree tree;
    Pcg32 rng(kSeed + pow);
    for (size_t i = 0; i < n; ++i) {
      (void)tree.Insert(Point2(rng.NextDouble(), rng.NextDouble()));
    }
    std::vector<QuerySpec> specs = MakePartialMatchWorkload(
        Box2::UnitCube(), /*axis=*/0, kQueries, kSeed + 301 + pow);
    BatchOutcome outcome = RunQueryBatch(tree, specs, runner);
    const double mean =
        static_cast<double>(outcome.total_cost.nodes_visited) /
        static_cast<double>(kQueries);
    log_n.push_back(static_cast<double>(pow));
    log_nodes.push_back(std::log2(mean));
    table.AddRow({TextTable::Fmt(n), TextTable::Fmt(mean, 1),
                  TextTable::Fmt(static_cast<double>(pow), 0),
                  TextTable::Fmt(std::log2(mean), 3)});
    std::string tag = "p";
    tag += std::to_string(pow);
    json.Add("nodes_" + tag, outcome.total_cost.nodes_visited)
        .Add("items_" + tag, outcome.total_items);
    gate_fields.push_back("nodes_" + tag);
    gate_fields.push_back("items_" + tag);
    checksum_all ^= outcome.checksum + 0x9e3779b97f4a7c15ULL * pow;
  }
  const double slope = Slope(log_n, log_nodes);
  std::printf("%s\nfitted exponent: %.4f  (theory %.4f, gate +/- %.3f)\n\n",
              table.Render().c_str(), slope, kAlpha, kSlopeTol);

  // PR quadtree: measured partial-match cost vs the census model.
  const size_t kPrPoints = size_t{1} << kMaxPow;
  PrTreeOptions options;
  options.capacity = 4;
  options.max_depth = 32;
  PrQuadtree pr_tree(Box2::UnitCube(), options);
  pr_tree.ReserveForPoints(kPrPoints);
  {
    Pcg32 rng(kSeed + 7);
    for (size_t i = 0; i < kPrPoints; ++i) {
      (void)pr_tree.Insert(Point2(rng.NextDouble(), rng.NextDouble()));
    }
  }
  QueryCostModel model =
      QueryCostModel::FromCensus(TakeCensus(pr_tree), Box2::UnitCube());
  std::vector<QuerySpec> pr_specs = MakePartialMatchWorkload(
      Box2::UnitCube(), /*axis=*/1, kQueries * 4, kSeed + 901);
  BatchOutcome pr_outcome = RunQueryBatch(pr_tree, pr_specs, runner);
  QueryCostPrediction pred = model.PredictPartialMatch();
  const double inv = 1.0 / static_cast<double>(pr_specs.size());
  const double pr_nodes =
      static_cast<double>(pr_outcome.total_cost.nodes_visited) * inv;
  const double pr_points =
      static_cast<double>(pr_outcome.total_cost.points_scanned) * inv;
  const double err_nodes = std::fabs(pr_nodes - pred.nodes) / pred.nodes;
  const double err_points = std::fabs(pr_points - pred.points) / pred.points;
  std::printf("PR quadtree (N=%zu): nodes %.2f vs predicted %.2f "
              "(err %.2f%%), points %.2f vs %.2f (err %.2f%%)\n",
              kPrPoints, pr_nodes, pred.nodes, err_nodes * 100.0, pr_points,
              pred.points, err_points * 100.0);

  json.Add("slope", slope)
      .Add("pr_nodes_total", pr_outcome.total_cost.nodes_visited)
      .Add("pr_points_total", pr_outcome.total_cost.points_scanned)
      .Add("checksum", checksum_all);
  gate_fields.push_back("pr_nodes_total");
  gate_fields.push_back("pr_points_total");
  gate_fields.push_back("checksum");
  json.WriteFile();

  popan::Status gate = GateAgainstReference(json, gate_fields);
  if (!gate.ok()) {
    std::fprintf(stderr, "reference gate FAILED: %s\n",
                 gate.message().c_str());
    return 1;
  }
  if (std::fabs(slope - kAlpha) > kSlopeTol) {
    std::fprintf(stderr,
                 "exponent gate FAILED: |%.4f - %.4f| > %.3f\n", slope,
                 kAlpha, kSlopeTol);
    return 1;
  }
  if (err_nodes > kModelTol || err_points > kModelTol) {
    std::fprintf(stderr, "PR model gate FAILED: errors %.3f%% / %.3f%%\n",
                 err_nodes * 100.0, err_points * 100.0);
    return 1;
  }
  return 0;
}
