// Morton-range sharding under Zipf-skewed load: the shard subsystem's
// bench. Three sections:
//
//  1. Census-predicted balancing on skewed data (gated): a Zipf-weighted
//     cluster workload loads one router with the balancer live. The
//     resulting shard map (count, splits, per-shard sizes) is a pure
//     function of the trace, so CI diffs the counters exactly against
//     bench/results/BENCH_shard.json. The balancing claim itself is
//     enforced in-binary: max/mean census-predicted per-shard cost must
//     stay under the configured bound, else exit 1.
//  2. Fan-out query throughput (timed): the mixed range/partial/k-NN
//     workload executes against one pinned MultiSnapshot; the combined
//     result checksum is deterministic and gated, the throughput rides
//     along ungated.
//  3. Swell/drain churn storm (gated): RunShardStorm with mid-storm
//     splits AND merges; counters and the serial transcript checksum are
//     gated, ops/s reported ungated.
//
//   POPAN_SHARD_POINTS           Zipf points loaded       (default 40000)
//   POPAN_SHARD_QUERIES          fan-out queries          (default 2000)
//   POPAN_SHARD_STORM_OPS        churn storm trace length (default 8192)
//   POPAN_SHARD_IMBALANCE_BOUND  max/mean cost bound x100 (default 400)

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"
#include "query/query.h"
#include "query/workload.h"
#include "shard/router.h"
#include "shard/shard_storm.h"
#include "sim/bench_json.h"
#include "sim/experiment.h"
#include "sim/table.h"
#include "util/random.h"
#include "util/text_io.h"

namespace {

using popan::Pcg32;
using popan::geo::Box2;
using popan::geo::Point2;
using popan::query::ChecksumResult;
using popan::query::MakeMixedWorkload;
using popan::query::QueryResult;
using popan::query::QuerySpec;
using popan::shard::MultiSnapshot;
using popan::shard::RebalanceConfig;
using popan::shard::RouterOptions;
using popan::shard::ShardInfo;
using popan::shard::ShardRouter;
using popan::shard::ShardStormConfig;
using popan::shard::ShardStormResult;
using popan::sim::BenchJson;
using popan::sim::ExperimentRunner;
using popan::sim::TextTable;
using popan::sim::WallTimer;

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

/// Zipf-weighted cluster sampler: cluster k of `centers` is drawn with
/// probability proportional to 1/(k+1)^s, and the point lands uniformly
/// in a small square around the chosen center. Low-rank clusters are
/// orders of magnitude hotter — the skew the census balancer must chase.
class ZipfClusters {
 public:
  ZipfClusters(size_t clusters, double exponent, uint64_t seed)
      : rng_(popan::DeriveSeed(seed, 0xC1)) {
    Pcg32 placer(popan::DeriveSeed(seed, 0xC0));
    double total = 0.0;
    for (size_t k = 0; k < clusters; ++k) {
      centers_.emplace_back(placer.NextDouble(0.05, 0.95),
                            placer.NextDouble(0.05, 0.95));
      total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
      cumulative_.push_back(total);
    }
  }

  Point2 Next() {
    double u = rng_.NextDouble() * cumulative_.back();
    size_t k = 0;
    while (k + 1 < cumulative_.size() && cumulative_[k] <= u) ++k;
    const Point2& c = centers_[k];
    auto jitter = [&](double x) {
      return std::min(1.0, std::max(0.0, x + rng_.NextDouble(-0.04, 0.04)));
    };
    return Point2(jitter(c.x()), jitter(c.y()));
  }

 private:
  Pcg32 rng_;
  std::vector<Point2> centers_;
  std::vector<double> cumulative_;
};

}  // namespace

int main() {
  const size_t kPoints = EnvOr("POPAN_SHARD_POINTS", 40000);
  const size_t kQueries = EnvOr("POPAN_SHARD_QUERIES", 2000);
  const size_t kStormOps = EnvOr("POPAN_SHARD_STORM_OPS", 8192);
  // The acceptance bound on max/mean predicted cost, in hundredths so
  // the knob stays an integer env var.
  const double kImbalanceBound =
      static_cast<double>(EnvOr("POPAN_SHARD_IMBALANCE_BOUND", 400)) / 100.0;
  const uint64_t kSeed = 1987;

  std::printf("Shard bench: %zu Zipf points, %zu fan-out queries, "
              "%zu storm ops, imbalance bound %.2f\n\n",
              kPoints, kQueries, kStormOps, kImbalanceBound);

  BenchJson json("shard");
  json.Add("points", static_cast<uint64_t>(kPoints))
      .Add("queries", static_cast<uint64_t>(kQueries))
      .Add("storm_ops", static_cast<uint64_t>(kStormOps));
  std::vector<std::string> gate_fields;

  // ---- Section 1: census-predicted balancing on Zipf-skewed load. ------
  RouterOptions options;
  options.tree.capacity = 8;
  options.tree.max_depth = 32;
  options.rebalance.enabled = true;
  options.rebalance.min_split_points = 512;
  options.rebalance.split_cost = 12.0;
  options.rebalance.merge_cost = 3.0;
  options.rebalance.check_interval = 128;
  options.rebalance.max_shards = 32;
  ShardRouter router(Box2::UnitCube(), options);

  ZipfClusters zipf(64, 1.1, kSeed);
  WallTimer load_timer;
  uint64_t inserted = 0;
  uint64_t duplicates = 0;
  for (size_t i = 0; i < kPoints; ++i) {
    popan::Status applied = router.Insert(zipf.Next());
    if (applied.ok()) {
      ++inserted;
    } else {
      ++duplicates;  // Zipf clusters can re-draw an exact point
    }
  }
  double load_seconds = load_timer.Seconds();

  std::vector<ShardInfo> shards = router.Shards();
  double max_cost = 0.0;
  double total_cost = 0.0;
  TextTable shard_table("Shard map after Zipf load (census-predicted)");
  shard_table.SetHeader({"range", "points", "predicted cost"});
  for (const ShardInfo& info : shards) {
    max_cost = std::max(max_cost, info.predicted_cost);
    total_cost += info.predicted_cost;
    shard_table.AddRow({info.range.ToString(), std::to_string(info.size),
                        TextTable::Fmt(info.predicted_cost, 2)});
  }
  double mean_cost = total_cost / static_cast<double>(shards.size());
  double imbalance = mean_cost > 0.0 ? max_cost / mean_cost : 1.0;
  std::printf("%s\n", shard_table.Render().c_str());
  std::printf("loaded %llu points in %.3fs (%.0f inserts/s), %zu shards, "
              "%llu splits, max/mean predicted cost %.2f\n\n",
              static_cast<unsigned long long>(inserted), load_seconds,
              static_cast<double>(inserted) / load_seconds,
              shards.size(), static_cast<unsigned long long>(router.splits()),
              imbalance);

  json.Add("inserted", inserted)
      .Add("duplicates", duplicates)
      .Add("final_shards", static_cast<uint64_t>(shards.size()))
      .Add("load_splits", router.splits())
      .Add("load_merges", router.merges())
      .Add("load_sequence", router.sequence())
      .Add("load_seconds", load_seconds)
      .Add("inserts_per_sec",
           static_cast<double>(inserted) / load_seconds)
      .Add("max_predicted_cost", max_cost)
      .Add("mean_predicted_cost", mean_cost)
      .Add("cost_imbalance", imbalance);
  gate_fields.insert(gate_fields.end(),
                     {"inserted", "duplicates", "final_shards",
                      "load_splits", "load_merges", "load_sequence"});

  if (imbalance > kImbalanceBound) {
    std::fprintf(stderr,
                 "imbalance gate FAILED: max/mean predicted cost %.2f "
                 "exceeds bound %.2f\n",
                 imbalance, kImbalanceBound);
    return 1;
  }

  // ---- Section 2: fan-out query throughput on one pinned snapshot. -----
  {
    MultiSnapshot snapshot = router.Snapshot();
    std::vector<QuerySpec> workload = MakeMixedWorkload(
        Box2::UnitCube(), kQueries, 8, popan::DeriveSeed(kSeed, 0xF0));
    WallTimer timer;
    uint64_t checksum = popan::query::kChecksumSeed;
    uint64_t results = 0;
    for (const QuerySpec& spec : workload) {
      QueryResult result = Execute(snapshot, spec);
      results += result.points.size();
      checksum = ChecksumResult(checksum, result);
    }
    double seconds = timer.Seconds();
    std::printf("fan-out: %zu mixed queries over %zu shards in %.3fs "
                "(%.0f queries/s, %llu result points)\n\n",
                workload.size(), snapshot.entries().size(), seconds,
                static_cast<double>(workload.size()) / seconds,
                static_cast<unsigned long long>(results));
    json.Add("query_checksum", checksum)
        .Add("query_result_points", results)
        .Add("query_seconds", seconds)
        .Add("queries_per_sec",
             static_cast<double>(workload.size()) / seconds);
    gate_fields.insert(gate_fields.end(),
                       {"query_checksum", "query_result_points"});
  }

  // ---- Section 3: swell/drain churn storm with splits AND merges. ------
  {
    ExperimentRunner runner;
    ShardStormConfig config;
    config.num_ops = kStormOps;
    config.reader_threads = 4;
    config.snapshots_per_reader = 4;
    config.queries_per_snapshot = 3;
    config.checkpoints = 16;
    config.insert_fraction = 0.9;
    config.drain_insert_fraction = 0.05;
    config.drain_after = 0.5;
    config.seed = kSeed;
    config.tree.capacity = 4;
    config.tree.max_depth = 32;
    config.rebalance.enabled = true;
    config.rebalance.min_split_points = 64;
    config.rebalance.split_cost = 4.0;
    config.rebalance.merge_cost = 2.5;
    config.rebalance.check_interval = 32;
    config.rebalance.max_shards = 16;
    WallTimer timer;
    popan::StatusOr<ShardStormResult> storm = RunShardStorm(config, runner);
    if (!storm.ok()) {
      std::fprintf(stderr, "storm FAILED: %s\n",
                   storm.status().ToString().c_str());
      return 1;
    }
    double seconds = timer.Seconds();
    std::printf("churn storm: %llu ops, %llu splits, %llu merges, final "
                "%zu shards / %llu points (%.0f ops/s)\n",
                static_cast<unsigned long long>(storm->ops_applied),
                static_cast<unsigned long long>(storm->splits),
                static_cast<unsigned long long>(storm->merges),
                storm->final_shards,
                static_cast<unsigned long long>(storm->final_size),
                static_cast<double>(storm->ops_applied) / seconds);
    json.Add("storm_splits", storm->splits)
        .Add("storm_merges", storm->merges)
        .Add("storm_final_size", storm->final_size)
        .Add("storm_final_shards",
             static_cast<uint64_t>(storm->final_shards))
        .Add("storm_transcript_checksum",
             popan::Fnv1a(storm->transcript.data(), storm->transcript.size(),
                          popan::shard::kTranscriptSeed))
        .Add("storm_seconds", seconds)
        .Add("storm_ops_per_sec",
             static_cast<double>(storm->ops_applied) / seconds);
    gate_fields.insert(gate_fields.end(),
                       {"storm_splits", "storm_merges", "storm_final_size",
                        "storm_final_shards", "storm_transcript_checksum"});
  }

  json.WriteFile();
  popan::Status gate = GateAgainstReference(json, gate_fields);
  if (!gate.ok()) {
    std::fprintf(stderr, "reference gate FAILED: %s\n",
                 gate.message().c_str());
    return 1;
  }
  return 0;
}
