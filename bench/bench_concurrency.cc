// Concurrent snapshot reads under writer churn: the epoch/COW layer's
// bench. Two phases:
//
//  1. Deterministic storm accounting (gated): a writer-only replay of the
//     seeded storm trace through the epoch machinery. Operations applied,
//     epochs retired, nodes retired/reclaimed, and the final tree shape
//     are pure functions of the trace, so CI diffs them exactly against
//     bench/results/BENCH_concurrency.json.
//  2. Reader scaling at 1/2/8/16 threads (timed): each reader pins ONE
//     snapshot, then executes a mixed query workload against it while the
//     writer replays churn at full speed. Per-reader result checksums are
//     deterministic (the pinned version is a function of the op count, the
//     workloads are counter-based) and gated; the throughput numbers are
//     reported ungated.
//  3. Write runs (recorded, ungated): uniform inserts into a 2^18-point
//     tree in runs of b = 1, 8, 32, 64. Nodes replaced per write, against
//     the expected union of b random root-to-leaf paths, and Versions
//     published per write.
//
//   POPAN_CONCURRENCY_POINTS   initial tree size        (default 20000)
//   POPAN_CONCURRENCY_OPS      churn ops per phase      (default 20000)
//   POPAN_CONCURRENCY_QUERIES  queries per reader       (default 400)
//   POPAN_READER_THREADS       run ONLY this count      (default 1,2,8,16)

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"
#include "query/query.h"
#include "query/workload.h"
#include "sim/bench_json.h"
#include "sim/experiment.h"
#include "sim/rw_storm.h"
#include "sim/table.h"
#include "spatial/census.h"
#include "spatial/snapshot_view.h"
#include "util/random.h"

namespace {

using popan::Pcg32;
using popan::geo::Box2;
using popan::geo::Point2;
using popan::query::ChecksumResult;
using popan::query::MakeMixedWorkload;
using popan::query::QueryResult;
using popan::query::QuerySpec;
using popan::sim::BenchJson;
using popan::sim::ExperimentRunner;
using popan::sim::MakeStormTrace;
using popan::sim::RwStormConfig;
using popan::sim::RwStormStats;
using popan::sim::StormOp;
using popan::sim::TextTable;
using popan::sim::WallTimer;
using popan::spatial::CowPrQuadtree;
using popan::spatial::PrTreeOptions;
using popan::spatial::SnapshotView2;

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

/// Expected nodes a write replaces when b uniform writes share one run:
/// the union of their root-to-leaf paths (Broutin-Holmgren's path length
/// of split trees), over b. Level l holds N_l nodes of area 4^-l, and b
/// writes all miss one of them with probability (1 - 4^-l)^b, so the
/// union is sum_l N_l (1 - (1 - 4^-l)^b). At full levels N_l = 4^l; the
/// census cuts the sum at the leaf depth (leaves per level, plus one
/// internal node per four nodes of the level below).
double PredictedNodesPerWrite(const popan::spatial::Census& census,
                              size_t b) {
  const size_t depth = census.MaxDepth();
  std::vector<double> nodes(depth + 2, 0.0);
  for (size_t l = depth + 1; l-- > 0;) {
    nodes[l] = static_cast<double>(census.LeavesAtDepth(l)) + nodes[l + 1] / 4;
  }
  double union_nodes = 0.0;
  for (size_t l = 0; l <= depth; ++l) {
    const double miss = 1.0 - std::ldexp(1.0, -2 * static_cast<int>(l));
    union_nodes += nodes[l] * (1.0 - std::pow(miss, static_cast<double>(b)));
  }
  return union_nodes / static_cast<double>(b);
}

std::vector<size_t> ReaderMatrix() {
  if (std::getenv("POPAN_READER_THREADS") != nullptr) {
    return {EnvOr("POPAN_READER_THREADS", 4)};
  }
  return {1, 2, 8, 16};
}

}  // namespace

int main() {
  const size_t kPoints = EnvOr("POPAN_CONCURRENCY_POINTS", 20000);
  const size_t kOps = EnvOr("POPAN_CONCURRENCY_OPS", 20000);
  const size_t kQueries = EnvOr("POPAN_CONCURRENCY_QUERIES", 400);
  const uint64_t kSeed = 1987;
  const std::vector<size_t> kReaders = ReaderMatrix();

  std::printf("Concurrency bench: %zu initial points, %zu churn ops per "
              "phase, %zu queries per reader\n\n",
              kPoints, kOps, kQueries);

  BenchJson json("concurrency");
  json.Add("points", static_cast<uint64_t>(kPoints))
      .Add("ops", static_cast<uint64_t>(kOps))
      .Add("queries_per_reader", static_cast<uint64_t>(kQueries));
  std::vector<std::string> gate_fields;

  // ---- Phase 1: deterministic storm accounting (gated). ----------------
  ExperimentRunner runner;
  {
    RwStormConfig config;
    config.num_ops = kOps;
    config.reader_threads = 0;  // writer-only: every counter deterministic
    config.snapshots_per_reader = 0;
    config.queries_per_snapshot = 4;
    config.capacity = 4;
    config.max_depth = 32;
    config.insert_fraction = 0.65;
    config.seed = kSeed;
    WallTimer storm_timer;
    popan::StatusOr<RwStormStats> stats = RunCowTreeStorm(config, runner);
    if (!stats.ok()) {
      std::fprintf(stderr, "storm FAILED: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    double seconds = storm_timer.Seconds();
    std::printf("writer-only storm: %llu ops, %llu epochs, %llu retired, "
                "%llu reclaimed (%.0f ops/s)\n",
                static_cast<unsigned long long>(stats->ops_applied),
                static_cast<unsigned long long>(stats->epochs_advanced),
                static_cast<unsigned long long>(stats->objects_retired),
                static_cast<unsigned long long>(stats->objects_reclaimed),
                static_cast<double>(stats->ops_applied) / seconds);
    json.Add("ops_completed", stats->ops_applied)
        .Add("epochs_retired", stats->epochs_advanced)
        .Add("nodes_retired", stats->objects_retired)
        .Add("nodes_reclaimed", stats->objects_reclaimed)
        .Add("final_size", stats->final_size)
        .Add("storm_seconds", seconds)
        .Add("storm_ops_per_sec",
             static_cast<double>(stats->ops_applied) / seconds);
    gate_fields.insert(gate_fields.end(),
                       {"ops_completed", "epochs_retired", "nodes_retired",
                        "nodes_reclaimed", "final_size"});
  }

  // ---- Phase 2: reader scaling against a churning writer. --------------
  PrTreeOptions options;
  options.capacity = 4;
  options.max_depth = 32;
  CowPrQuadtree tree(Box2::UnitCube(), options);
  {
    Pcg32 rng(kSeed);
    size_t inserted = 0;
    while (inserted < kPoints) {
      if (tree.Insert(Point2(rng.NextDouble(), rng.NextDouble())).ok()) {
        ++inserted;
      }
    }
  }

  TextTable table("Snapshot readers vs one churning writer");
  table.SetHeader({"readers", "queries/s", "writer ops/s", "seconds",
                   "sequence"});

  for (size_t config_index = 0; config_index < kReaders.size();
       ++config_index) {
    const size_t readers = kReaders[config_index];
    // The churn trace continues deterministically from the tree's current
    // sequence, so every configuration starts from a reproducible state.
    const std::vector<StormOp> churn =
        MakeStormTrace(kOps, 0.5, kSeed + 1 + tree.sequence());

    // Pin every reader's snapshot BEFORE the writer starts: the pinned
    // version (and so each reader's checksum) is a pure function of the
    // op count, independent of the race.
    std::vector<SnapshotView2> pins;
    pins.reserve(readers);
    for (size_t r = 0; r < readers; ++r) pins.push_back(tree.Snapshot());

    std::vector<uint64_t> checksums(readers, 0);
    // Scaling bench: one raw thread per reader so the measured curve is
    // thread count, not pool scheduling. popan-lint: allow(raw-thread-spawn)
    std::vector<std::thread> reader_threads;
    reader_threads.reserve(readers);
    std::atomic<uint64_t> queries_done{0};
    WallTimer timer;
    for (size_t r = 0; r < readers; ++r) {
      reader_threads.emplace_back([&, r]() {
        std::vector<QuerySpec> workload = MakeMixedWorkload(
            Box2::UnitCube(), kQueries, 8,
            popan::DeriveSeed(kSeed + 7 + config_index, r));
        uint64_t h = popan::query::kChecksumSeed;
        for (const QuerySpec& spec : workload) {
          QueryResult result = Execute(pins[r], spec);
          h = ChecksumResult(h, result);
        }
        checksums[r] = h;
        queries_done.fetch_add(workload.size(), std::memory_order_relaxed);
      });
    }
    uint64_t writer_ops = 0;
    for (const StormOp& op : churn) {
      if ((op.insert ? tree.Insert(op.point) : tree.Erase(op.point)).ok()) {
        ++writer_ops;
      }
    }
    double writer_seconds = timer.Seconds();
    for (std::thread& t : reader_threads) t.join();
    double seconds = timer.Seconds();
    pins.clear();
    tree.epochs().AdvanceEpoch();
    tree.epochs().Reclaim();

    uint64_t combined = popan::query::kChecksumSeed;
    for (size_t r = 0; r < readers; ++r) {
      combined ^= checksums[r] + 0x9e3779b97f4a7c15ULL * (r + 1);
    }
    double qps =
        static_cast<double>(queries_done.load(std::memory_order_relaxed)) /
        seconds;
    double wops = static_cast<double>(writer_ops) / writer_seconds;
    table.AddRow({std::to_string(readers), TextTable::Fmt(qps, 0),
                  TextTable::Fmt(wops, 0), TextTable::Fmt(seconds, 3),
                  std::to_string(tree.sequence())});
    std::string tag = "r";
    tag += std::to_string(readers);
    json.Add("checksum_" + tag, combined)
        .Add("sequence_" + tag, tree.sequence())
        .Add("queries_per_sec_" + tag, qps)
        .Add("writer_ops_per_sec_" + tag, wops);
    gate_fields.push_back("checksum_" + tag);
    gate_fields.push_back("sequence_" + tag);
  }

  std::printf("%s\n", table.Render().c_str());
  std::printf("final size %zu, sequence %llu, limbo %zu\n", tree.size(),
              static_cast<unsigned long long>(tree.sequence()),
              tree.epochs().limbo_size());

  // ---- Phase 3: write runs, path union predicted vs measured. ----------
  {
    constexpr size_t kRunPoints = size_t{1} << 18;
    constexpr size_t kRunWrites = 8192;
    CowPrQuadtree grown(Box2::UnitCube(), options);
    Pcg32 rng(kSeed + 2);
    auto insert_one = [&grown, &rng] {
      while (!grown.Insert(Point2(rng.NextDouble(), rng.NextDouble())).ok()) {
      }
    };
    {
      CowPrQuadtree::WriteRun run(&grown);
      while (grown.size() < kRunPoints) insert_one();
    }
    TextTable runs("Write runs of b uniform inserts into 2^18 points (m = 4)");
    runs.SetHeader({"b", "nodes/write predicted", "nodes/write measured",
                    "versions/write"});
    for (size_t b : {1, 8, 32, 64}) {
      const double predicted = PredictedNodesPerWrite(grown.LiveCensus(), b);
      const uint64_t retired = grown.epochs().objects_retired();
      const uint64_t versions = grown.epochs().epochs_advanced();
      for (size_t writes = 0; writes < kRunWrites; writes += b) {
        CowPrQuadtree::WriteRun run(&grown);
        for (size_t i = 0; i < b; ++i) insert_one();
      }
      // Every version published retires the one before it; the rest of
      // what the runs retired are the nodes they replaced.
      const uint64_t published = grown.epochs().epochs_advanced() - versions;
      const double measured =
          static_cast<double>(grown.epochs().objects_retired() - retired -
                              published) /
          kRunWrites;
      const double versions_per_write =
          static_cast<double>(published) / kRunWrites;
      runs.AddRow({std::to_string(b), TextTable::Fmt(predicted, 2),
                   TextTable::Fmt(measured, 2),
                   TextTable::Fmt(versions_per_write, 4)});
      std::string tag = "_b";
      tag += std::to_string(b);
      json.Add("run_nodes_per_write_predicted" + tag, predicted)
          .Add("run_nodes_per_write" + tag, measured)
          .Add("run_versions_per_write" + tag, versions_per_write);
    }
    std::printf("\n%s\n", runs.Render().c_str());
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
