// Micro-benchmarks of the data-structure substrate: insertion and query
// throughput of the PR quadtree, point quadtree, grid file, EXCELL,
// extendible hashing and the linear quadtree under a shared uniform
// workload, plus the PR tree across capacities — the operational cost
// picture behind the paper's storage analysis.
//
// Every case runs three times and keeps the fastest. The cases fold their
// results (successful inserts, hits, result sizes) into one checksum, so
// no work can be optimized away. Emits BENCH_structures.json (see
// sim/bench_json.h): <case>_ops_per_sec per case, plus the checksum.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "sim/bench_json.h"
#include "sim/table.h"
#include "spatial/excell.h"
#include "spatial/extendible_hash.h"
#include "spatial/grid_file.h"
#include "spatial/linear_quadtree.h"
#include "spatial/point_quadtree.h"
#include "spatial/pr_tree.h"
#include "util/random.h"

namespace popan {
namespace {

using geo::Box2;
using geo::Point2;
using sim::TextTable;

std::vector<Point2> UniformPoints(size_t n, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<Point2> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.emplace_back(rng.NextDouble(), rng.NextDouble());
  }
  return out;
}

std::vector<uint64_t> RandomKeys(size_t n) {
  Pcg32 rng(1);
  std::vector<uint64_t> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) keys.push_back(rng.Next64());
  return keys;
}

spatial::PrQuadtree MakePrTree(size_t capacity) {
  spatial::PrTreeOptions options;
  options.capacity = capacity;
  return spatial::PrQuadtree(Box2::UnitCube(), options);
}

/// Times the cases and collects their rates into a table and a record.
class Suite {
 public:
  Suite() : table_("Data-structure throughput"), json_("structures") {
    table_.SetHeader({"case", "ops", "ns/op", "ops/sec"});
  }

  /// Times `run`, which performs `ops` operations and returns a value
  /// folded into the checksum; `setup` runs untimed before each round.
  void Time(const std::string& name, size_t ops,
            const std::function<uint64_t()>& run,
            const std::function<void()>& setup = [] {}) {
    double best = 1e300;
    for (int round = 0; round < 3; ++round) {
      setup();
      sim::WallTimer timer;
      checksum_ += run();
      best = std::min(best, timer.Seconds());
    }
    const double rate = best > 0.0 ? static_cast<double>(ops) / best : 0.0;
    table_.AddRow({name, TextTable::Fmt(ops),
                   TextTable::Fmt(best * 1e9 / static_cast<double>(ops), 1),
                   TextTable::Fmt(rate, 0)});
    json_.Add(name + "_ops_per_sec", rate);
  }

  void Finish() {
    json_.Add("checksum", checksum_);
    std::printf("%s\nchecksum %llu\n", table_.Render().c_str(),
                static_cast<unsigned long long>(checksum_));
    const std::string path = json_.WriteFile();
    if (!path.empty()) std::printf("wrote %s\n", path.c_str());
  }

 private:
  TextTable table_;
  sim::BenchJson json_;
  uint64_t checksum_ = 0;
};

template <typename Structure, typename Item>
uint64_t InsertAll(Structure& s, const std::vector<Item>& items) {
  uint64_t ok = 0;
  for (const Item& item : items) ok += s.Insert(item).ok() ? 1 : 0;
  return ok;
}

template <typename Structure, typename Item>
uint64_t ContainsAll(const Structure& s, const std::vector<Item>& items) {
  uint64_t hits = 0;
  for (const Item& item : items) hits += s.Contains(item) ? 1 : 0;
  return hits;
}

int Run() {
  Suite suite;
  const std::vector<Point2> points = UniformPoints(10000, 1);
  const std::vector<uint64_t> keys = RandomKeys(10000);

  for (size_t n : {size_t{1000}, size_t{10000}}) {
    const std::vector<Point2> pts(points.begin(), points.begin() + n);
    const std::vector<uint64_t> ks(keys.begin(), keys.begin() + n);
    const std::string at = "_n" + std::to_string(n);
    for (size_t m : {size_t{1}, size_t{8}}) {
      suite.Time("pr_insert" + at + "_m" + std::to_string(m), n, [&] {
        spatial::PrQuadtree tree = MakePrTree(m);
        return InsertAll(tree, pts);
      });
    }
    suite.Time("point_quadtree_insert" + at, n, [&] {
      spatial::PointQuadtree tree;
      return InsertAll(tree, pts);
    });
    suite.Time("grid_file_insert" + at, n, [&] {
      spatial::GridFileOptions options;
      options.bucket_capacity = 8;
      spatial::GridFile grid(Box2::UnitCube(), options);
      return InsertAll(grid, pts);
    });
    suite.Time("extendible_hash_insert" + at, n, [&] {
      spatial::ExtendibleHashOptions options;
      options.bucket_capacity = 8;
      spatial::ExtendibleHash table(options);
      return InsertAll(table, ks);
    });
    suite.Time("excell_insert" + at, n, [&] {
      spatial::ExcellOptions options;
      options.bucket_capacity = 8;
      spatial::Excell table(Box2::UnitCube(), options);
      return InsertAll(table, pts);
    });
    suite.Time("linear_bulk_load" + at, n, [&] {
      auto tree = spatial::LinearPrQuadtree::BulkLoad(Box2::UnitCube(), pts);
      return static_cast<uint64_t>(tree.ok() ? tree->LeafCount() : 0);
    });
  }

  const size_t kQueries = 10000;
  for (size_t m : {size_t{1}, size_t{8}}) {
    spatial::PrQuadtree tree = MakePrTree(m);
    InsertAll(tree, points);
    suite.Time("pr_range_query_m" + std::to_string(m), kQueries, [&] {
      Pcg32 rng(2);
      uint64_t found = 0;
      for (size_t i = 0; i < kQueries; ++i) {
        const double x = rng.NextDouble(0.0, 0.9);
        const double y = rng.NextDouble(0.0, 0.9);
        found += tree.RangeQuery(Box2(Point2(x, y), Point2(x + 0.1, y + 0.1)))
                     .size();
      }
      return found;
    });
    suite.Time("pr_nearest_m" + std::to_string(m), kQueries, [&] {
      Pcg32 rng(3);
      uint64_t found = 0;
      for (size_t i = 0; i < kQueries; ++i) {
        found += tree.Nearest(Point2(rng.NextDouble(), rng.NextDouble())).ok();
      }
      return found;
    });
  }

  spatial::PrQuadtree pr = MakePrTree(4);
  InsertAll(pr, points);
  suite.Time("pr_contains", points.size(),
             [&] { return ContainsAll(pr, points); });
  spatial::GridFileOptions grid_options;
  grid_options.bucket_capacity = 4;
  spatial::GridFile grid(Box2::UnitCube(), grid_options);
  InsertAll(grid, points);
  suite.Time("grid_file_contains", points.size(),
             [&] { return ContainsAll(grid, points); });
  spatial::ExtendibleHashOptions hash_options;
  hash_options.bucket_capacity = 8;
  spatial::ExtendibleHash table(hash_options);
  InsertAll(table, keys);
  suite.Time("extendible_hash_contains", keys.size(),
             [&] { return ContainsAll(table, keys); });
  auto linear = spatial::LinearPrQuadtree::BulkLoad(Box2::UnitCube(), points);
  if (linear.ok()) {
    suite.Time("linear_contains", points.size(),
               [&] { return ContainsAll(*linear, points); });
  }

  // Erase from a freshly built capacity-2 tree; the build is untimed.
  const std::vector<Point2> erase_points = UniformPoints(2000, 9);
  spatial::PrQuadtree erase_tree = MakePrTree(2);
  suite.Time(
      "pr_erase", erase_points.size(),
      [&] {
        uint64_t erased = 0;
        for (const Point2& p : erase_points) {
          erased += erase_tree.Erase(p).ok() ? 1 : 0;
        }
        return erased;
      },
      [&] {
        erase_tree = MakePrTree(2);
        InsertAll(erase_tree, erase_points);
      });

  suite.Finish();
  return 0;
}

}  // namespace
}  // namespace popan

int main() { return popan::Run(); }
