#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "query/executor.h"
#include "query/query.h"
#include "sim/experiment.h"
#include "spatial/pr_tree.h"
#include "spatial/snapshot_view.h"
#include "util/random.h"

namespace popan::query {
namespace {

using geo::Box2;
using geo::Point2;

spatial::PrTreeOptions Options() {
  spatial::PrTreeOptions options;
  options.capacity = 4;
  options.max_depth = 32;
  return options;
}

std::vector<Point2> UniformPoints(size_t n, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<Point2> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    points.emplace_back(rng.NextDouble(), rng.NextDouble());
  }
  return points;
}

/// A mixed bag of specs, including a partial-match pinned to the
/// coordinate of a `stored` point so its result set is nonempty.
std::vector<QuerySpec> MixedSpecs(const Point2& stored) {
  std::vector<QuerySpec> specs;
  specs.push_back(QuerySpec::Range(
      Box2(Point2(0.1, 0.2), Point2(0.6, 0.9))));
  specs.push_back(QuerySpec::Range(
      Box2(Point2(0.0, 0.0), Point2(1.0, 1.0))));
  specs.push_back(QuerySpec::PartialMatch(0, stored.x()));
  specs.push_back(QuerySpec::PartialMatch(1, 0.5));
  specs.push_back(QuerySpec::NearestK(Point2(0.3, 0.7), 5));
  specs.push_back(QuerySpec::NearestK(Point2(0.9, 0.1), 1));
  return specs;
}

/// (depth, occupancy) of every leaf in VisitLeaves order: the tree's shape.
template <typename Tree>
std::vector<std::pair<size_t, size_t>> LeafSequence(const Tree& tree) {
  std::vector<std::pair<size_t, size_t>> leaves;
  tree.VisitLeaves([&leaves](const Box2&, size_t depth, size_t occupancy) {
    leaves.emplace_back(depth, occupancy);
  });
  return leaves;
}

// Execute against an epoch snapshot must be bitwise identical — results
// AND cost counters — to Execute against a stop-the-world PrTree holding
// the same points: one shared traversal, same node shape, frozen nodes.
// Capacities 1-12 size the slots from 24 to 200 bytes, and max_depth 3
// (truncated leaves absorbing overflow past their lanes) makes the
// snapshot path-copy spilled leaves; interleaved erases exercise
// swap-removal, un-spills and collapse.
TEST(SnapshotQueryTest, ExecuteMatchesPrQuadtreeBitwise) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    for (size_t capacity : {1u, 4u, 8u, 12u}) {
      for (size_t max_depth : {3u, 32u}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " capacity "
                                        << capacity << " max_depth "
                                        << max_depth);
        spatial::PrTreeOptions options;
        options.capacity = capacity;
        options.max_depth = max_depth;
        std::vector<Point2> points = UniformPoints(500, seed);
        spatial::PrTree<2> reference(Box2::UnitCube(), options);
        spatial::CowPrQuadtree cow(Box2::UnitCube(), options);
        for (size_t i = 0; i < points.size(); ++i) {
          ASSERT_TRUE(reference.Insert(points[i]).ok());
          ASSERT_TRUE(cow.Insert(points[i]).ok());
          if (i % 3 == 2) {  // erases points[0, 166), each once
            ASSERT_TRUE(reference.Erase(points[i / 3]).ok());
            ASSERT_TRUE(cow.Erase(points[i / 3]).ok());
          }
        }
        ASSERT_TRUE(reference.CheckInvariants().ok());
        ASSERT_TRUE(cow.CheckInvariants().ok());
        spatial::SnapshotView2 snapshot = cow.Snapshot();
        ASSERT_TRUE(snapshot.CheckInvariants().ok());
        EXPECT_EQ(snapshot.LiveCensus(), reference.LiveCensus());
        EXPECT_EQ(LeafSequence(snapshot), LeafSequence(reference));
        EXPECT_EQ(snapshot.AllPoints(), reference.AllPoints());
        for (const QuerySpec& spec : MixedSpecs(points.back())) {
          QueryResult from_tree = Execute(reference, spec);
          QueryResult from_snapshot = Execute(snapshot, spec);
          EXPECT_EQ(from_snapshot.points, from_tree.points)
              << spec.ToString();
          EXPECT_EQ(from_snapshot.cost, from_tree.cost) << spec.ToString();
        }
      }
    }
  }
}

// A snapshot pinned before further writes keeps answering for its own
// version; a snapshot pinned after sees the new state.
TEST(SnapshotQueryTest, SnapshotAnswersForItsOwnVersion) {
  std::vector<Point2> points = UniformPoints(200, 23);
  spatial::CowPrQuadtree cow(Box2::UnitCube(), Options());
  for (const Point2& p : points) ASSERT_TRUE(cow.Insert(p).ok());
  QuerySpec everything =
      QuerySpec::Range(Box2(Point2(0.0, 0.0), Point2(1.0, 1.0)));
  spatial::SnapshotView2 before = cow.Snapshot();
  QueryResult result_before = Execute(before, everything);
  ASSERT_EQ(result_before.points.size(), points.size());
  for (size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(cow.Erase(points[i]).ok());
  }
  // The old pin still answers with all 200 points; a new pin sees 100.
  EXPECT_EQ(Execute(before, everything).points, result_before.points);
  EXPECT_EQ(Execute(cow.Snapshot(), everything).points.size(),
            points.size() - 100);
}

// The batch overload pins ONE version for the whole batch: its outcome is
// checksum-identical to running the same batch on an equivalent frozen
// tree, for any worker count.
TEST(SnapshotQueryTest, BatchOnCowTreeMatchesStopTheWorldBatch) {
  std::vector<Point2> points = UniformPoints(400, 31);
  spatial::PrTree<2> reference(Box2::UnitCube(), Options());
  spatial::CowPrQuadtree cow(Box2::UnitCube(), Options());
  for (const Point2& p : points) {
    ASSERT_TRUE(reference.Insert(p).ok());
    ASSERT_TRUE(cow.Insert(p).ok());
  }
  std::vector<QuerySpec> specs = MixedSpecs(points.front());
  sim::ExperimentRunner serial(1);
  sim::ExperimentRunner parallel(4);
  BatchOutcome want = RunQueryBatch(reference, specs, serial);
  BatchOutcome serial_outcome = RunQueryBatch(cow, specs, serial);
  BatchOutcome parallel_outcome = RunQueryBatch(cow, specs, parallel);
  EXPECT_EQ(serial_outcome.checksum, want.checksum);
  EXPECT_EQ(parallel_outcome.checksum, want.checksum);
  EXPECT_EQ(parallel_outcome.total_items, want.total_items);
  EXPECT_TRUE(parallel_outcome.total_cost == want.total_cost);
}

// QueryCursor's concurrent constructor pins for the duration of the
// eager execution; pulls after later writes still come from the pinned
// version's result set.
TEST(SnapshotQueryTest, CursorOnCowTreePinsItsVersion) {
  std::vector<Point2> points = UniformPoints(150, 47);
  spatial::CowPrQuadtree cow(Box2::UnitCube(), Options());
  for (const Point2& p : points) ASSERT_TRUE(cow.Insert(p).ok());
  QuerySpec everything =
      QuerySpec::Range(Box2(Point2(0.0, 0.0), Point2(1.0, 1.0)));
  QueryCursor cursor(cow, everything);
  ASSERT_EQ(cursor.Remaining(), points.size());
  for (size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(cow.Erase(points[i]).ok());
  }
  size_t pulled = 0;
  while (!cursor.Done()) {
    cursor.NextPoint();
    ++pulled;
  }
  EXPECT_EQ(pulled, points.size());
}

}  // namespace
}  // namespace popan::query
