#include <algorithm>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "spatial/census.h"
#include "spatial/pr_tree.h"
#include "util/random.h"

namespace popan::spatial {
namespace {

using geo::Box2;
using geo::Point2;

/// Property sweep over (capacity, number of points, seed): after any
/// sequence of random inserts the tree satisfies its invariants, answers
/// queries identically to brute force, and censuses conserve items.
class PrTreePropertyTest
    : public testing::TestWithParam<std::tuple<size_t, size_t, uint64_t>> {
 protected:
  size_t capacity() const { return std::get<0>(GetParam()); }
  size_t num_points() const { return std::get<1>(GetParam()); }
  uint64_t seed() const { return std::get<2>(GetParam()); }

  PrQuadtree BuildRandomTree(std::vector<Point2>* points) {
    PrTreeOptions options;
    options.capacity = capacity();
    PrQuadtree tree(Box2::UnitCube(), options);
    Pcg32 rng(seed());
    while (tree.size() < num_points()) {
      Point2 p(rng.NextDouble(), rng.NextDouble());
      if (tree.Insert(p).ok()) points->push_back(p);
    }
    return tree;
  }
};

TEST_P(PrTreePropertyTest, InvariantsHoldAfterRandomInserts) {
  std::vector<Point2> points;
  PrQuadtree tree = BuildRandomTree(&points);
  ASSERT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();
  EXPECT_EQ(tree.size(), num_points());
}

TEST_P(PrTreePropertyTest, ContainsExactlyTheInsertedPoints) {
  std::vector<Point2> points;
  PrQuadtree tree = BuildRandomTree(&points);
  for (const Point2& p : points) {
    EXPECT_TRUE(tree.Contains(p));
  }
  Pcg32 other(seed() ^ 0xabcdef);
  for (int i = 0; i < 50; ++i) {
    Point2 p(other.NextDouble(), other.NextDouble());
    bool inserted =
        std::find(points.begin(), points.end(), p) != points.end();
    EXPECT_EQ(tree.Contains(p), inserted);
  }
}

TEST_P(PrTreePropertyTest, CensusConservesItemsAndLeaves) {
  std::vector<Point2> points;
  PrQuadtree tree = BuildRandomTree(&points);
  Census census = TakeCensus(tree);
  EXPECT_EQ(census.ItemCount(), tree.size());
  EXPECT_EQ(census.LeafCount(), tree.LeafCount());
  EXPECT_EQ(census.MaxOccupancy() <= capacity(), true)
      << "no truncation configured, so no leaf may exceed capacity";
}

TEST_P(PrTreePropertyTest, LeafCountIsOneMod2DMinus1) {
  // Every split replaces 1 leaf by 4: leaf count == 1 (mod 3) always.
  std::vector<Point2> points;
  PrQuadtree tree = BuildRandomTree(&points);
  EXPECT_EQ(tree.LeafCount() % 3, 1u);
}

TEST_P(PrTreePropertyTest, RangeQueryMatchesBruteForce) {
  std::vector<Point2> points;
  PrQuadtree tree = BuildRandomTree(&points);
  Pcg32 rng(seed() + 1);
  for (int trial = 0; trial < 20; ++trial) {
    double x0 = rng.NextDouble(), x1 = rng.NextDouble();
    double y0 = rng.NextDouble(), y1 = rng.NextDouble();
    Box2 query(Point2(std::min(x0, x1), std::min(y0, y1)),
               Point2(std::max(x0, x1), std::max(y0, y1)));
    std::vector<Point2> expected;
    for (const Point2& p : points) {
      if (query.Contains(p)) expected.push_back(p);
    }
    std::vector<Point2> got = tree.RangeQuery(query);
    auto key = [](const Point2& p) { return std::make_pair(p.x(), p.y()); };
    auto by_key = [&key](const Point2& a, const Point2& b) {
      return key(a) < key(b);
    };
    std::sort(expected.begin(), expected.end(), by_key);
    std::sort(got.begin(), got.end(), by_key);
    EXPECT_EQ(got, expected);
  }
}

TEST_P(PrTreePropertyTest, NearestMatchesBruteForce) {
  std::vector<Point2> points;
  PrQuadtree tree = BuildRandomTree(&points);
  Pcg32 rng(seed() + 2);
  for (int trial = 0; trial < 20; ++trial) {
    Point2 target(rng.NextDouble(), rng.NextDouble());
    StatusOr<Point2> got = tree.Nearest(target);
    ASSERT_TRUE(got.ok());
    double best = 1e100;
    for (const Point2& p : points) {
      best = std::min(best, p.DistanceSquared(target));
    }
    EXPECT_DOUBLE_EQ(got->DistanceSquared(target), best);
  }
}

TEST_P(PrTreePropertyTest, InsertionOrderIndependence) {
  // The PR decomposition is canonical for a point set: any insertion order
  // yields the same leaves.
  std::vector<Point2> points;
  PrQuadtree tree = BuildRandomTree(&points);
  std::vector<Point2> shuffled = points;
  Pcg32 rng(seed() + 3);
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.NextBounded(
                                   static_cast<uint32_t>(i))]);
  }
  PrTreeOptions options;
  options.capacity = capacity();
  PrQuadtree other(Box2::UnitCube(), options);
  for (const Point2& p : shuffled) {
    ASSERT_TRUE(other.Insert(p).ok());
  }
  EXPECT_EQ(other.LeafCount(), tree.LeafCount());
  EXPECT_EQ(other.NodeCount(), tree.NodeCount());
  Census a = TakeCensus(tree);
  Census b = TakeCensus(other);
  EXPECT_EQ(a.Proportions(), b.Proportions());
}

TEST_P(PrTreePropertyTest, EraseEverythingCollapsesToRoot) {
  std::vector<Point2> points;
  PrQuadtree tree = BuildRandomTree(&points);
  Pcg32 rng(seed() + 4);
  // Erase in a random order, checking invariants periodically.
  std::vector<Point2> order = points;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(static_cast<uint32_t>(i))]);
  }
  for (size_t i = 0; i < order.size(); ++i) {
    ASSERT_TRUE(tree.Erase(order[i]).ok());
    if (i % 16 == 0) {
      ASSERT_TRUE(tree.CheckInvariants().ok())
          << tree.CheckInvariants().ToString();
    }
  }
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.LeafCount(), 1u);
  EXPECT_EQ(tree.NodeCount(), 1u);
}

TEST_P(PrTreePropertyTest, EraseHalfKeepsRemainderQueryable) {
  std::vector<Point2> points;
  PrQuadtree tree = BuildRandomTree(&points);
  for (size_t i = 0; i < points.size(); i += 2) {
    ASSERT_TRUE(tree.Erase(points[i]).ok());
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(tree.Contains(points[i]), i % 2 == 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CapacityPointsSeedSweep, PrTreePropertyTest,
    testing::Combine(testing::Values<size_t>(1, 2, 3, 5, 8),
                     testing::Values<size_t>(10, 100, 400),
                     testing::Values<uint64_t>(1, 42)),
    [](const testing::TestParamInfo<PrTreePropertyTest::ParamType>& info) {
      std::string name = "m";
      name += std::to_string(std::get<0>(info.param));
      name += "_n";
      name += std::to_string(std::get<1>(info.param));
      name += "_s";
      name += std::to_string(std::get<2>(info.param));
      return name;
    });

}  // namespace
}  // namespace popan::spatial
