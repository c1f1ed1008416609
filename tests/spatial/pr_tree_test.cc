#include "spatial/pr_tree.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "spatial/census.h"
#include "util/random.h"

namespace popan::spatial {
namespace {

using geo::Box2;
using geo::Point2;

PrQuadtree MakeTree(size_t capacity = 1, size_t max_depth = 32) {
  PrTreeOptions options;
  options.capacity = capacity;
  options.max_depth = max_depth;
  return PrQuadtree(Box2::UnitCube(), options);
}

TEST(PrTreeTest, EmptyTree) {
  PrQuadtree tree = MakeTree();
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.LeafCount(), 1u);
  EXPECT_EQ(tree.NodeCount(), 1u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(PrTreeTest, SingleInsert) {
  PrQuadtree tree = MakeTree();
  EXPECT_TRUE(tree.Insert(Point2(0.3, 0.4)).ok());
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.LeafCount(), 1u);  // no split needed
  EXPECT_TRUE(tree.Contains(Point2(0.3, 0.4)));
  EXPECT_FALSE(tree.Contains(Point2(0.3, 0.5)));
}

TEST(PrTreeTest, OutOfBoundsRejected) {
  PrQuadtree tree = MakeTree();
  Status s = tree.Insert(Point2(1.5, 0.5));
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_FALSE(tree.Contains(Point2(1.5, 0.5)));
}

TEST(PrTreeTest, HiCornerIsOutside) {
  PrQuadtree tree = MakeTree();
  EXPECT_EQ(tree.Insert(Point2(1.0, 1.0)).code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(tree.Insert(Point2(0.0, 0.0)).ok());
}

TEST(PrTreeTest, DuplicateRejected) {
  PrQuadtree tree = MakeTree();
  ASSERT_TRUE(tree.Insert(Point2(0.3, 0.4)).ok());
  Status s = tree.Insert(Point2(0.3, 0.4));
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(PrTreeTest, SecondPointSplitsCapacityOneNode) {
  PrQuadtree tree = MakeTree(1);
  ASSERT_TRUE(tree.Insert(Point2(0.1, 0.1)).ok());
  ASSERT_TRUE(tree.Insert(Point2(0.9, 0.9)).ok());
  // Points in opposite quadrants: one split suffices -> 4 leaves.
  EXPECT_EQ(tree.LeafCount(), 4u);
  EXPECT_EQ(tree.NodeCount(), 5u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(PrTreeTest, CloseTogetherPointsCascadeSplits) {
  PrQuadtree tree = MakeTree(1);
  // Both points in the lowest quadrant repeatedly: depth must reach the
  // first level at which they separate.
  ASSERT_TRUE(tree.Insert(Point2(0.01, 0.01)).ok());
  ASSERT_TRUE(tree.Insert(Point2(0.02, 0.02)).ok());
  EXPECT_GT(tree.LeafCount(), 4u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_TRUE(tree.Contains(Point2(0.01, 0.01)));
  EXPECT_TRUE(tree.Contains(Point2(0.02, 0.02)));
}

TEST(PrTreeTest, Figure1Decomposition) {
  // The paper's Figure 1: four points where blocks are recursively
  // quartered until no block holds more than one point.
  PrQuadtree tree = MakeTree(1);
  ASSERT_TRUE(tree.Insert(Point2(0.2, 0.8)).ok());   // NW block
  ASSERT_TRUE(tree.Insert(Point2(0.7, 0.9)).ok());   // NE block
  ASSERT_TRUE(tree.Insert(Point2(0.3, 0.3)).ok());   // SW block
  ASSERT_TRUE(tree.Insert(Point2(0.8, 0.2)).ok());   // SE block
  EXPECT_EQ(tree.LeafCount(), 4u);                   // one split total
  for (const Point2& p : tree.AllPoints()) {
    EXPECT_TRUE(tree.Contains(p));
  }
}

TEST(PrTreeTest, CapacityGovernsSplitting) {
  PrQuadtree tree = MakeTree(4);
  tree.Insert(Point2(0.1, 0.1)).ok();
  tree.Insert(Point2(0.2, 0.2)).ok();
  tree.Insert(Point2(0.3, 0.3)).ok();
  ASSERT_TRUE(tree.Insert(Point2(0.4, 0.4)).ok());
  EXPECT_EQ(tree.LeafCount(), 1u);  // four points fit one node of cap 4
  ASSERT_TRUE(tree.Insert(Point2(0.9, 0.9)).ok());
  EXPECT_GT(tree.LeafCount(), 1u);  // fifth point forces the split
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(PrTreeTest, MaxDepthTruncationAllowsOverflow) {
  PrTreeOptions options;
  options.capacity = 1;
  options.max_depth = 2;
  PrQuadtree tree(Box2::UnitCube(), options);
  // All points in one depth-2 block [0, 0.25)^2: cannot split past depth 2.
  ASSERT_TRUE(tree.Insert(Point2(0.01, 0.01)).ok());
  ASSERT_TRUE(tree.Insert(Point2(0.02, 0.02)).ok());
  ASSERT_TRUE(tree.Insert(Point2(0.03, 0.03)).ok());
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  size_t max_depth_seen = 0;
  tree.VisitLeaves([&](const Box2&, size_t depth, size_t) {
    max_depth_seen = std::max(max_depth_seen, depth);
  });
  EXPECT_EQ(max_depth_seen, 2u);
}

TEST(PrTreeTest, EraseSimple) {
  PrQuadtree tree = MakeTree();
  tree.Insert(Point2(0.5, 0.5)).ok();
  EXPECT_TRUE(tree.Erase(Point2(0.5, 0.5)).ok());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_FALSE(tree.Contains(Point2(0.5, 0.5)));
}

TEST(PrTreeTest, EraseMissingIsNotFound) {
  PrQuadtree tree = MakeTree();
  EXPECT_EQ(tree.Erase(Point2(0.5, 0.5)).code(), StatusCode::kNotFound);
  tree.Insert(Point2(0.5, 0.5)).ok();
  EXPECT_EQ(tree.Erase(Point2(0.4, 0.5)).code(), StatusCode::kNotFound);
  EXPECT_EQ(tree.Erase(Point2(2.0, 2.0)).code(), StatusCode::kNotFound);
}

TEST(PrTreeTest, EraseCollapsesTree) {
  PrQuadtree tree = MakeTree(1);
  tree.Insert(Point2(0.1, 0.1)).ok();
  tree.Insert(Point2(0.9, 0.9)).ok();
  ASSERT_EQ(tree.LeafCount(), 4u);
  ASSERT_TRUE(tree.Erase(Point2(0.9, 0.9)).ok());
  // One point left: the tree must collapse back to a single leaf.
  EXPECT_EQ(tree.LeafCount(), 1u);
  EXPECT_EQ(tree.NodeCount(), 1u);
  EXPECT_TRUE(tree.Contains(Point2(0.1, 0.1)));
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(PrTreeTest, EraseCollapsesDeepChains) {
  PrQuadtree tree = MakeTree(1);
  tree.Insert(Point2(0.001, 0.001)).ok();
  tree.Insert(Point2(0.002, 0.002)).ok();
  ASSERT_GT(tree.LeafCount(), 4u);
  ASSERT_TRUE(tree.Erase(Point2(0.002, 0.002)).ok());
  EXPECT_EQ(tree.LeafCount(), 1u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(PrTreeTest, RangeQueryFindsInsidePointsOnly) {
  PrQuadtree tree = MakeTree(2);
  tree.Insert(Point2(0.1, 0.1)).ok();
  tree.Insert(Point2(0.5, 0.5)).ok();
  tree.Insert(Point2(0.9, 0.9)).ok();
  std::vector<Point2> hits =
      tree.RangeQuery(Box2(Point2(0.4, 0.4), Point2(0.8, 0.8)));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], Point2(0.5, 0.5));
}

TEST(PrTreeTest, RangeQueryHalfOpenBoundary) {
  PrQuadtree tree = MakeTree(4);
  tree.Insert(Point2(0.5, 0.5)).ok();
  // Query with hi exactly at the point excludes it; lo at the point
  // includes it.
  EXPECT_TRUE(
      tree.RangeQuery(Box2(Point2(0.0, 0.0), Point2(0.5, 0.5))).empty());
  EXPECT_EQ(
      tree.RangeQuery(Box2(Point2(0.5, 0.5), Point2(1.0, 1.0))).size(), 1u);
}

TEST(PrTreeTest, NearestOnEmptyTreeIsNotFound) {
  PrQuadtree tree = MakeTree();
  EXPECT_EQ(tree.Nearest(Point2(0.5, 0.5)).status().code(),
            StatusCode::kNotFound);
}

TEST(PrTreeTest, NearestSinglePoint) {
  PrQuadtree tree = MakeTree();
  tree.Insert(Point2(0.25, 0.75)).ok();
  StatusOr<Point2> nearest = tree.Nearest(Point2(0.9, 0.1));
  ASSERT_TRUE(nearest.ok());
  EXPECT_EQ(nearest.value(), Point2(0.25, 0.75));
}

TEST(PrTreeTest, NearestKMatchesBruteForce) {
  PrQuadtree tree = MakeTree(3);
  std::vector<Point2> points;
  Pcg32 rng(321);
  for (int i = 0; i < 300; ++i) {
    Point2 p(rng.NextDouble(), rng.NextDouble());
    if (tree.Insert(p).ok()) points.push_back(p);
  }
  for (size_t k : {1u, 2u, 5u, 20u}) {
    Point2 target(rng.NextDouble(), rng.NextDouble());
    std::vector<Point2> got = tree.NearestK(target, k);
    ASSERT_EQ(got.size(), k);
    std::vector<Point2> expected = points;
    std::sort(expected.begin(), expected.end(),
              [&target](const Point2& a, const Point2& b) {
                return a.DistanceSquared(target) < b.DistanceSquared(target);
              });
    for (size_t i = 0; i < k; ++i) {
      EXPECT_DOUBLE_EQ(got[i].DistanceSquared(target),
                       expected[i].DistanceSquared(target))
          << "k=" << k << " rank " << i;
    }
  }
}

TEST(PrTreeTest, NearestKWithFewerPointsReturnsAll) {
  PrQuadtree tree = MakeTree(2);
  tree.Insert(Point2(0.1, 0.1)).ok();
  tree.Insert(Point2(0.9, 0.9)).ok();
  std::vector<Point2> got = tree.NearestK(Point2(0.0, 0.0), 10);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], Point2(0.1, 0.1));
  EXPECT_EQ(got[1], Point2(0.9, 0.9));
}

TEST(PrTreeTest, NearestKOnEmptyTreeIsEmpty) {
  PrQuadtree tree = MakeTree();
  EXPECT_TRUE(tree.NearestK(Point2(0.5, 0.5), 3).empty());
}

TEST(PrTreeTest, NearestKOrderedAscending) {
  PrQuadtree tree = MakeTree(4);
  Pcg32 rng(7);
  for (int i = 0; i < 100; ++i) {
    tree.Insert(Point2(rng.NextDouble(), rng.NextDouble())).ok();
  }
  Point2 target(0.5, 0.5);
  std::vector<Point2> got = tree.NearestK(target, 10);
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_LE(got[i - 1].DistanceSquared(target),
              got[i].DistanceSquared(target));
  }
}

TEST(PrTreeTest, VisitLeavesCountsMatchSize) {
  PrQuadtree tree = MakeTree(2);
  Pcg32 rng(55);
  for (int i = 0; i < 100; ++i) {
    tree.Insert(Point2(rng.NextDouble(), rng.NextDouble())).ok();
  }
  size_t leaves = 0, items = 0;
  tree.VisitLeaves([&](const Box2&, size_t, size_t occupancy) {
    ++leaves;
    items += occupancy;
  });
  EXPECT_EQ(leaves, tree.LeafCount());
  EXPECT_EQ(items, tree.size());
}

TEST(PrTreeTest, AllPointsReturnsEverything) {
  PrQuadtree tree = MakeTree(3);
  std::vector<Point2> inserted;
  Pcg32 rng(77);
  for (int i = 0; i < 50; ++i) {
    Point2 p(rng.NextDouble(), rng.NextDouble());
    if (tree.Insert(p).ok()) inserted.push_back(p);
  }
  std::vector<Point2> all = tree.AllPoints();
  EXPECT_EQ(all.size(), inserted.size());
  for (const Point2& p : inserted) {
    EXPECT_NE(std::find(all.begin(), all.end(), p), all.end());
  }
}

TEST(PrTreeTest, ClearResets) {
  PrQuadtree tree = MakeTree(1);
  tree.Insert(Point2(0.1, 0.1)).ok();
  tree.Insert(Point2(0.9, 0.9)).ok();
  tree.Clear();
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.LeafCount(), 1u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_TRUE(tree.Insert(Point2(0.1, 0.1)).ok());
}

TEST(PrTreeTest, BintreeWorks) {
  PrTreeOptions options;
  options.capacity = 1;
  PrBintree tree(geo::Box1::UnitCube(), options);
  EXPECT_TRUE(tree.Insert(geo::Point1(0.1)).ok());
  EXPECT_TRUE(tree.Insert(geo::Point1(0.9)).ok());
  EXPECT_EQ(tree.LeafCount(), 2u);  // fanout 2
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(PrTreeTest, OctreeWorks) {
  PrTreeOptions options;
  options.capacity = 1;
  PrOctree tree(geo::Box3::UnitCube(), options);
  EXPECT_TRUE(tree.Insert(geo::Point3(0.1, 0.1, 0.1)).ok());
  EXPECT_TRUE(tree.Insert(geo::Point3(0.9, 0.9, 0.9)).ok());
  EXPECT_EQ(tree.LeafCount(), 8u);  // fanout 8
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(PrTreeTest, CensusIntegration) {
  PrQuadtree tree = MakeTree(1);
  tree.Insert(Point2(0.1, 0.1)).ok();
  tree.Insert(Point2(0.9, 0.9)).ok();
  Census census = TakeCensus(tree);
  EXPECT_EQ(census.LeafCount(), 4u);
  EXPECT_EQ(census.CountAt(0), 2u);
  EXPECT_EQ(census.CountAt(1), 2u);
  EXPECT_EQ(census.ItemCount(), 2u);
}

TEST(PrTreeTest, CopyIsIndependent) {
  PrQuadtree tree = MakeTree(1);
  tree.Insert(Point2(0.1, 0.1)).ok();
  PrQuadtree copy = tree;
  copy.Insert(Point2(0.9, 0.9)).ok();
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(copy.size(), 2u);
}

TEST(PrTreeTest, DeepSplitCascadeNearDepthLimit) {
  // Adversarially colliding points: (0,0) and (2^-990, 2^-990) share the
  // same quadrant (quadrant 0) down to depth ~990, so inserting the second
  // point triggers a ~990-level split cascade. The recursive formulation
  // this regression test guards against would burn a stack frame per level
  // (box + locals per frame) and could overflow on deep collisions; the
  // iterative cascade runs in constant stack space.
  PrTreeOptions options;
  options.capacity = 1;
  options.max_depth = 1000;
  PrQuadtree tree(geo::Box2::UnitCube(), options);
  const double tiny = std::ldexp(1.0, -990);  // still a normal double
  Point2 origin(0.0, 0.0);
  Point2 close(tiny, tiny);
  ASSERT_TRUE(tree.Insert(origin).ok());
  ASSERT_TRUE(tree.Insert(close).ok());
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_TRUE(tree.Contains(origin));
  EXPECT_TRUE(tree.Contains(close));

  // The two points separate at depth ~990; the leaf census (taken via the
  // iterative traversals) must agree with the live histogram.
  Census walked = TakeCensus(tree);
  EXPECT_EQ(tree.LiveCensus(), walked);
  EXPECT_GE(walked.MaxDepth(), 980u);
  EXPECT_EQ(walked.ItemCount(), 2u);
  EXPECT_TRUE(tree.CheckInvariants().ok());

  // Erasing one point collapses the whole chain back to a single root
  // leaf (minimality) — iteratively, along the recorded descent path.
  ASSERT_TRUE(tree.Erase(close).ok());
  EXPECT_EQ(tree.LeafCount(), 1u);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.LiveCensus(), TakeCensus(tree));
  EXPECT_TRUE(tree.CheckInvariants().ok());
  ASSERT_TRUE(tree.Erase(origin).ok());
  EXPECT_TRUE(tree.empty());
}

TEST(PrTreeTest, TruncatedLeafSpillsPastInlineCapacity) {
  // At max_depth the leaf absorbs unbounded overflow — more points than
  // the inline buffer holds, forcing the heap-spill path and exercising
  // erase back down through the un-spill threshold.
  PrTreeOptions options;
  options.capacity = 1;
  options.max_depth = 2;
  PrQuadtree tree(geo::Box2::UnitCube(), options);
  std::vector<Point2> points;
  Pcg32 rng(42);
  // All in one depth-2 quadrant: [0, 0.25) x [0, 0.25).
  for (size_t i = 0; i < 24; ++i) {
    Point2 p(rng.NextDouble() * 0.25, rng.NextDouble() * 0.25);
    if (tree.Insert(p).ok()) points.push_back(p);
  }
  ASSERT_GT(points.size(), tree.LaneCapacity());
  Census census = TakeCensus(tree);
  EXPECT_EQ(census.MaxOccupancy(), points.size());
  EXPECT_EQ(tree.LiveCensus(), census);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  for (const Point2& p : points) {
    EXPECT_TRUE(tree.Contains(p));
  }
  while (!points.empty()) {
    ASSERT_TRUE(tree.Erase(points.back()).ok());
    points.pop_back();
    ASSERT_TRUE(tree.CheckInvariants().ok());
  }
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.LeafCount(), 1u);
}

TEST(PrTreeTest, ReserveForPointsPresizesTheArena) {
  PrQuadtree tree(geo::Box2::UnitCube());
  tree.ReserveForPoints(10000);
  Pcg32 rng(9);
  for (size_t i = 0; i < 1000; ++i) {
    (void)tree.Insert(Point2(rng.NextDouble(), rng.NextDouble()));
  }
  EXPECT_EQ(tree.size(), 1000u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

// ---- InsertBatch -------------------------------------------------------

TEST(PrTreeBatchTest, MatchesSequentialBuild) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Pcg32 rng(seed);
    PrQuadtree seq = MakeTree(1 + seed % 8);
    PrQuadtree bat = MakeTree(1 + seed % 8);
    std::vector<Point2> pts;
    for (size_t i = 0; i < 2000; ++i) {
      pts.push_back(Point2(rng.NextDouble(), rng.NextDouble()));
    }
    size_t inserted = 0;
    for (const Point2& p : pts) {
      if (seq.Insert(p).ok()) ++inserted;
    }
    BatchInsertStats stats = bat.InsertBatch(pts);
    EXPECT_EQ(stats.inserted, inserted);
    EXPECT_EQ(stats.duplicates, 0u);
    EXPECT_EQ(stats.out_of_bounds, 0u);
    EXPECT_EQ(bat.size(), seq.size());
    EXPECT_EQ(bat.LeafCount(), seq.LeafCount());
    EXPECT_TRUE(bat.CheckInvariants().ok()) << "seed " << seed;
    // Canonical decomposition: identical census.
    EXPECT_EQ(bat.LiveCensus(), seq.LiveCensus()) << "seed " << seed;
  }
}

TEST(PrTreeBatchTest, CountsDuplicatesAndOutOfBounds) {
  PrQuadtree tree = MakeTree(4);
  ASSERT_TRUE(tree.Insert(Point2(0.5, 0.5)).ok());
  const std::vector<Point2> batch = {
      Point2(0.1, 0.1), Point2(0.5, 0.5),   // duplicate of stored point
      Point2(0.1, 0.1),                     // duplicate within the batch
      Point2(1.5, 0.5), Point2(-0.1, 0.2),  // out of bounds
  };
  BatchInsertStats stats = tree.InsertBatch(batch);
  EXPECT_EQ(stats.inserted, 1u);
  EXPECT_EQ(stats.duplicates, 2u);
  EXPECT_EQ(stats.out_of_bounds, 2u);
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(PrTreeBatchTest, IncrementalBatchOntoExistingTree) {
  Pcg32 rng(77);
  PrQuadtree seq = MakeTree(4);
  PrQuadtree mix = MakeTree(4);
  std::vector<Point2> pts;
  for (size_t i = 0; i < 3000; ++i) {
    pts.push_back(Point2(rng.NextDouble(), rng.NextDouble()));
  }
  for (const Point2& p : pts) (void)seq.Insert(p);
  for (size_t i = 0; i < 1500; ++i) (void)mix.Insert(pts[i]);
  std::vector<Point2> rest(pts.begin() + 1500, pts.end());
  (void)mix.InsertBatch(rest);
  EXPECT_EQ(mix.size(), seq.size());
  EXPECT_EQ(mix.LiveCensus(), seq.LiveCensus());
  EXPECT_TRUE(mix.CheckInvariants().ok());
}

TEST(PrTreeBatchTest, BucketSortPathMatchesSequentialBuild) {
  // Batches of 4096+ points take the bucket-scatter sort. Mix in a tight
  // cluster (one bucket far past the insertion-sort size), in-batch
  // duplicates and out-of-bounds points, onto an empty and a loaded tree.
  const auto less = [](const Point2& a, const Point2& b) {
    return a[0] != b[0] ? a[0] < b[0] : a[1] < b[1];
  };
  Pcg32 rng(4096);
  std::vector<Point2> pts;
  for (size_t i = 0; i < 20000; ++i) {
    const uint32_t kind = rng.NextBounded(20);
    if (kind < 2) {
      pts.push_back(Point2(0.3 + rng.NextDouble() * 1e-7,
                           0.6 + rng.NextDouble() * 1e-7));
    } else if (kind == 2 && !pts.empty()) {
      pts.push_back(pts[rng.NextBounded(static_cast<uint32_t>(pts.size()))]);
    } else if (kind == 3 && i % 4 == 0) {
      pts.push_back(Point2(1.0 + rng.NextDouble(), rng.NextDouble()));
    } else {
      pts.push_back(Point2(rng.NextDouble(), rng.NextDouble()));
    }
  }
  for (const size_t preloaded : {size_t{0}, size_t{5000}}) {
    PrQuadtree seq = MakeTree(4, 64);
    PrQuadtree bat = MakeTree(4, 64);
    for (size_t i = 0; i < preloaded; ++i) {
      (void)seq.Insert(pts[i]);
      (void)bat.Insert(pts[i]);
    }
    BatchInsertStats expected;
    for (size_t i = preloaded; i < pts.size(); ++i) {
      const Status s = seq.Insert(pts[i]);
      if (s.ok()) {
        ++expected.inserted;
      } else if (s.code() == StatusCode::kAlreadyExists) {
        ++expected.duplicates;
      } else {
        ++expected.out_of_bounds;
      }
    }
    const std::vector<Point2> batch(pts.begin() + preloaded, pts.end());
    const BatchInsertStats stats = bat.InsertBatch(batch);
    EXPECT_EQ(stats.inserted, expected.inserted) << preloaded;
    EXPECT_EQ(stats.duplicates, expected.duplicates) << preloaded;
    EXPECT_EQ(stats.out_of_bounds, expected.out_of_bounds) << preloaded;
    EXPECT_GT(stats.duplicates, 0u);
    EXPECT_GT(stats.out_of_bounds, 0u);
    EXPECT_EQ(bat.LiveCensus(), seq.LiveCensus()) << preloaded;
    EXPECT_TRUE(bat.CheckInvariants().ok()) << preloaded;
    std::vector<Point2> got = bat.AllPoints();
    std::vector<Point2> want = seq.AllPoints();
    std::sort(got.begin(), got.end(), less);
    std::sort(want.begin(), want.end(), less);
    EXPECT_EQ(got, want) << preloaded;
  }
}

TEST(PrTreeBatchTest, EmptyAndAllRejectedBatches) {
  PrQuadtree tree = MakeTree(2);
  EXPECT_EQ(tree.InsertBatch({}).inserted, 0u);
  const std::vector<Point2> oob = {Point2(2.0, 2.0), Point2(-1.0, 0.0)};
  BatchInsertStats stats = tree.InsertBatch(oob);
  EXPECT_EQ(stats.inserted, 0u);
  EXPECT_EQ(stats.out_of_bounds, 2u);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(PrTreeBatchTest, NoMidBatchArenaGrowthAt1e5) {
  // The satellite acceptance test: the run-length reserve estimate must
  // absorb a 100k bulk load without adding a pool chunk mid-batch.
  Pcg32 rng(123);
  PrTreeOptions options;
  options.capacity = 8;
  PrQuadtree tree(Box2::UnitCube(), options);
  std::vector<Point2> pts;
  pts.reserve(100000);
  for (size_t i = 0; i < 100000; ++i) {
    pts.push_back(Point2(rng.NextDouble(), rng.NextDouble()));
  }
  const size_t growths_before = tree.PoolGrowthCount();
  BatchInsertStats stats = tree.InsertBatch(pts);
  EXPECT_EQ(tree.PoolGrowthCount(), growths_before)
      << "pool grew mid-batch";
  EXPECT_EQ(stats.inserted + stats.duplicates, pts.size());
  EXPECT_EQ(tree.size(), stats.inserted);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

}  // namespace
}  // namespace popan::spatial
