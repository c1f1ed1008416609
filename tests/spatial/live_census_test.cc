// Property tests for the incremental (live) censuses: after any
// interleaving of inserts and erases, LiveCensus() must be bit-identical
// to the census obtained by walking the structure — across dimensions,
// capacities, truncation, full teardown (post-collapse), and for the
// extendible hash through splits, buddy merges, and directory shrink.

#include <cstdint>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"
#include "gtest/gtest.h"
#include "spatial/census.h"
#include "spatial/extendible_hash.h"
#include "spatial/pr_tree.h"
#include "util/random.h"

namespace popan::spatial {
namespace {

template <size_t D>
geo::Point<D> RandomPoint(Pcg32& rng) {
  geo::Point<D> p;
  for (size_t i = 0; i < D; ++i) p[i] = rng.NextDouble();
  return p;
}

/// Runs a random insert/erase interleaving on a PrTree<D> and checks the
/// live census against the walked census throughout and after teardown.
template <size_t D>
void RunTreeStorm(size_t capacity, size_t max_depth, uint64_t seed) {
  PrTreeOptions options;
  options.capacity = capacity;
  options.max_depth = max_depth;
  PrTree<D> tree(geo::Box<D>::UnitCube(), options);
  Pcg32 rng(seed);
  std::vector<geo::Point<D>> live;

  for (size_t op = 0; op < 400; ++op) {
    // 60% inserts, 40% erases of a tracked live point.
    if (live.empty() || rng.NextBounded(10) < 6) {
      geo::Point<D> p = RandomPoint<D>(rng);
      if (tree.Insert(p).ok()) live.push_back(p);
    } else {
      size_t victim = rng.NextBounded(static_cast<uint32_t>(live.size()));
      ASSERT_TRUE(tree.Erase(live[victim]).ok());
      live[victim] = live.back();
      live.pop_back();
    }
    if (op % 16 == 0) {
      ASSERT_EQ(tree.LiveCensus(), TakeCensus(tree))
          << "D=" << D << " m=" << capacity << " op=" << op;
    }
  }
  EXPECT_EQ(tree.LiveCensus(), TakeCensus(tree));
  EXPECT_TRUE(tree.CheckInvariants().ok());

  // Tear everything down: collapses all the way back to a lone empty
  // root leaf, which the live histogram must reflect exactly.
  while (!live.empty()) {
    ASSERT_TRUE(tree.Erase(live.back()).ok());
    live.pop_back();
  }
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.LeafCount(), 1u);
  Census empty_census = tree.LiveCensus();
  EXPECT_EQ(empty_census, TakeCensus(tree));
  EXPECT_EQ(empty_census.LeafCount(), 1u);
  EXPECT_EQ(empty_census.CountAt(0, 0), 1u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(LiveCensusTest, MatchesWalkedCensusAcrossDimensionsAndCapacities) {
  uint64_t seed = 1987;
  for (size_t m = 1; m <= 8; ++m) {
    RunTreeStorm<1>(m, 64, DeriveSeed(seed, m));
    RunTreeStorm<2>(m, 64, DeriveSeed(seed, 100 + m));
    RunTreeStorm<3>(m, 64, DeriveSeed(seed, 200 + m));
  }
}

TEST(LiveCensusTest, MatchesUnderTruncation) {
  // max_depth 3 forces leaves at the depth limit to absorb overflow —
  // occupancies above m, the regime where inline buffers spill.
  for (size_t m = 1; m <= 4; ++m) {
    RunTreeStorm<2>(m, 3, DeriveSeed(2024, m));
  }
}

TEST(LiveCensusTest, EmptyTreeCensus) {
  PrQuadtree tree(geo::Box2::UnitCube());
  Census census = tree.LiveCensus();
  EXPECT_EQ(census.LeafCount(), 1u);
  EXPECT_EQ(census.ItemCount(), 0u);
  EXPECT_EQ(census, TakeCensus(tree));
}

TEST(LiveCensusTest, ClearResetsTheHistogram) {
  PrQuadtree tree(geo::Box2::UnitCube());
  Pcg32 rng(7);
  for (size_t i = 0; i < 200; ++i) {
    (void)tree.Insert(RandomPoint<2>(rng));
  }
  tree.Clear();
  EXPECT_EQ(tree.LiveCensus(), TakeCensus(tree));
  EXPECT_EQ(tree.LiveCensus().LeafCount(), 1u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(LiveCensusTest, ExtendibleHashStorm) {
  ExtendibleHashOptions options;
  options.bucket_capacity = 2;  // small buckets force frequent splits
  ExtendibleHash table(options);
  Pcg32 rng(1987);
  std::vector<uint64_t> live;
  for (size_t op = 0; op < 600; ++op) {
    if (live.empty() || rng.NextBounded(10) < 6) {
      uint64_t key = rng.Next64();
      if (table.Insert(key).ok()) live.push_back(key);
    } else {
      size_t victim = rng.NextBounded(static_cast<uint32_t>(live.size()));
      ASSERT_TRUE(table.Erase(live[victim]).ok());
      live[victim] = live.back();
      live.pop_back();
    }
    if (op % 16 == 0) {
      ASSERT_EQ(table.LiveCensus(), TakeBucketCensus(table)) << "op " << op;
    }
  }
  EXPECT_EQ(table.LiveCensus(), TakeBucketCensus(table));
  EXPECT_TRUE(table.CheckInvariants().ok());

  // Full teardown: merges cascade and the directory shrinks back to one
  // bucket at local depth 0.
  while (!live.empty()) {
    ASSERT_TRUE(table.Erase(live.back()).ok());
    live.pop_back();
  }
  EXPECT_EQ(table.GlobalDepth(), 0u);
  Census census = table.LiveCensus();
  EXPECT_EQ(census, TakeBucketCensus(table));
  EXPECT_EQ(census.LeafCount(), 1u);
  EXPECT_EQ(census.CountAt(0, 0), 1u);
  EXPECT_TRUE(table.CheckInvariants().ok());
}

TEST(LiveCensusTest, CensusEqualityIgnoresTrailingZeros) {
  Census a;
  a.AddLeaves(2, 1, 3);
  Census b;
  b.AddLeaf(2, 1);
  b.AddLeaf(2, 1);
  b.AddLeaf(2, 1);
  EXPECT_EQ(a, b);
  b.AddLeaf(0, 0);
  EXPECT_NE(a, b);
}

TEST(LiveCensusTest, AddLeavesMatchesRepeatedAddLeaf) {
  Census bulk;
  bulk.AddLeaves(3, 2, 5);
  bulk.AddLeaves(0, 4, 2);
  Census singles;
  for (int i = 0; i < 5; ++i) singles.AddLeaf(3, 2);
  for (int i = 0; i < 2; ++i) singles.AddLeaf(0, 4);
  EXPECT_EQ(bulk, singles);
  EXPECT_EQ(bulk.LeafCount(), 7u);
  EXPECT_EQ(bulk.ItemCount(), 15u);
  EXPECT_EQ(bulk.CountAt(3, 2), 5u);
  EXPECT_EQ(bulk.CountAt(0, 4), 2u);
}

}  // namespace
}  // namespace popan::spatial
