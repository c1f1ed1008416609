// Property tests for the incremental (live) censuses: after any
// interleaving of inserts and erases, LiveCensus() must be bit-identical
// to the census obtained by walking the structure — across dimensions,
// capacities, truncation, full teardown (post-collapse), and for the
// extendible hash through splits, buddy merges, and directory shrink.
// The tree storms drive the in-place PrTree and the copy-on-write
// CowPrTree through the same operations: the two share one writer, so
// their censuses, leaf shapes and within-leaf point orders must agree.

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"
#include "gtest/gtest.h"
#include "spatial/census.h"
#include "spatial/extendible_hash.h"
#include "spatial/pr_tree.h"
#include "spatial/snapshot_view.h"
#include "util/random.h"
#include "util/status.h"

namespace popan::spatial {
namespace {

template <size_t D>
geo::Point<D> RandomPoint(Pcg32& rng) {
  geo::Point<D> p;
  for (size_t i = 0; i < D; ++i) p[i] = rng.NextDouble();
  return p;
}

/// (depth, occupancy) of every leaf, in preorder.
template <typename Tree>
std::vector<std::pair<size_t, size_t>> LeafShape(const Tree& tree) {
  std::vector<std::pair<size_t, size_t>> shape;
  tree.VisitLeaves([&shape](const auto& /*box*/, size_t depth,
                            size_t occupancy) {
    shape.emplace_back(depth, occupancy);
  });
  return shape;
}

/// The snapshot tree's newest version must be the in-place tree: same
/// live census, leaf shape, and points in the same within-leaf order.
template <size_t D>
void ExpectSameTree(const PrTree<D>& tree, const CowPrTree<D>& cow) {
  SnapshotView<D> view = cow.Snapshot();
  EXPECT_EQ(tree.LiveCensus(), cow.LiveCensus());
  EXPECT_EQ(tree.LiveCensus(), view.LiveCensus());
  EXPECT_EQ(LeafShape(tree), LeafShape(view));
  EXPECT_EQ(tree.AllPoints(), view.AllPoints());
}

/// A duplicate insert and an absent erase fail on both trees, and the
/// snapshot tree neither publishes nor retires anything for them: its
/// path copy happens only once an operation is known to succeed.
template <size_t D>
void ExpectFailedWritesAreInert(PrTree<D>& tree, CowPrTree<D>& cow,
                                const geo::Point<D>& stored,
                                const geo::Point<D>& absent) {
  const uint64_t sequence = cow.sequence();
  const uint64_t retired = cow.epochs().objects_retired();
  const uint64_t advanced = cow.epochs().epochs_advanced();
  EXPECT_EQ(tree.Insert(stored).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(cow.Insert(stored).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(tree.Erase(absent).code(), StatusCode::kNotFound);
  EXPECT_EQ(cow.Erase(absent).code(), StatusCode::kNotFound);
  EXPECT_EQ(cow.sequence(), sequence);
  EXPECT_EQ(cow.epochs().objects_retired(), retired);
  EXPECT_EQ(cow.epochs().epochs_advanced(), advanced);
}

/// Runs a random insert/erase interleaving on a PrTree<D> and a
/// CowPrTree<D> side by side and checks the live census against the
/// walked census, and the two trees against each other, throughout and
/// after teardown.
template <size_t D>
void RunTreeStorm(size_t capacity, size_t max_depth, uint64_t seed) {
  PrTreeOptions options;
  options.capacity = capacity;
  options.max_depth = max_depth;
  PrTree<D> tree(geo::Box<D>::UnitCube(), options);
  CowPrTree<D> cow(geo::Box<D>::UnitCube(), options);
  Pcg32 rng(seed);
  std::vector<geo::Point<D>> live;

  for (size_t op = 0; op < 400; ++op) {
    // 60% inserts, 40% erases of a tracked live point.
    if (live.empty() || rng.NextBounded(10) < 6) {
      geo::Point<D> p = RandomPoint<D>(rng);
      const Status inserted = tree.Insert(p);
      ASSERT_EQ(cow.Insert(p).code(), inserted.code());
      if (inserted.ok()) live.push_back(p);
    } else {
      size_t victim = rng.NextBounded(static_cast<uint32_t>(live.size()));
      ASSERT_TRUE(tree.Erase(live[victim]).ok());
      ASSERT_TRUE(cow.Erase(live[victim]).ok());
      live[victim] = live.back();
      live.pop_back();
    }
    if (op % 16 == 0) {
      ASSERT_EQ(tree.LiveCensus(), TakeCensus(tree))
          << "D=" << D << " m=" << capacity << " op=" << op;
      ASSERT_NO_FATAL_FAILURE(ExpectSameTree(tree, cow))
          << "D=" << D << " m=" << capacity << " op=" << op;
      if (!live.empty()) {
        const geo::Point<D>& stored = live[op % live.size()];
        geo::Point<D> absent = stored;
        absent[0] = std::nextafter(absent[0], 1.0);
        ASSERT_NO_FATAL_FAILURE(
            ExpectFailedWritesAreInert(tree, cow, stored, absent))
            << "D=" << D << " m=" << capacity << " op=" << op;
      }
    }
  }
  EXPECT_EQ(tree.LiveCensus(), TakeCensus(tree));
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_TRUE(cow.CheckInvariants().ok());

  // Tear everything down: collapses all the way back to a lone empty
  // root leaf, which the live histogram must reflect exactly.
  while (!live.empty()) {
    ASSERT_TRUE(tree.Erase(live.back()).ok());
    ASSERT_TRUE(cow.Erase(live.back()).ok());
    live.pop_back();
  }
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.LeafCount(), 1u);
  EXPECT_EQ(cow.size(), 0u);
  EXPECT_EQ(cow.LeafCount(), 1u);
  Census empty_census = tree.LiveCensus();
  EXPECT_EQ(empty_census, TakeCensus(tree));
  EXPECT_EQ(empty_census.LeafCount(), 1u);
  EXPECT_EQ(empty_census.CountAt(0, 0), 1u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_TRUE(cow.CheckInvariants().ok());
  ExpectSameTree(tree, cow);
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
