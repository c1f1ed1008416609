#include "shard/router.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"
#include "query/query.h"
#include "shard/key_range.h"
#include "spatial/snapshot_view.h"
#include "testing/statusor_testing.h"
#include "util/random.h"

namespace popan::shard {
namespace {

using geo::Box2;
using geo::Point2;

std::vector<Point2> RandomPoints(uint64_t seed, size_t n,
                                 const Box2& domain) {
  Pcg32 rng(seed);
  std::vector<Point2> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    points.emplace_back(
        rng.NextDouble(domain.lo().x(), domain.hi().x()),
        rng.NextDouble(domain.lo().y(), domain.hi().y()));
  }
  return points;
}

/// Executes `spec` against both the router and a single reference tree
/// holding the same points and expects bitwise-identical result points.
void ExpectParity(const ShardRouter& router,
                  const spatial::CowPrQuadtree& reference,
                  const query::QuerySpec& spec) {
  MultiSnapshot multi = router.Snapshot();
  spatial::SnapshotView2 single = reference.Snapshot();
  query::QueryResult sharded = Execute(multi, spec);
  query::QueryResult flat = query::Execute(single, spec);
  ASSERT_EQ(sharded.points.size(), flat.points.size()) << spec.ToString();
  for (size_t i = 0; i < flat.points.size(); ++i) {
    EXPECT_EQ(sharded.points[i].x(), flat.points[i].x()) << spec.ToString();
    EXPECT_EQ(sharded.points[i].y(), flat.points[i].y()) << spec.ToString();
  }
}

TEST(ShardRouterTest, StartsAsOneFullRangeShard) {
  ShardRouter router(Box2::UnitCube(), RouterOptions{});
  EXPECT_EQ(router.shard_count(), 1u);
  EXPECT_FALSE(router.durable());
  std::vector<ShardInfo> shards = router.Shards();
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_TRUE(shards[0].range.IsFullDomain());
  EXPECT_EQ(shards[0].size, 0u);
}

TEST(ShardRouterTest, TypedWriteErrors) {
  ShardRouter router(Box2::UnitCube(), RouterOptions{});
  EXPECT_EQ(router.Insert(Point2(std::nan(""), 0.5)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(router.Insert(Point2(1.5, 0.5)).code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(router.Insert(Point2(0.25, 0.25)).ok());
  EXPECT_EQ(router.Insert(Point2(0.25, 0.25)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(router.Erase(Point2(0.75, 0.75)).code(), StatusCode::kNotFound);
  // Failed writes burn no sequence numbers.
  EXPECT_EQ(router.sequence(), 1u);
  EXPECT_EQ(router.size(), 1u);
}

TEST(ShardRouterTest, SplitPreservesQueryParity) {
  Box2 domain = Box2::UnitCube();
  ShardRouter router(domain, RouterOptions{});
  spatial::CowPrQuadtree reference(domain);
  for (const Point2& p : RandomPoints(41, 500, domain)) {
    ASSERT_TRUE(router.Insert(p).ok());
    ASSERT_TRUE(reference.Insert(p).ok());
  }
  ASSERT_TRUE(router.SplitShard(0).ok());
  EXPECT_EQ(router.shard_count(), 2u);
  ASSERT_TRUE(router.SplitShard(1).ok());
  ASSERT_TRUE(router.SplitShard(0).ok());
  EXPECT_EQ(router.shard_count(), 4u);

  // The shard map still tiles the key space.
  std::vector<ShardInfo> shards = router.Shards();
  uint64_t expect_lo = 0;
  size_t total = 0;
  for (const ShardInfo& s : shards) {
    EXPECT_EQ(s.range.lo, expect_lo);
    expect_lo = s.range.hi;
    total += s.size;
  }
  EXPECT_EQ(expect_lo, kShardKeyEnd);
  EXPECT_EQ(total, 500u);

  Pcg32 rng(43);
  for (int i = 0; i < 40; ++i) {
    Point2 lo(rng.NextDouble(0.0, 0.8), rng.NextDouble(0.0, 0.8));
    Point2 hi(lo.x() + rng.NextDouble(0.01, 0.2),
              lo.y() + rng.NextDouble(0.01, 0.2));
    ExpectParity(router, reference, query::QuerySpec::Range(Box2(lo, hi)));
    ExpectParity(router, reference,
                 query::QuerySpec::PartialMatch(i % 2, rng.NextDouble()));
    ExpectParity(router, reference,
                 query::QuerySpec::NearestK(
                     Point2(rng.NextDouble(), rng.NextDouble()),
                     1 + i % 16));
  }
}

TEST(ShardRouterTest, SplitBalancesPopulation) {
  Box2 domain = Box2::UnitCube();
  ShardRouter router(domain, RouterOptions{});
  for (const Point2& p : RandomPoints(47, 1000, domain)) {
    ASSERT_TRUE(router.Insert(p).ok());
  }
  ASSERT_TRUE(router.SplitShard(0).ok());
  std::vector<ShardInfo> shards = router.Shards();
  ASSERT_EQ(shards.size(), 2u);
  // The census-median cut lands near half on uniform data (leaf
  // granularity bounds the error well under 25% here).
  EXPECT_GT(shards[0].size, 250u);
  EXPECT_GT(shards[1].size, 250u);
}

TEST(ShardRouterTest, WritesRouteToTheOwningShard) {
  Box2 domain = Box2::UnitCube();
  ShardRouter router(domain, RouterOptions{});
  std::vector<Point2> points = RandomPoints(53, 400, domain);
  for (const Point2& p : points) ASSERT_TRUE(router.Insert(p).ok());
  ASSERT_TRUE(router.SplitShard(0).ok());
  ASSERT_TRUE(router.SplitShard(0).ok());

  // Erase half through the sharded path, insert some fresh ones.
  for (size_t i = 0; i < points.size(); i += 2) {
    ASSERT_TRUE(router.Erase(points[i]).ok());
  }
  for (const Point2& p : RandomPoints(59, 100, domain)) {
    ASSERT_TRUE(router.Insert(p).ok());
  }

  // Every shard's points belong to its key range.
  MultiSnapshot snapshot = router.Snapshot();
  size_t total = 0;
  for (const MultiSnapshot::Entry& e : snapshot.entries()) {
    for (const Point2& p : e.view.AllPoints()) {
      EXPECT_TRUE(e.range.Contains(ShardKeyOfPoint(domain, p)));
      ++total;
    }
  }
  EXPECT_EQ(total, 300u);
  EXPECT_EQ(snapshot.size(), 300u);
}

TEST(ShardRouterTest, UnsplittableClusterRefusesWithTypedStatus) {
  // Every point in one kMaxDepth Morton block: no interior leaf boundary
  // exists, so the split must refuse with FailedPrecondition — not spin,
  // not crash.
  Box2 domain = Box2::UnitCube();
  ShardRouter router(domain, RouterOptions{});
  double base = 0.5;
  double eps = 0x1.0p-40;  // well inside one 2^-31 block
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(router.Insert(Point2(base + i * eps, base)).ok());
  }
  Status split = router.SplitShard(0);
  EXPECT_EQ(split.code(), StatusCode::kFailedPrecondition) << split.ToString();
  EXPECT_EQ(router.shard_count(), 1u);

  // Fewer than two points is equally unsplittable.
  ShardRouter tiny(domain, RouterOptions{});
  ASSERT_TRUE(tiny.Insert(Point2(0.5, 0.5)).ok());
  EXPECT_EQ(tiny.SplitShard(0).code(), StatusCode::kFailedPrecondition);
}

TEST(ShardRouterTest, MergeToSingleShardRoundTrips) {
  Box2 domain = Box2::UnitCube();
  ShardRouter router(domain, RouterOptions{});
  spatial::CowPrQuadtree reference(domain);
  for (const Point2& p : RandomPoints(61, 300, domain)) {
    ASSERT_TRUE(router.Insert(p).ok());
    ASSERT_TRUE(reference.Insert(p).ok());
  }
  ASSERT_TRUE(router.SplitShard(0).ok());
  ASSERT_TRUE(router.SplitShard(1).ok());
  ASSERT_TRUE(router.SplitShard(0).ok());
  ASSERT_EQ(router.shard_count(), 4u);

  // Merge all the way back down to one shard.
  ASSERT_TRUE(router.MergeShards(2).ok());
  ASSERT_TRUE(router.MergeShards(0).ok());
  ASSERT_TRUE(router.MergeShards(0).ok());
  ASSERT_EQ(router.shard_count(), 1u);
  std::vector<ShardInfo> shards = router.Shards();
  EXPECT_TRUE(shards[0].range.IsFullDomain());
  EXPECT_EQ(shards[0].size, 300u);
  EXPECT_EQ(router.merges(), 3u);

  ExpectParity(router, reference,
               query::QuerySpec::Range(Box2::UnitCube()));
  // Merging the only shard is a typed error, not a crash.
  EXPECT_EQ(router.MergeShards(0).code(), StatusCode::kInvalidArgument);
}

TEST(ShardRouterTest, PinnedReaderSurvivesSplitAndMerge) {
  // A reader pinned before a rebalance keeps its pre-rebalance view:
  // shared shard ownership keeps replaced trees alive until the pin
  // drops.
  Box2 domain = Box2::UnitCube();
  ShardRouter router(domain, RouterOptions{});
  std::vector<Point2> points = RandomPoints(67, 200, domain);
  for (const Point2& p : points) ASSERT_TRUE(router.Insert(p).ok());

  MultiSnapshot pinned = router.Snapshot();
  ASSERT_TRUE(router.SplitShard(0).ok());
  ASSERT_TRUE(router.Insert(Point2(0.123456, 0.654321)).ok());
  ASSERT_TRUE(router.MergeShards(0).ok());

  // The pinned view still answers with the pre-split point set.
  query::QueryResult before =
      Execute(pinned, query::QuerySpec::Range(Box2::UnitCube()));
  EXPECT_EQ(before.points.size(), 200u);
  // A fresh view sees the post-rebalance world.
  query::QueryResult after = Execute(
      router.Snapshot(), query::QuerySpec::Range(Box2::UnitCube()));
  EXPECT_EQ(after.points.size(), 201u);
}

TEST(ShardRouterTest, SnapshotExhaustionIsTypedAndRecovers) {
  RouterOptions options;
  options.epoch_readers = 2;
  ShardRouter router(Box2::UnitCube(), options);
  ASSERT_TRUE(router.Insert(Point2(0.5, 0.5)).ok());
  std::optional<MultiSnapshot> a(router.Snapshot());
  std::optional<MultiSnapshot> b(router.Snapshot());
  StatusOr<MultiSnapshot> c = router.TrySnapshot();
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  a.reset();
  EXPECT_TRUE(router.TrySnapshot().ok());
}

TEST(ShardRouterTest, SplitAndMergeNeedNoFreeReaderSlot) {
  // Readers holding every slot used to make a split or merge fail, and
  // the balancer skipped it; the writer now reads its own version.
  RouterOptions options;
  options.epoch_readers = 2;
  ShardRouter router(Box2::UnitCube(), options);
  for (const Point2& p : RandomPoints(83, 200, Box2::UnitCube())) {
    ASSERT_TRUE(router.Insert(p).ok());
  }
  std::optional<MultiSnapshot> a(router.Snapshot());
  std::optional<MultiSnapshot> b(router.Snapshot());
  ASSERT_FALSE(router.TrySnapshot().ok());
  ASSERT_TRUE(router.SplitShard(0).ok());
  EXPECT_EQ(router.shard_count(), 2u);
  // The new shards' slots are free; pin them too before the merge.
  std::optional<MultiSnapshot> c(router.Snapshot());
  std::optional<MultiSnapshot> d(router.Snapshot());
  ASSERT_TRUE(router.MergeShards(0).ok());
  EXPECT_EQ(router.shard_count(), 1u);
  EXPECT_EQ(Execute(*a, query::QuerySpec::Range(Box2::UnitCube()))
                .points.size(),
            200u);
  a.reset();
  EXPECT_EQ(Execute(router.Snapshot(),
                    query::QuerySpec::Range(Box2::UnitCube()))
                .points.size(),
            200u);
}

TEST(ShardRouterTest, NearestKParityAcrossShardBoundaries) {
  // Targets right on shard boundaries exercise the cross-shard candidate
  // merge; ties resolve by the canonical (distance², x, y) key.
  Box2 domain = Box2::UnitCube();
  ShardRouter router(domain, RouterOptions{});
  spatial::CowPrQuadtree reference(domain);
  for (const Point2& p : RandomPoints(71, 600, domain)) {
    ASSERT_TRUE(router.Insert(p).ok());
    ASSERT_TRUE(reference.Insert(p).ok());
  }
  for (int s = 0; s < 5; ++s) ASSERT_TRUE(router.SplitShard(0).ok());
  Pcg32 rng(73);
  for (int i = 0; i < 30; ++i) {
    Point2 target(rng.NextDouble(), rng.NextDouble());
    ExpectParity(router, reference,
                 query::QuerySpec::NearestK(target, 1 + i));
  }
  // k larger than the population returns everything, in the same order.
  ExpectParity(router, reference,
               query::QuerySpec::NearestK(Point2(0.5, 0.5), 1000));
}

}  // namespace
}  // namespace popan::shard
