// ServerCore over ShardStoreBackend: the sharded store behind the
// unchanged wire protocol. Every answer's POINTS must be bitwise equal
// to the single-tree backend's (the canonical-merge contract); write
// status codes, sequence stamps, and batch accounting must match too.
// Cost counters are exempt — they sum per-shard traversals.

#include "server/shard_store.h"

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/query_model.h"
#include "geometry/box.h"
#include "geometry/point.h"
#include "server/cow_store.h"
#include "server/protocol.h"
#include "server/server_core.h"
#include "shard/router.h"
#include "spatial/census.h"
#include "spatial/pr_tree.h"
#include "testing/server_testing.h"
#include "testing/statusor_testing.h"
#include "util/random.h"
#include "util/status.h"

namespace popan::server {
namespace {

using geo::Box2;
using geo::Point2;
using popan::ValueOrDie;

Box2 UnitDomain() { return Box2(Point2(0.0, 0.0), Point2(1.0, 1.0)); }

spatial::PrTreeOptions SmallTree() {
  spatial::PrTreeOptions options;
  options.capacity = 2;
  options.max_depth = 12;
  return options;
}

/// A single-tree core and a sharded core driven in lockstep, plus a raw
/// handle to the router so tests can force splits/merges mid-stream.
struct BackendPair {
  std::unique_ptr<ServerCore> single;
  std::unique_ptr<ServerCore> sharded;
  shard::ShardRouter* router = nullptr;
  uint64_t single_client = 0;
  uint64_t sharded_client = 0;
};

BackendPair MakePair() {
  BackendPair pair;
  pair.single = std::make_unique<ServerCore>(
      std::make_unique<CowTreeBackend>(UnitDomain(), SmallTree()));
  shard::RouterOptions router_options;
  router_options.tree = SmallTree();
  auto router =
      std::make_unique<shard::ShardRouter>(UnitDomain(), router_options);
  pair.router = router.get();
  pair.sharded = std::make_unique<ServerCore>(
      std::make_unique<ShardStoreBackend>(std::move(router)));
  pair.single_client = pair.single->OpenClient();
  pair.sharded_client = pair.sharded->OpenClient();
  return pair;
}

/// Sends `request` to both cores; returns their answers.
std::pair<Response, Response> AskBoth(BackendPair* pair,
                                      const Request& request) {
  return {Ask(pair->single.get(), pair->single_client, request),
          Ask(pair->sharded.get(), pair->sharded_client, request)};
}

void ExpectSameAnswer(BackendPair* pair, const Request& request) {
  auto [a, b] = AskBoth(pair, request);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.sequence, b.sequence);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i], b.points[i]) << "divergence at point " << i;
  }
}

TEST(ShardBackendTest, QueriesMatchSingleTreeAcrossSplitsAndMerges) {
  BackendPair pair = MakePair();
  Pcg32 rng(211);
  std::vector<Point2> points;
  for (int i = 0; i < 400; ++i) {
    points.emplace_back(rng.NextDouble(), rng.NextDouble());
  }
  Request insert;
  insert.type = MsgType::kInsert;
  for (size_t i = 0; i < points.size(); ++i) {
    insert.point = points[i];
    AskBoth(&pair, insert);
    if (i == 100) {
      ASSERT_TRUE(pair.router->SplitShard(0).ok());
    }
    if (i == 200) {
      ASSERT_TRUE(pair.router->SplitShard(1).ok());
    }
    if (i == 300) {
      ASSERT_TRUE(pair.router->MergeShards(0).ok());
    }
  }
  ASSERT_GT(pair.router->shard_count(), 1u);
  EXPECT_EQ(pair.single->sequence(), pair.sharded->sequence());
  EXPECT_EQ(pair.single->size(), pair.sharded->size());

  for (int trial = 0; trial < 25; ++trial) {
    Point2 lo(rng.NextDouble(0.0, 0.8), rng.NextDouble(0.0, 0.8));
    Request range;
    range.type = MsgType::kRange;
    range.box = Box2(lo, Point2(lo.x() + rng.NextDouble(0.05, 0.4),
                                lo.y() + rng.NextDouble(0.05, 0.4)));
    ExpectSameAnswer(&pair, range);

    Request partial;
    partial.type = MsgType::kPartialMatch;
    partial.axis = trial % 2;
    partial.value = points[static_cast<size_t>(trial) * 7].x();
    ExpectSameAnswer(&pair, partial);

    Request knn;
    knn.type = MsgType::kNearestK;
    knn.point = Point2(rng.NextDouble(), rng.NextDouble());
    knn.k = 1 + trial;
    ExpectSameAnswer(&pair, knn);
  }

  // Census: the merged census aggregates per-shard trees, so structure
  // counters differ, but size and sequence are backend-invariant.
  Request census;
  census.type = MsgType::kCensus;
  auto [a, b] = AskBoth(&pair, census);
  EXPECT_EQ(a.size, b.size);
  EXPECT_EQ(a.sequence, b.sequence);

  // predicted_nodes rides along on sharded range answers too.
  Request range;
  range.type = MsgType::kRange;
  range.box = Box2(Point2(0.2, 0.2), Point2(0.4, 0.4));
  EXPECT_GT(Ask(pair.sharded.get(), pair.sharded_client, range)
                .predicted_nodes,
            0.0);
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST(ShardBackendTest, CensusAndPredictionEqualTheMergedWalks) {
  BackendPair pair = MakePair();
  Pcg32 rng(307);
  Request insert;
  insert.type = MsgType::kInsert;
  for (int i = 0; i < 300; ++i) {
    insert.point = Point2(rng.NextDouble(), rng.NextDouble());
    Ask(pair.sharded.get(), pair.sharded_client, insert);
    if (i == 100) {
      ASSERT_TRUE(pair.router->SplitShard(0).ok());
    }
    if (i == 200) {
      ASSERT_TRUE(pair.router->SplitShard(1).ok());
    }
  }
  ASSERT_GT(pair.router->shard_count(), 2u);

  // What the answers must carry, from fresh walks of the pinned shards.
  const shard::MultiSnapshot cut = pair.router->Snapshot();
  spatial::Census walked;
  for (const shard::MultiSnapshot::Entry& entry : cut.entries()) {
    walked.Merge(spatial::TakeCensus(entry.view));
  }
  ASSERT_GT(walked.MaxDepth(), 0u);

  Request census;
  census.type = MsgType::kCensus;
  const Response counted =
      Ask(pair.sharded.get(), pair.sharded_client, census);
  EXPECT_EQ(counted.sequence, cut.sequence());
  EXPECT_EQ(counted.leaf_count, walked.LeafCount());
  EXPECT_EQ(counted.max_depth, walked.MaxDepth());
  EXPECT_EQ(Bits(counted.average_occupancy), Bits(walked.AverageOccupancy()));

  Request range;
  range.type = MsgType::kRange;
  range.box = Box2(Point2(0.1, 0.3), Point2(0.45, 0.6));
  const core::QueryCostModel model =
      core::QueryCostModel::FromCensus(walked, UnitDomain());
  const Response ranged =
      Ask(pair.sharded.get(), pair.sharded_client, range);
  EXPECT_EQ(Bits(ranged.predicted_nodes),
            Bits(model.PredictRange(range.box.Extent(0), range.box.Extent(1))
                     .nodes));
}

TEST(ShardBackendTest, WriteErrorsAndBatchAccountingMatch) {
  BackendPair pair = MakePair();
  auto both = [&](const Request& r) {
    auto [ra, rb] = AskBoth(&pair, r);
    EXPECT_EQ(ra.status, rb.status);
    EXPECT_EQ(ra.sequence, rb.sequence);
    EXPECT_EQ(ra.inserted, rb.inserted);
    EXPECT_EQ(ra.duplicates, rb.duplicates);
    EXPECT_EQ(ra.rejected, rb.rejected);
    return std::pair<Response, Response>(ra, rb);
  };

  Request insert;
  insert.type = MsgType::kInsert;
  insert.point = Point2(0.5, 0.5);
  both(insert);
  // Duplicate -> AlreadyExists on both; no sequence burned.
  auto [dup_a, dup_b] = both(insert);
  EXPECT_EQ(dup_a.status, static_cast<uint8_t>(StatusCode::kAlreadyExists));
  // NaN -> InvalidArgument before either backend is touched.
  insert.point =
      Point2(std::numeric_limits<double>::quiet_NaN(), 0.5);
  auto [nan_a, nan_b] = both(insert);
  EXPECT_EQ(nan_a.status,
            static_cast<uint8_t>(StatusCode::kInvalidArgument));
  // Out-of-domain -> OutOfRange from both backends.
  insert.point = Point2(2.0, 2.0);
  both(insert);
  // Erase of a missing point -> NotFound.
  Request erase;
  erase.type = MsgType::kErase;
  erase.point = Point2(0.9, 0.9);
  auto [miss_a, miss_b] = both(erase);
  EXPECT_EQ(miss_a.status, static_cast<uint8_t>(StatusCode::kNotFound));
  // Batch: mixed duplicates and rejects account identically.
  Request batch;
  batch.type = MsgType::kInsertBatch;
  batch.batch = {Point2(0.1, 0.1), Point2(0.5, 0.5), Point2(3.0, 3.0),
                 Point2(0.2, 0.2)};
  auto [batch_a, batch_b] = both(batch);
  EXPECT_EQ(batch_a.inserted, 2u);
  EXPECT_EQ(batch_a.duplicates, 1u);
  EXPECT_EQ(batch_a.rejected, 1u);
  EXPECT_EQ(pair.single->sequence(), pair.sharded->sequence());
}

TEST(ShardBackendTest, PreparedReadPinsAcrossARebalance) {
  BackendPair pair = MakePair();
  Pcg32 rng(223);
  Request insert;
  insert.type = MsgType::kInsert;
  for (int i = 0; i < 100; ++i) {
    insert.point = Point2(rng.NextDouble(), rng.NextDouble());
    Ask(pair.sharded.get(), pair.sharded_client, insert);
  }
  Request all;
  all.type = MsgType::kRange;
  all.box = UnitDomain();
  std::unique_ptr<const ReadView> pinned = ValueOrDie(Pin(*pair.sharded));
  // Split the map and keep writing; the pinned view must not move.
  ASSERT_TRUE(pair.router->SplitShard(0).ok());
  insert.point = Point2(0.5, 0.123456);
  Ask(pair.sharded.get(), pair.sharded_client, insert);
  Response before = pinned->Complete(all);
  EXPECT_EQ(before.points.size(), 100u);
  EXPECT_EQ(before.sequence, 100u);
  Response after = Ask(pair.sharded.get(), pair.sharded_client, all);
  EXPECT_EQ(after.points.size(), 101u);
}

}  // namespace
}  // namespace popan::server
