// CowPrTree write runs: a tree driven in runs of b operations must equal,
// after every run, the same tree driven one operation at a time (points
// in within-leaf order, census, counters, node bytes), publish one
// Version per run or per kMaxRunOps operations, and never disturb a
// pinned snapshot while later runs recycle its neighbours' slots.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/box.h"
#include "geometry/point.h"
#include "spatial/pr_tree.h"
#include "spatial/snapshot_view.h"
#include "util/mutex.h"
#include "util/random.h"

namespace popan::spatial {
namespace {

template <size_t D>
struct Op {
  bool insert = true;
  geo::Point<D> point;
};

/// A seeded stream of inserts and erases. Half the points sit on a
/// 1/16 grid, so equal points recur; some inserts repeat an earlier
/// point (duplicates) and some erases miss.
template <size_t D>
std::vector<Op<D>> MakeOps(uint64_t seed, size_t count) {
  Pcg32 rng(seed);
  std::vector<Op<D>> ops;
  std::vector<geo::Point<D>> inserted;
  for (size_t i = 0; i < count; ++i) {
    Op<D> op;
    const uint32_t roll = rng.NextBounded(100);
    op.insert = roll < 60;
    const bool reuse = !inserted.empty() &&
                       (op.insert ? roll < 9 : roll < 90);
    if (reuse) {
      op.point = inserted[rng.NextBounded(
          static_cast<uint32_t>(inserted.size()))];
    } else {
      const bool grid = rng.NextBounded(2) == 0;
      for (size_t a = 0; a < D; ++a) {
        op.point[a] = grid ? rng.NextBounded(16) / 16.0 : rng.NextDouble();
      }
    }
    if (op.insert) inserted.push_back(op.point);
    ops.push_back(op);
  }
  return ops;
}

template <size_t D>
bool Apply(CowPrTree<D>* tree, const Op<D>& op) {
  return (op.insert ? tree->Insert(op.point) : tree->Erase(op.point)).ok();
}

/// Drives one tree in runs of `b` and one per op over the same stream and
/// compares them after every run.
template <size_t D>
void ExpectRunsMatchPerOp(size_t capacity, size_t max_depth, size_t b,
                          uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "D " << D << " m " << capacity << " max_depth "
               << max_depth << " b " << b << " seed " << seed);
  PrTreeOptions options;
  options.capacity = capacity;
  options.max_depth = max_depth;
  const auto bounds = geo::Box<D>::UnitCube();
  CowPrTree<D> runs(bounds, options, 5);
  CowPrTree<D> per_op(bounds, options, 5);
  const std::vector<Op<D>> ops = MakeOps<D>(seed, 1200);
  size_t height = 0;  // deepest leaf seen
  for (size_t start = 0; start < ops.size(); start += b) {
    const size_t end = std::min(ops.size(), start + b);
    const uint64_t published = runs.Snapshot().sequence();
    runs.BeginRun();
    for (size_t i = start; i < end; ++i) {
      const bool applied = Apply(&runs, ops[i]);
      EXPECT_EQ(applied, Apply(&per_op, ops[i])) << "op " << i;
      EXPECT_EQ(runs.sequence(), per_op.sequence()) << "op " << i;
      height = std::max(height, per_op.LiveCensus().MaxDepth());
    }
    if (end - start < CowPrTree<D>::kMaxRunOps) {
      // Nothing reaches readers before the run ends.
      EXPECT_EQ(runs.Snapshot().sequence(), published);
    }
    runs.EndRun();
    ASSERT_FALSE(::testing::Test::HasFailure());

    const SnapshotView<D> got = runs.Snapshot();
    const SnapshotView<D> want = per_op.Snapshot();
    ASSERT_EQ(got.sequence(), want.sequence());
    ASSERT_EQ(got.sequence(), runs.sequence());
    ASSERT_EQ(got.size(), want.size());
    ASSERT_EQ(got.LeafCount(), want.LeafCount());
    ASSERT_EQ(runs.LeafCount(), per_op.LeafCount());
    ASSERT_TRUE(got.LiveCensus() == want.LiveCensus());
    ASSERT_TRUE(runs.LiveCensus() == per_op.LiveCensus());
    ASSERT_EQ(got.AllPoints(), want.AllPoints()) << "after op " << end;
    ASSERT_TRUE(runs.CheckInvariants().ok())
        << runs.CheckInvariants().ToString();
  }
  // No reader pinned: every replaced node is back in the pool.
  EXPECT_EQ(runs.NodeBytes(), per_op.NodeBytes());
  EXPECT_EQ(runs.SpillBytes(), per_op.SpillBytes());
  // Beyond the per-op tree's slots (its peak live nodes plus one path),
  // a run holds at most one bounded run's replaced paths in limbo.
  const size_t union_bound =
      std::min(b, CowPrTree<D>::kMaxRunOps) * (height + 1);
  EXPECT_LE(runs.pool().SlotCount(), per_op.pool().SlotCount() + union_bound);
}

template <size_t D>
void ExpectRunsMatchPerOpAcrossShapes() {
  for (size_t m = 1; m <= 8; ++m) {
    for (size_t max_depth : {size_t{32}, size_t{2}}) {
      for (size_t b : {1, 2, 7, 63, 64, 65, 1000}) {
        ExpectRunsMatchPerOp<D>(m, max_depth, b, 1000 * D + 10 * m + b);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(CowWriteRunTest, RunsMatchPerOpTreeIn1D) {
  ExpectRunsMatchPerOpAcrossShapes<1>();
}

TEST(CowWriteRunTest, RunsMatchPerOpTreeIn2D) {
  ExpectRunsMatchPerOpAcrossShapes<2>();
}

TEST(CowWriteRunTest, RunsMatchPerOpTreeIn3D) {
  ExpectRunsMatchPerOpAcrossShapes<3>();
}

TEST(CowWriteRunTest, PublishesOncePerRunAndEveryMaxRunOps) {
  CowPrQuadtree tree(geo::Box2::UnitCube(), PrTreeOptions{});
  Pcg32 rng(7);
  const uint64_t before = tree.epochs().epochs_advanced();
  {
    CowPrQuadtree::WriteRun run(&tree);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(
          tree.Insert(geo::Point2(rng.NextDouble(), rng.NextDouble())).ok());
    }
    // 15 full stretches of 64 published; 40 ops still pending.
    EXPECT_EQ(tree.epochs().epochs_advanced() - before, 15u);
    EXPECT_EQ(tree.Snapshot().sequence(), 960u);
    EXPECT_EQ(tree.sequence(), 1000u);
  }
  EXPECT_EQ(tree.epochs().epochs_advanced() - before, 16u);
  EXPECT_EQ(tree.Snapshot().sequence(), 1000u);

  // A run whose every op fails publishes nothing.
  const std::vector<geo::Point2> points = tree.Snapshot().AllPoints();
  {
    CowPrQuadtree::WriteRun run(&tree);
    for (const geo::Point2& p : points) EXPECT_FALSE(tree.Insert(p).ok());
    EXPECT_FALSE(tree.Erase(geo::Point2(2.0, 2.0)).ok());
  }
  EXPECT_EQ(tree.epochs().epochs_advanced() - before, 16u);
  EXPECT_EQ(tree.sequence(), 1000u);
}

TEST(CowWriteRunTest, RunCopiesEachNodeOnce) {
  // Two inserts into one leaf: per op they copy the root-to-leaf path
  // twice; in one run the second finds the whole path private.
  PrTreeOptions options;
  options.capacity = 8;
  CowPrQuadtree tree(geo::Box2::UnitCube(), options);
  ASSERT_TRUE(tree.Insert(geo::Point2(0.1, 0.1)).ok());
  const uint64_t retired = tree.epochs().objects_retired();
  {
    CowPrQuadtree::WriteRun run(&tree);
    ASSERT_TRUE(tree.Insert(geo::Point2(0.2, 0.2)).ok());
    ASSERT_TRUE(tree.Insert(geo::Point2(0.3, 0.3)).ok());
  }
  // One root replaced, one Version retired.
  EXPECT_EQ(tree.epochs().objects_retired() - retired, 2u);
}

TEST(CowWriteRunTest, SnapshotsKeepTheirPointsWhileRunsRecycleSlots) {
  PrTreeOptions options;
  options.capacity = 2;
  CowPrQuadtree tree(geo::Box2::UnitCube(), options);
  PrTree<2> reference(geo::Box2::UnitCube(), options);
  const std::vector<Op<2>> ops = MakeOps<2>(99, 16000);

  auto sorted = [](std::vector<geo::Point2> points) {
    std::sort(points.begin(), points.end(),
              [](const geo::Point2& a, const geo::Point2& b) {
                return a.x() != b.x() ? a.x() < b.x() : a.y() < b.y();
              });
    return points;
  };
  popan::Mutex mu;
  std::map<uint64_t, std::vector<geo::Point2>> expected;  // by sequence
  expected[0] = {};
  std::atomic<bool> done{false};
  std::atomic<size_t> checked{0};

  auto expected_at = [&](uint64_t sequence) {
    popan::MutexLock lock(mu);
    auto it = expected.find(sequence);
    EXPECT_TRUE(it != expected.end()) << "unexpected version " << sequence;
    return it == expected.end() ? std::vector<geo::Point2>() : it->second;
  };
  // A reader racing the writer's runs, unpooled so it runs throughout.
  // popan-lint: allow(raw-thread-spawn)
  std::thread reader([&] {
    std::deque<SnapshotView2> held;
    while (!done.load(std::memory_order_acquire)) {
      held.push_back(tree.Snapshot());
      EXPECT_EQ(sorted(held.back().AllPoints()),
                expected_at(held.back().sequence()));
      if (held.size() == 4) {
        // Re-read the oldest pin after later runs had their chance to
        // recycle slots around it.
        EXPECT_EQ(sorted(held.front().AllPoints()),
                  expected_at(held.front().sequence()));
        held.pop_front();
      }
      checked.fetch_add(1, std::memory_order_relaxed);
    }
  });

  uint64_t sequence = 0;
  size_t b = 7;
  for (size_t start = 0; start < ops.size(); start += b) {
    b = b == 7 ? 63 : 7;  // both below kMaxRunOps: one version per run
    const size_t end = std::min(ops.size(), start + b);
    tree.BeginRun();
    for (size_t i = start; i < end; ++i) {
      const Op<2>& op = ops[i];
      const bool ok = (op.insert ? reference.Insert(op.point)
                                 : reference.Erase(op.point))
                          .ok();
      EXPECT_EQ(Apply(&tree, op), ok) << "op " << i;
      sequence += ok ? 1 : 0;
    }
    {
      popan::MutexLock lock(mu);
      expected[sequence] = sorted(reference.AllPoints());
    }
    tree.EndRun();
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(checked.load(std::memory_order_relaxed), 0u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

}  // namespace
}  // namespace popan::spatial
