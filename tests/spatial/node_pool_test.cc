// The PR trees' node pool: slot recycling and chunk stability, the exact
// bytes-per-point identity both trees satisfy, and slot reuse in the
// snapshot tree under pinned readers.

#include "spatial/node_pool.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/box.h"
#include "geometry/point.h"
#include "spatial/census.h"
#include "spatial/pr_tree.h"
#include "spatial/snapshot_view.h"
#include "util/random.h"

namespace popan::spatial {
namespace {

using geo::Box2;
using geo::Point2;

// ---- The pool itself ----------------------------------------------------

TEST(NodePoolTest, FreedSlotsComeBackLastInFirstOut) {
  NodePool<NodeIndex> pool(24);
  const NodeIndex a = pool.Allocate();
  const NodeIndex b = pool.Allocate();
  const NodeIndex c = pool.Allocate();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);
  pool.Free(a);
  pool.Free(c);
  EXPECT_EQ(pool.Allocate(), c);
  EXPECT_EQ(pool.Allocate(), a);
  EXPECT_EQ(pool.Allocate(), 3u);  // free list empty: a fresh slot

  NodePool<void*> by_address(40);
  void* x = by_address.Allocate();
  void* y = by_address.Allocate();
  EXPECT_EQ(static_cast<std::byte*>(y) - static_cast<std::byte*>(x), 40);
  by_address.Free(y);
  by_address.Free(x);
  EXPECT_EQ(by_address.Allocate(), x);
  EXPECT_EQ(by_address.Allocate(), y);
}

TEST(NodePoolTest, ChunkAddressesNeverMove) {
  constexpr size_t kChunk = NodePool<NodeIndex>::kChunkSlots;
  NodePool<NodeIndex> pool(72);
  std::vector<void*> addresses;
  for (size_t i = 0; i < 10 * kChunk; ++i) {
    // Three chunks grow on demand, then one Reserve adds the other seven.
    if (i == 3 * kChunk) pool.Reserve(10 * kChunk);
    const NodeIndex idx = pool.Allocate();
    addresses.push_back(pool.At(idx));
    // Stamp each slot; growth must neither move nor overwrite it.
    *static_cast<uint64_t*>(pool.At(idx)) = i;
  }
  EXPECT_EQ(pool.ChunkCount(), 10u);
  for (size_t i = 0; i < addresses.size(); ++i) {
    const NodeIndex idx = static_cast<NodeIndex>(i);
    ASSERT_EQ(pool.At(idx), addresses[i]);
    ASSERT_EQ(*static_cast<uint64_t*>(pool.At(idx)), i);
  }
  EXPECT_EQ(pool.GrowthCount(), 3u);
  // Within a chunk, slots are slot_bytes apart; the chunks one Reserve
  // added are carved from one block, so they are back to back too.
  EXPECT_EQ(static_cast<std::byte*>(addresses[1]) -
                static_cast<std::byte*>(addresses[0]),
            72);
  for (size_t k = 4; k < 10; ++k) {
    EXPECT_EQ(static_cast<std::byte*>(addresses[k * kChunk]) -
                  static_cast<std::byte*>(addresses[(k - 1) * kChunk]),
              static_cast<ptrdiff_t>(kChunk * 72));
  }
}

TEST(NodePoolTest, CountsSlotsAndReservesChunks) {
  constexpr size_t kChunk = NodePool<NodeIndex>::kChunkSlots;
  NodePool<NodeIndex> pool(24);
  EXPECT_EQ(pool.SlotCount(), 0u);
  EXPECT_EQ(pool.ChunkCount(), 0u);
  pool.Reserve(2 * kChunk + 1);
  EXPECT_EQ(pool.ChunkCount(), 3u);
  std::vector<NodeIndex> held;
  for (size_t i = 0; i < 3 * kChunk; ++i) held.push_back(pool.Allocate());
  EXPECT_EQ(pool.GrowthCount(), 0u);  // every chunk was reserved
  EXPECT_EQ(pool.LiveCount(), 3 * kChunk);
  EXPECT_EQ(pool.SlotCount(), 3 * kChunk);
  for (size_t i = 0; i < kChunk; ++i) pool.Free(held[i]);
  EXPECT_EQ(pool.LiveCount(), 2 * kChunk);
  EXPECT_EQ(pool.SlotCount(), 3 * kChunk);  // freed slots stay carved
  for (size_t i = 0; i < kChunk; ++i) (void)pool.Allocate();
  EXPECT_EQ(pool.SlotCount(), 3 * kChunk);  // ...and are reused first
  (void)pool.Allocate();
  EXPECT_EQ(pool.GrowthCount(), 1u);
  EXPECT_EQ(pool.ChunkCount(), 4u);
  pool.Clear();
  EXPECT_EQ(pool.LiveCount(), 0u);
  EXPECT_EQ(pool.SlotCount(), 0u);
  EXPECT_EQ(pool.ChunkCount(), 4u);  // kept for reuse
  EXPECT_EQ(pool.Allocate(), 0u);
}

TEST(NodePoolTest, SpillBlocksCountTheirBytes) {
  NodePool<void*> pool(72);
  double* a = pool.spills().Allocate(10);
  double* b = pool.spills().Allocate(6);
  EXPECT_EQ(pool.spills().count(), 2u);
  EXPECT_EQ(pool.spills().bytes(), 16 * sizeof(double));
  pool.spills().Free(a, 10);
  EXPECT_EQ(pool.spills().count(), 1u);
  EXPECT_EQ(pool.spills().bytes(), 6 * sizeof(double));
  pool.spills().Free(b, 6);
  EXPECT_EQ(pool.spills().bytes(), 0u);
}

// ---- Bytes per point ----------------------------------------------------

TEST(NodeBytesTest, SlotSizesFollowTheCapacity) {
  using Snapshot = CowNode<2>;
  using Pr = PrNode<2, NodeIndex>;
  EXPECT_EQ(Snapshot::SlotBytes(4), 72u);
  EXPECT_EQ(Pr::SlotBytes(4), 72u);
  EXPECT_EQ(Snapshot::SlotBytes(1), 40u);
  EXPECT_EQ(Pr::SlotBytes(1), 24u);
  EXPECT_EQ(Snapshot::SlotBytes(8), 136u);
  EXPECT_EQ(Pr::SlotBytes(8), 136u);
  // Leaves use the slack: snapshot leaves at m = 1 hold 2 points inline.
  PrTreeOptions options;
  options.capacity = 1;
  CowPrQuadtree cow(Box2::UnitCube(), options);
  PrQuadtree pr(Box2::UnitCube(), options);
  EXPECT_EQ(cow.LaneCapacity(), 2u);
  EXPECT_EQ(pr.LaneCapacity(), 1u);
  options.capacity = 4;
  EXPECT_EQ(CowPrQuadtree(Box2::UnitCube(), options).LaneCapacity(), 4u);
  // Far past the paper's range the lanes stop growing with m.
  EXPECT_EQ(Pr::SlotBytes(1000), Pr::SlotBytes(Pr::kMaxLanes));
}

/// Checks NodeBytes() == (L + (L - 1) / (2^D - 1)) x slot bytes + spill
/// bytes, with L from the live census: a 2^D-ary tree with L leaves has
/// (L - 1) / (2^D - 1) internal nodes. The spill bytes cover at least the
/// points of every leaf past its lanes, and are zero when none is.
/// `reader` walks the tree: the tree itself, or a snapshot of it.
template <size_t D, typename Tree, typename Reader>
void ExpectExactNodeBytes(const Tree& tree, const Reader& reader,
                          const char* label) {
  const size_t leaves = reader.LiveCensus().LeafCount();
  const size_t nodes = leaves + (leaves - 1) / ((size_t{1} << D) - 1);
  EXPECT_EQ(tree.NodeBytes(), nodes * tree.SlotBytes() + tree.SpillBytes())
      << label;
  size_t spilled_point_bytes = 0;
  reader.VisitLeaves([&](const geo::Box<D>&, size_t, size_t occupancy) {
    if (occupancy > tree.LaneCapacity()) {
      spilled_point_bytes += occupancy * D * sizeof(double);
    }
  });
  EXPECT_GE(tree.SpillBytes(), spilled_point_bytes) << label;
  EXPECT_EQ(tree.SpillBytes() == 0, spilled_point_bytes == 0) << label;
}

template <size_t D>
void RunNodeBytesSweep() {
  for (size_t max_depth : {size_t{3}, size_t{64}}) {
    for (size_t m = 1; m <= 12; ++m) {
      PrTreeOptions options;
      options.capacity = m;
      options.max_depth = max_depth;
      PrTree<D> pr(geo::Box<D>::UnitCube(), options);
      CowPrTree<D> cow(geo::Box<D>::UnitCube(), options);
      ASSERT_EQ(pr.SlotBytes(), (PrNode<D, NodeIndex>::SlotBytes(m)));
      ASSERT_EQ(cow.SlotBytes(), CowNode<D>::SlotBytes(m));
      Pcg32 rng(1000 * D + 10 * m + max_depth);
      std::vector<geo::Point<D>> live;
      for (size_t op = 1; op <= 600; ++op) {
        if (op % 3 == 0 && !live.empty()) {
          // Interleaved erases: collapses and un-spills.
          const size_t i = static_cast<size_t>(
              rng.NextDouble() * static_cast<double>(live.size()));
          ASSERT_TRUE(pr.Erase(live[i]).ok());
          ASSERT_TRUE(cow.Erase(live[i]).ok());
          live[i] = live.back();
          live.pop_back();
        } else {
          geo::Point<D> p;
          for (size_t a = 0; a < D; ++a) p[a] = rng.NextDouble();
          ASSERT_TRUE(pr.Insert(p).ok());
          ASSERT_TRUE(cow.Insert(p).ok());
          live.push_back(p);
        }
        if (op % 100 == 0) {
          std::string label = "D ";
          label += std::to_string(D);
          label += " m ";
          label += std::to_string(m);
          label += " max_depth ";
          label += std::to_string(max_depth);
          label += " op ";
          label += std::to_string(op);
          ExpectExactNodeBytes<D>(pr, pr, label.c_str());
          ExpectExactNodeBytes<D>(cow, cow.Snapshot(), label.c_str());
          EXPECT_EQ(pr.NodeCount() * pr.SlotBytes() + pr.SpillBytes(),
                    pr.NodeBytes());
        }
      }
      if (max_depth == 64) {
        EXPECT_EQ(pr.SpillBytes(), 0u) << "m " << m;
        EXPECT_EQ(cow.SpillBytes(), 0u) << "m " << m;
      }
    }
  }
}

TEST(NodeBytesTest, NodesPerPointTimesSlotBytesInBothTrees) {
  RunNodeBytesSweep<1>();
  RunNodeBytesSweep<2>();
  RunNodeBytesSweep<3>();
}

TEST(NodeBytesTest, CapacitiesPastTheLaneCapSpillBelowMaxDepth) {
  // Past PrNode::kMaxLanes a leaf under capacity can outgrow its lanes,
  // so spills, regrowth and un-spills happen at every depth; both trees
  // must still agree and keep the byte identity.
  PrTreeOptions options;
  options.capacity = 100;
  PrQuadtree pr(Box2::UnitCube(), options);
  CowPrQuadtree cow(Box2::UnitCube(), options);
  EXPECT_EQ(pr.LaneCapacity(), (PrNode<2, NodeIndex>::kMaxLanes));
  Pcg32 rng(9);
  std::vector<Point2> live;
  bool spilled = false;
  for (size_t op = 0; op < 3000; ++op) {
    if (op % 3 == 2) {
      const size_t i = static_cast<size_t>(
          rng.NextDouble() * static_cast<double>(live.size()));
      ASSERT_TRUE(pr.Erase(live[i]).ok());
      ASSERT_TRUE(cow.Erase(live[i]).ok());
      live[i] = live.back();
      live.pop_back();
    } else {
      const Point2 p(rng.NextDouble(), rng.NextDouble());
      ASSERT_TRUE(pr.Insert(p).ok());
      ASSERT_TRUE(cow.Insert(p).ok());
      live.push_back(p);
    }
    spilled = spilled || pr.SpillBytes() > 0;
  }
  EXPECT_TRUE(spilled);
  ExpectExactNodeBytes<2>(pr, pr, "pr");
  ExpectExactNodeBytes<2>(cow, cow.Snapshot(), "cow");
  EXPECT_EQ(cow.Snapshot().AllPoints(), pr.AllPoints());
  EXPECT_TRUE(pr.CheckInvariants().ok());
  EXPECT_TRUE(cow.CheckInvariants().ok());
}

TEST(NodeBytesTest, CopiesAndMovesKeepTheirOwnSpillBlocks) {
  // A copy deep-copies the spill blocks (exact size); destroying or
  // clearing either tree leaves the other intact.
  PrTreeOptions options;
  options.capacity = 1;
  options.max_depth = 2;
  PrQuadtree tree(Box2::UnitCube(), options);
  Pcg32 rng(3);
  for (size_t i = 0; i < 40; ++i) {
    (void)tree.Insert(Point2(rng.NextDouble() * 0.25, rng.NextDouble() * 0.25));
  }
  ASSERT_GT(tree.SpillBytes(), 0u);
  const std::vector<Point2> points = tree.AllPoints();
  PrQuadtree copy = tree;
  EXPECT_EQ(copy.AllPoints(), points);
  EXPECT_EQ(copy.NodeCount(), tree.NodeCount());
  EXPECT_LE(copy.SpillBytes(), tree.SpillBytes());
  EXPECT_GE(copy.SpillBytes(), points.size() * 2 * sizeof(double));
  tree.Clear();
  EXPECT_EQ(tree.SpillBytes(), 0u);
  EXPECT_EQ(copy.AllPoints(), points);
  PrQuadtree moved = std::move(copy);
  EXPECT_EQ(moved.AllPoints(), points);
  EXPECT_TRUE(moved.CheckInvariants().ok());
  tree = moved;
  EXPECT_EQ(tree.AllPoints(), points);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

// ---- Slot reuse in the snapshot tree --------------------------------------

std::vector<Point2> Sorted(std::vector<Point2> points) {
  std::sort(points.begin(), points.end(), [](const Point2& a, const Point2& b) {
    return a[0] != b[0] ? a[0] < b[0] : a[1] < b[1];
  });
  return points;
}

TEST(NodePoolTest, SnapshotTreeChurnRecyclesSlotsUnderPinnedReaders) {
  // A constant-size CowPrQuadtree under inserts and erases. A quarter of
  // the points sit in one max-depth block, so a spilled leaf is copied,
  // grown and un-spilled all along. The writer pins snapshots and checks,
  // thousands of operations later, that each still reads its exact point
  // set while the slots around it were recycled; reader threads pin and
  // release snapshots meanwhile (the TSan leg runs this case).
  constexpr size_t kPoints = 1200;
  constexpr size_t kOps = 12000;
  PrTreeOptions options;
  options.capacity = 2;
  options.max_depth = 5;
  CowPrQuadtree tree(Box2::UnitCube(), options);
  Pcg32 rng(77);
  const auto draw = [&rng]() {
    if (rng.NextDouble() < 0.25) {
      return Point2(rng.NextDouble() * 0.02, rng.NextDouble() * 0.02);
    }
    return Point2(rng.NextDouble(), rng.NextDouble());
  };

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  // Unpooled readers pin and release against the live writer for the
  // whole run; a pooled task would hold its worker hostage.
  // popan-lint: allow(raw-thread-spawn)
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&tree, &stop, &reads] {
      while (!stop.load(std::memory_order_relaxed)) {
        StatusOr<SnapshotView2> view = tree.TrySnapshot();
        if (!view.ok()) continue;
        const std::vector<Point2> seen = view->AllPoints();
        EXPECT_EQ(seen.size(), view->size());
        EXPECT_TRUE(view->CheckInvariants().ok());
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // The bound on the pool: slots in use at any instant are the version
  // being built (at most the larger of the node counts before and after
  // the operation) plus the limbo, which only grows until the operation's
  // closing Reclaim. Limbo entries include Versions, so this over-counts.
  const auto nodes = [&tree] {
    return tree.LeafCount() + (tree.LeafCount() - 1) / 3;
  };
  size_t bound = 0;
  std::vector<Point2> live;
  std::deque<std::pair<SnapshotView2, std::vector<Point2>>> pinned;
  size_t verified = 0;
  for (size_t op = 0; op < kPoints + kOps; ++op) {
    const size_t nodes_before = nodes();
    const size_t limbo_before = tree.epochs().limbo_size();
    const uint64_t retired_before = tree.epochs().objects_retired();
    if (op >= kPoints && op % 2 == 1) {
      const size_t i = static_cast<size_t>(rng.NextDouble() *
                                           static_cast<double>(live.size()));
      ASSERT_TRUE(tree.Erase(live[i]).ok());
      live[i] = live.back();
      live.pop_back();
    } else {
      Point2 p = draw();
      while (!tree.Insert(p).ok()) p = draw();
      live.push_back(p);
    }
    const size_t retired = static_cast<size_t>(
        tree.epochs().objects_retired() - retired_before);
    bound = std::max(bound,
                     std::max(nodes_before, nodes()) + limbo_before + retired);
    ASSERT_LE(tree.pool().SlotCount(), bound) << "op " << op;
    if (op % 400 == 0) {
      pinned.emplace_back(tree.Snapshot(), Sorted(live));
    }
    if (pinned.size() > 6) {
      EXPECT_EQ(Sorted(pinned.front().first.AllPoints()),
                pinned.front().second)
          << "snapshot pinned at " << pinned.front().first.sequence();
      pinned.pop_front();
      ++verified;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  for (const auto& [view, expected] : pinned) {
    EXPECT_EQ(Sorted(view.AllPoints()), expected);
    ++verified;
  }
  pinned.clear();
  EXPECT_GT(verified, 20u);
  EXPECT_GT(reads.load(std::memory_order_relaxed), 0u);
  // The pool's size follows the live nodes and the limbo peak (the bound
  // checked after every operation), not the number of operations: far
  // more nodes were retired and reclaimed than it ever held.
  ASSERT_EQ(live.size(), kPoints);
  EXPECT_GT(tree.epochs().objects_reclaimed(), 4 * tree.pool().SlotCount());

  // With no pin left, one more reclaim empties the limbo: every slot and
  // spill block the pool still counts belongs to the newest version.
  tree.epochs().AdvanceEpoch();
  tree.epochs().Reclaim();
  EXPECT_EQ(tree.epochs().limbo_size(), 0u);
  EXPECT_EQ(tree.pool().LiveCount(), nodes());
  size_t spilled_leaves = 0;
  tree.Snapshot().VisitLeaves([&](const Box2&, size_t, size_t occupancy) {
    if (occupancy > tree.LaneCapacity()) ++spilled_leaves;
  });
  EXPECT_GT(spilled_leaves, 0u);
  EXPECT_EQ(tree.pool().spills().count(), spilled_leaves);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  // The tree's destructor returns the rest: clean under ASan and LSan.
}

}  // namespace
}  // namespace popan::spatial
