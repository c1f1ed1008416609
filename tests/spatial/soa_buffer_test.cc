// The structure-of-arrays leaf storage of the PR trees: a PrNode leaf in
// a pool slot (inline lanes, the spill block of a leaf that outgrows them)
// and the lane filters of soa_buffer.h that read it.

#include "spatial/soa_buffer.h"

#include <cmath>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/box.h"
#include "geometry/point.h"
#include "spatial/node_pool.h"
#include "spatial/pr_tree_reader.h"
#include "util/random.h"
#include "util/simd.h"

namespace popan::spatial {
namespace {

using Node = PrNode<2, NodeIndex>;

geo::Point2 P(double x, double y) { return geo::Point2{x, y}; }

/// One leaf in its own pool slot, making the calls a tree makes on it
/// with the pool's SpillBlocks. Capacity 4 at D = 2 is a 72-byte slot
/// with 4 inline lanes; capacity 8 a 136-byte slot with 8.
class Leaf {
 public:
  explicit Leaf(size_t capacity = 4) : pool_(Node::SlotBytes(capacity)) {
    idx_ = pool_.Allocate();
    ::new (pool_.At(idx_)) Node(pool_.slot_bytes());
  }
  /// A fresh slot of the same size holding a copy (Node::CopyFrom).
  Leaf(const Leaf& other) : pool_(other.pool_.slot_bytes()) {
    idx_ = pool_.Allocate();
    ::new (pool_.At(idx_)) Node(pool_.slot_bytes());
    node().CopyFrom(*other, pool_.spills());
  }
  Leaf& operator=(const Leaf&) = delete;
  ~Leaf() { node().clear(pool_.spills()); }

  const Node& operator*() const {
    return *std::launder(static_cast<const Node*>(pool_.At(idx_)));
  }
  const Node* operator->() const { return &**this; }

  void push_back(const geo::Point2& p) { node().push_back(p, pool_.spills()); }
  void SwapRemoveAt(size_t i) { node().SwapRemoveAt(i, pool_.spills()); }
  void clear() { node().clear(pool_.spills()); }

  /// Spill blocks this leaf holds (0 or 1).
  size_t blocks() const { return pool_.spills().count(); }

 private:
  Node& node() { return *std::launder(static_cast<Node*>(pool_.At(idx_))); }

  NodePool<NodeIndex> pool_;
  NodeIndex idx_;
};

TEST(SoaBufferTest, StartsEmptyAndInline) {
  Leaf b;
  EXPECT_EQ(b->size(), 0u);
  EXPECT_TRUE(b->empty());
  EXPECT_TRUE(b->is_leaf());
  EXPECT_FALSE(b->spilled());
  EXPECT_EQ(b->lane_capacity(), 4u);
  EXPECT_EQ(b->spill_lanes(), 0u);
}

TEST(SoaBufferTest, PushBackAndGetRoundTrip) {
  Leaf b;
  b.push_back(P(1.0, 2.0));
  b.push_back(P(3.0, 4.0));
  EXPECT_EQ(b->size(), 2u);
  EXPECT_EQ(b->Get(0), P(1.0, 2.0));
  EXPECT_EQ(b->Get(1), P(3.0, 4.0));
  EXPECT_EQ(b->At(0, 1), 3.0);
  EXPECT_EQ(b->At(1, 1), 4.0);
}

TEST(SoaBufferTest, LanesAreContiguousPerAxis) {
  Leaf b;
  for (int i = 0; i < 3; ++i) b.push_back(P(i, 10 + i));
  const double* xs = b->lane(0);
  const double* ys = b->lane(1);
  // Inline: the lanes sit in the slot's payload, lane_capacity() apart.
  EXPECT_EQ(ys - xs, 4);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(xs[i], i);
    EXPECT_EQ(ys[i], 10 + i);
  }
}

TEST(SoaBufferTest, SpillsPastInlineCapacityAndUnspills) {
  Leaf b;
  for (int i = 0; i < 5; ++i) b.push_back(P(i, -i));
  EXPECT_TRUE(b->spilled());
  EXPECT_EQ(b->size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(b->Get(i), P(i, -i));
  b.SwapRemoveAt(4);
  EXPECT_FALSE(b->spilled());
  EXPECT_EQ(b->size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(b->Get(i), P(i, -i));
}

TEST(SoaBufferTest, SpillGrowsOneBlockGeometrically) {
  Leaf b;
  for (int i = 0; i < 5; ++i) b.push_back(P(i, -i));
  ASSERT_TRUE(b->spilled());
  // First spill: one block of lane_capacity() + 1 elements per lane, the
  // lanes back to back inside it.
  EXPECT_EQ(b->spill_lanes(), 5u);
  EXPECT_EQ(b->lane(1) - b->lane(0), 5);
  for (int i = 5; i < 100; ++i) b.push_back(P(i, -i));
  EXPECT_EQ(b->spill_lanes(), 160u);  // 5 -> 10 -> 20 -> 40 -> 80 -> 160
  EXPECT_EQ(b->lane(1) - b->lane(0), 160);
  EXPECT_EQ(b.blocks(), 1u);  // each regrow frees the block it replaces
  for (int i = 0; i < 100; ++i) EXPECT_EQ(b->Get(i), P(i, -i));
  while (!b->empty()) b.SwapRemoveAt(b->size() - 1);
  EXPECT_FALSE(b->spilled());
  EXPECT_EQ(b.blocks(), 0u);
}

TEST(SoaBufferTest, UnspillFreesBlockAndRespillAllocatesAnew) {
  // The spill reference and the inline lanes share the slot's payload, so
  // an un-spill has nowhere to keep the block: it frees it, and the next
  // crossing allocates a fresh lane_capacity() + 1 block.
  Leaf b;
  for (int i = 0; i < 6; ++i) b.push_back(P(i, 10 + i));
  EXPECT_EQ(b->spill_lanes(), 10u);
  b.SwapRemoveAt(0);  // {5, 1, 2, 3, 4}: still spilled
  EXPECT_TRUE(b->spilled());
  EXPECT_EQ(b.blocks(), 1u);
  b.SwapRemoveAt(1);  // {5, 4, 2, 3}: back inline
  EXPECT_FALSE(b->spilled());
  EXPECT_EQ(b->spill_lanes(), 0u);
  EXPECT_EQ(b.blocks(), 0u);
  const int want[] = {5, 4, 2, 3};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(b->Get(i), P(want[i], 10 + want[i]));
    EXPECT_EQ(b->lane(0)[i], want[i]);
  }
  b.push_back(P(7.0, 17.0));  // re-spill into a new block
  EXPECT_TRUE(b->spilled());
  EXPECT_EQ(b->spill_lanes(), 5u);
  EXPECT_EQ(b.blocks(), 1u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(b->Get(i), P(want[i], 10 + want[i]));
  }
  EXPECT_EQ(b->Get(4), P(7.0, 17.0));
}

TEST(SoaBufferTest, CopiesOfASpilledBufferAreIndependent) {
  Leaf a;
  for (int i = 0; i < 7; ++i) a.push_back(P(i, 2 * i));
  Leaf b(a);
  ASSERT_TRUE(b->spilled());
  EXPECT_EQ(a->spill_lanes(), 10u);
  EXPECT_EQ(b->spill_lanes(), 7u);  // a copy carries no spare capacity
  b.SwapRemoveAt(0);
  b.push_back(P(100.0, 200.0));
  for (int i = 0; i < 7; ++i) EXPECT_EQ(a->Get(i), P(i, 2 * i));
  EXPECT_EQ(b->size(), 7u);
  EXPECT_EQ(b->Get(0), P(6.0, 12.0));
  EXPECT_EQ(b->Get(6), P(100.0, 200.0));
  Leaf c(b);
  EXPECT_TRUE(c->spilled());
  for (size_t i = 0; i < 7; ++i) EXPECT_EQ(c->Get(i), b->Get(i));
  // An un-spilled leaf holds no block, and neither does a copy of it.
  while (b->size() > 4) b.SwapRemoveAt(0);
  EXPECT_EQ(b.blocks(), 0u);
  Leaf d(b);
  EXPECT_EQ(d->spill_lanes(), 0u);
  EXPECT_EQ(d.blocks(), 0u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(d->Get(i), b->Get(i));
}

TEST(SoaBufferTest, SwapRemoveMovesLastIntoHole) {
  Leaf b;
  b.push_back(P(0.0, 0.0));
  b.push_back(P(1.0, 1.0));
  b.push_back(P(2.0, 2.0));
  b.SwapRemoveAt(0);
  EXPECT_EQ(b->size(), 2u);
  EXPECT_EQ(b->Get(0), P(2.0, 2.0));
  EXPECT_EQ(b->Get(1), P(1.0, 1.0));
}

TEST(SoaBufferTest, MatchesUsesIeeeEquality) {
  Leaf b;
  b.push_back(P(0.0, 1.0));
  EXPECT_TRUE(b->Matches(0, P(-0.0, 1.0)));  // -0.0 == 0.0
  EXPECT_FALSE(b->Matches(0, P(0.0, 1.5)));
}

TEST(SoaBufferTest, ClearResetsSize) {
  Leaf b;
  for (int i = 0; i < 6; ++i) b.push_back(P(i, i));
  b.clear();
  EXPECT_EQ(b->size(), 0u);
  EXPECT_FALSE(b->spilled());
  EXPECT_EQ(b.blocks(), 0u);
  b.push_back(P(9.0, 9.0));
  EXPECT_EQ(b->Get(0), P(9.0, 9.0));
}

TEST(SoaBufferTest, ForEachInBoxMatchesScalarContainsOnBothPaths) {
  Pcg32 rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    Leaf b(8);
    const size_t n = static_cast<size_t>(rng.NextDouble() * 150.0);
    std::vector<geo::Point2> pts;
    for (size_t i = 0; i < n; ++i) {
      pts.push_back(P(rng.NextDouble(), rng.NextDouble()));
      b.push_back(pts.back());
    }
    const geo::Box2 box(P(rng.NextDouble(0.0, 0.5), rng.NextDouble(0.0, 0.5)),
                        P(rng.NextDouble(0.5, 1.0), rng.NextDouble(0.5, 1.0)));
    std::vector<size_t> expected;
    for (size_t i = 0; i < n; ++i) {
      if (box.Contains(pts[i])) expected.push_back(i);
    }
    for (int scalar = 0; scalar < 2; ++scalar) {
      simd::SetForceScalar(scalar == 1);
      std::vector<size_t> got;
      ForEachInBox(*b, box, [&got](size_t i) { got.push_back(i); });
      EXPECT_EQ(got, expected) << "trial " << trial << " scalar " << scalar;
    }
    simd::SetForceScalar(false);
  }
}

TEST(SoaBufferTest, ForEachEqualOnAxisMatchesScalarOnBothPaths) {
  Pcg32 rng(6);
  Leaf b(8);
  std::vector<geo::Point2> pts;
  for (size_t i = 0; i < 100; ++i) {
    // Coarse lattice so equal values actually occur.
    pts.push_back(P(std::floor(rng.NextDouble() * 8.0) / 8.0,
                    std::floor(rng.NextDouble() * 8.0) / 8.0));
    b.push_back(pts.back());
  }
  for (size_t axis = 0; axis < 2; ++axis) {
    const double value = 3.0 / 8.0;
    std::vector<size_t> expected;
    for (size_t i = 0; i < pts.size(); ++i) {
      if (pts[i][axis] == value) expected.push_back(i);
    }
    for (int scalar = 0; scalar < 2; ++scalar) {
      simd::SetForceScalar(scalar == 1);
      std::vector<size_t> got;
      ForEachEqualOnAxis(*b, axis, value,
                         [&got](size_t i) { got.push_back(i); });
      EXPECT_EQ(got, expected) << "axis " << axis << " scalar " << scalar;
    }
    simd::SetForceScalar(false);
  }
}

}  // namespace
}  // namespace popan::spatial
