#include "spatial/soa_buffer.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/box.h"
#include "geometry/point.h"
#include "util/random.h"
#include "util/simd.h"

namespace popan::spatial {
namespace {

using Buffer = SoaBuffer<2, 4>;

geo::Point2 P(double x, double y) { return geo::Point2{x, y}; }

TEST(SoaBufferTest, StartsEmptyAndInline) {
  Buffer b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(b.spilled());
  EXPECT_EQ(Buffer::inline_capacity(), 4u);
}

TEST(SoaBufferTest, PushBackAndGetRoundTrip) {
  Buffer b;
  b.push_back(P(1.0, 2.0));
  b.push_back(P(3.0, 4.0));
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.Get(0), P(1.0, 2.0));
  EXPECT_EQ(b.Get(1), P(3.0, 4.0));
  EXPECT_EQ(b.At(0, 1), 3.0);
  EXPECT_EQ(b.At(1, 1), 4.0);
}

TEST(SoaBufferTest, LanesAreContiguousPerAxis) {
  Buffer b;
  for (int i = 0; i < 3; ++i) b.push_back(P(i, 10 + i));
  const double* xs = b.lane(0);
  const double* ys = b.lane(1);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(xs[i], i);
    EXPECT_EQ(ys[i], 10 + i);
  }
}

TEST(SoaBufferTest, SpillsPastInlineCapacityAndUnspills) {
  Buffer b;
  for (int i = 0; i < 5; ++i) b.push_back(P(i, -i));
  EXPECT_TRUE(b.spilled());
  EXPECT_EQ(b.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(b.Get(i), P(i, -i));
  b.SwapRemoveAt(4);
  EXPECT_FALSE(b.spilled());
  EXPECT_EQ(b.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(b.Get(i), P(i, -i));
}

TEST(SoaBufferTest, SpillGrowsOneBlockGeometrically) {
  Buffer b;
  for (int i = 0; i < 5; ++i) b.push_back(P(i, -i));
  ASSERT_TRUE(b.spilled());
  // First spill: one block of kInline + 1 elements per lane, the lanes
  // back to back inside it.
  EXPECT_EQ(b.lane_capacity(), 5u);
  EXPECT_EQ(b.lane(1) - b.lane(0), 5);
  for (int i = 5; i < 100; ++i) b.push_back(P(i, -i));
  EXPECT_EQ(b.lane_capacity(), 160u);  // 5 -> 10 -> 20 -> 40 -> 80 -> 160
  EXPECT_EQ(b.lane(1) - b.lane(0), 160);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(b.Get(i), P(i, -i));
  while (!b.empty()) b.SwapRemoveAt(b.size() - 1);
  EXPECT_FALSE(b.spilled());
}

TEST(SoaBufferTest, UnspillKeepsBlockAndRespillReusesIt) {
  Buffer b;
  for (int i = 0; i < 6; ++i) b.push_back(P(i, 10 + i));
  const size_t cap = b.lane_capacity();
  b.SwapRemoveAt(0);  // {5, 1, 2, 3, 4}: still spilled
  EXPECT_TRUE(b.spilled());
  b.SwapRemoveAt(1);  // {5, 4, 2, 3}: back inline
  EXPECT_FALSE(b.spilled());
  EXPECT_EQ(b.lane_capacity(), cap);
  const int want[] = {5, 4, 2, 3};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(b.Get(i), P(want[i], 10 + want[i]));
    EXPECT_EQ(b.lane(0)[i], want[i]);
  }
  b.push_back(P(7.0, 17.0));  // re-spill into the kept block
  EXPECT_TRUE(b.spilled());
  EXPECT_EQ(b.lane_capacity(), cap);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(b.Get(i), P(want[i], 10 + want[i]));
  EXPECT_EQ(b.Get(4), P(7.0, 17.0));
}

TEST(SoaBufferTest, CopiesOfASpilledBufferAreIndependent) {
  Buffer a;
  for (int i = 0; i < 7; ++i) a.push_back(P(i, 2 * i));
  Buffer b = a;
  ASSERT_TRUE(b.spilled());
  EXPECT_EQ(a.lane_capacity(), 10u);
  EXPECT_EQ(b.lane_capacity(), 7u);  // a copy carries no spare capacity
  b.SwapRemoveAt(0);
  b.push_back(P(100.0, 200.0));
  for (int i = 0; i < 7; ++i) EXPECT_EQ(a.Get(i), P(i, 2 * i));
  EXPECT_EQ(b.size(), 7u);
  EXPECT_EQ(b.Get(0), P(6.0, 12.0));
  EXPECT_EQ(b.Get(6), P(100.0, 200.0));
  Buffer c;
  c = b;
  EXPECT_TRUE(c.spilled());
  for (size_t i = 0; i < 7; ++i) EXPECT_EQ(c.Get(i), b.Get(i));
  // An un-spilled buffer keeps its block; a copy of it has none.
  while (b.size() > 4) b.SwapRemoveAt(0);
  EXPECT_GT(b.lane_capacity(), 0u);
  Buffer d = b;
  EXPECT_EQ(d.lane_capacity(), 0u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(d.Get(i), b.Get(i));
}

TEST(SoaBufferTest, SwapRemoveMovesLastIntoHole) {
  Buffer b;
  b.push_back(P(0.0, 0.0));
  b.push_back(P(1.0, 1.0));
  b.push_back(P(2.0, 2.0));
  b.SwapRemoveAt(0);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.Get(0), P(2.0, 2.0));
  EXPECT_EQ(b.Get(1), P(1.0, 1.0));
}

TEST(SoaBufferTest, MatchesUsesIeeeEquality) {
  Buffer b;
  b.push_back(P(0.0, 1.0));
  EXPECT_TRUE(b.Matches(0, P(-0.0, 1.0)));  // -0.0 == 0.0
  EXPECT_FALSE(b.Matches(0, P(0.0, 1.5)));
}

TEST(SoaBufferTest, ClearResetsSize) {
  Buffer b;
  for (int i = 0; i < 6; ++i) b.push_back(P(i, i));
  b.clear();
  EXPECT_EQ(b.size(), 0u);
  EXPECT_FALSE(b.spilled());
  b.push_back(P(9.0, 9.0));
  EXPECT_EQ(b.Get(0), P(9.0, 9.0));
}

TEST(SoaBufferTest, ForEachInBoxMatchesScalarContainsOnBothPaths) {
  Pcg32 rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    SoaBuffer<2, 8> b;
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
      ForEachInBox(b, box, [&got](size_t i) { got.push_back(i); });
      EXPECT_EQ(got, expected) << "trial " << trial << " scalar " << scalar;
    }
    simd::SetForceScalar(false);
  }
}

TEST(SoaBufferTest, ForEachEqualOnAxisMatchesScalarOnBothPaths) {
  Pcg32 rng(6);
  SoaBuffer<2, 8> b;
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
      ForEachEqualOnAxis(b, axis, value,
                         [&got](size_t i) { got.push_back(i); });
      EXPECT_EQ(got, expected) << "axis " << axis << " scalar " << scalar;
    }
    simd::SetForceScalar(false);
  }
}

}  // namespace
}  // namespace popan::spatial
