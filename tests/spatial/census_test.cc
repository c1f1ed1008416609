#include "spatial/census.h"

#include <gtest/gtest.h>

namespace popan::spatial {
namespace {

TEST(CensusTest, EmptyCensus) {
  Census c;
  EXPECT_EQ(c.LeafCount(), 0u);
  EXPECT_EQ(c.ItemCount(), 0u);
  EXPECT_EQ(c.AverageOccupancy(), 0.0);
  EXPECT_EQ(c.MaxOccupancy(), 0u);
  EXPECT_EQ(c.CountAt(3), 0u);
  EXPECT_TRUE(c.DepthsPresent().empty());
}

TEST(CensusTest, SingleLeaf) {
  Census c;
  c.AddLeaf(2, 5);
  EXPECT_EQ(c.LeafCount(), 1u);
  EXPECT_EQ(c.ItemCount(), 2u);
  EXPECT_EQ(c.CountAt(2), 1u);
  EXPECT_EQ(c.CountAt(2, 5), 1u);
  EXPECT_EQ(c.CountAt(2, 4), 0u);
  EXPECT_EQ(c.MaxOccupancy(), 2u);
  EXPECT_EQ(c.MaxDepth(), 5u);
}

TEST(CensusTest, AccumulatesCounts) {
  Census c;
  c.AddLeaf(0, 1);
  c.AddLeaf(0, 1);
  c.AddLeaf(1, 2);
  c.AddLeaf(3, 2);
  EXPECT_EQ(c.LeafCount(), 4u);
  EXPECT_EQ(c.ItemCount(), 4u);
  EXPECT_EQ(c.CountAt(0), 2u);
  EXPECT_EQ(c.AverageOccupancy(), 1.0);
}

TEST(CensusTest, PerDepthStatistics) {
  Census c;
  c.AddLeaf(1, 3);
  c.AddLeaf(0, 3);
  c.AddLeaf(2, 4);
  EXPECT_EQ(c.LeavesAtDepth(3), 2u);
  EXPECT_EQ(c.ItemsAtDepth(3), 1u);
  EXPECT_EQ(c.AverageOccupancyAtDepth(3), 0.5);
  EXPECT_EQ(c.AverageOccupancyAtDepth(4), 2.0);
  EXPECT_EQ(c.AverageOccupancyAtDepth(7), 0.0);
  EXPECT_EQ(c.DepthsPresent(), (std::vector<size_t>{3, 4}));
}

TEST(CensusTest, ProportionsSumToOne) {
  Census c;
  c.AddLeaf(0, 0);
  c.AddLeaf(1, 1);
  c.AddLeaf(1, 1);
  c.AddLeaf(2, 2);
  num::Vector p = c.Proportions();
  EXPECT_DOUBLE_EQ(p.Sum(), 1.0);
  EXPECT_DOUBLE_EQ(p[0], 0.25);
  EXPECT_DOUBLE_EQ(p[1], 0.5);
  EXPECT_DOUBLE_EQ(p[2], 0.25);
}

TEST(CensusTest, ProportionsMinSizePads) {
  Census c;
  c.AddLeaf(0, 0);
  num::Vector p = c.Proportions(4);
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p[0], 1.0);
  EXPECT_EQ(p[3], 0.0);
}

TEST(CensusTest, ProportionsOfEmptyCensusAreZeros) {
  Census c;
  num::Vector p = c.Proportions(3);
  EXPECT_EQ(p, num::Vector(3));
}

TEST(CensusTest, Merge) {
  Census a;
  a.AddLeaf(0, 1);
  a.AddLeaf(2, 2);
  Census b;
  b.AddLeaf(2, 3);
  b.AddLeaf(5, 1);
  a.Merge(b);
  EXPECT_EQ(a.LeafCount(), 4u);
  EXPECT_EQ(a.ItemCount(), 9u);
  EXPECT_EQ(a.CountAt(2), 2u);
  EXPECT_EQ(a.CountAt(5), 1u);
  EXPECT_EQ(a.CountAt(2, 3), 1u);
  EXPECT_EQ(a.MaxDepth(), 3u);
  EXPECT_EQ(a.MaxOccupancy(), 5u);
}

TEST(CensusTest, MergeIntoEmpty) {
  Census a;
  Census b;
  b.AddLeaf(1, 1);
  a.Merge(b);
  EXPECT_EQ(a.LeafCount(), 1u);
}

TEST(CensusTest, RemoveLeafUndoesAddLeaf) {
  Census never;
  never.AddLeaf(1, 0);
  never.AddLeaf(3, 2);
  Census undone = never;
  undone.AddLeaf(7, 9);  // a new depth row and a wider column
  undone.AddLeaf(0, 2);
  undone.AddLeaf(3, 2);
  undone.RemoveLeaf(7, 9);
  undone.RemoveLeaf(0, 2);
  undone.RemoveLeaf(3, 2);
  EXPECT_TRUE(undone == never);
  EXPECT_TRUE(never == undone);
  EXPECT_FALSE(undone != never);
  undone.RemoveLeaf(1, 0);
  EXPECT_TRUE(undone != never);
  EXPECT_TRUE(never != undone);
}

TEST(CensusTest, MergeAddsCellByCellAcrossShapes) {
  Census shallow;  // two depths, wide rows
  shallow.AddLeaf(0, 0);
  shallow.AddLeaf(6, 1);
  shallow.AddLeaf(6, 1);
  Census deep;  // five depths, narrow rows
  deep.AddLeaf(1, 1);
  deep.AddLeaf(6, 1);
  deep.AddLeaf(2, 4);
  Census merged = shallow;
  merged.Merge(deep);
  EXPECT_EQ(merged.CountAt(0, 0), 1u);
  EXPECT_EQ(merged.CountAt(1, 1), 1u);
  EXPECT_EQ(merged.CountAt(6, 1), 3u);
  EXPECT_EQ(merged.CountAt(2, 4), 1u);
  EXPECT_EQ(merged.CountAt(2, 2), 0u);
  EXPECT_EQ(merged.LeafCount(), shallow.LeafCount() + deep.LeafCount());
  EXPECT_EQ(merged.ItemCount(), shallow.ItemCount() + deep.ItemCount());
  // The other order reaches the same cells.
  Census reversed = deep;
  reversed.Merge(shallow);
  EXPECT_EQ(reversed, merged);
}

TEST(CensusTest, DerivedStatisticsFollowRemovals) {
  Census c;
  c.AddLeaf(0, 1);
  c.AddLeaf(2, 1);
  c.AddLeaf(5, 3);
  c.AddLeaf(1, 3);
  c.RemoveLeaf(5, 3);  // the widest column falls back to zero
  c.RemoveLeaf(0, 1);
  EXPECT_EQ(c.LeafCount(), 2u);
  EXPECT_EQ(c.ItemCount(), 3u);
  EXPECT_EQ(c.CountAt(0), 0u);
  EXPECT_EQ(c.CountAt(1), 1u);
  EXPECT_EQ(c.CountAt(2), 1u);
  EXPECT_EQ(c.CountAt(5), 0u);
  EXPECT_EQ(c.MaxOccupancy(), 2u);
  EXPECT_EQ(c.MaxDepth(), 3u);
  EXPECT_EQ(c.AverageOccupancy(), 1.5);
  num::Vector p = c.Proportions();
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0], 0.0);
  EXPECT_EQ(p[1], 0.5);
  EXPECT_EQ(p[2], 0.5);
  EXPECT_EQ(c.Proportions(5).size(), 5u);
  c.RemoveLeaf(1, 3);
  c.RemoveLeaf(2, 1);
  EXPECT_EQ(c.LeafCount(), 0u);
  EXPECT_EQ(c.MaxOccupancy(), 0u);
  EXPECT_EQ(c.MaxDepth(), 0u);
  EXPECT_EQ(c.Proportions(3), num::Vector(3));
  EXPECT_EQ(c, Census());
}

TEST(CensusTest, StorageUtilization) {
  Census c;
  c.AddLeaf(2, 0);
  c.AddLeaf(4, 0);
  EXPECT_DOUBLE_EQ(c.StorageUtilization(4), 0.75);
}

TEST(CensusTest, ToStringMentionsCounts) {
  Census c;
  c.AddLeaf(1, 0);
  std::string s = c.ToString();
  EXPECT_NE(s.find("leaves=1"), std::string::npos);
  EXPECT_NE(s.find("items=1"), std::string::npos);
}

// A minimal structure exposing VisitLeaves (member templates are not
// allowed in function-local classes, so this lives at namespace scope).
struct FakeTree {
  template <typename Fn>
  void VisitLeaves(Fn fn) const {
    int box = 0;  // box payload is unused by Census
    fn(box, 1, 0);
    fn(box, 2, 3);
    fn(box, 2, 1);
  }
};

TEST(CensusTest, TakeCensusFromVisitLeavesShape) {
  Census c = TakeCensus(FakeTree{});
  EXPECT_EQ(c.LeafCount(), 3u);
  EXPECT_EQ(c.ItemCount(), 4u);
  EXPECT_EQ(c.LeavesAtDepth(2), 2u);
}

}  // namespace
}  // namespace popan::spatial
