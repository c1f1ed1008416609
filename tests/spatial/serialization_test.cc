#include "spatial/serialization.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

#include "testing/statusor_testing.h"

namespace popan::spatial {
namespace {

using geo::Box2;
using geo::Point2;

LinearPrQuadtree RandomLinearTree(size_t n, size_t capacity, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<Point2> points;
  for (size_t i = 0; i < n; ++i) {
    points.emplace_back(rng.NextDouble(), rng.NextDouble());
  }
  PrTreeOptions options;
  options.capacity = capacity;
  return ValueOrDie(
      LinearPrQuadtree::BulkLoad(Box2::UnitCube(), points, options));
}

TEST(LinearSerializationTest, RoundTripEmpty) {
  LinearPrQuadtree tree =
      ValueOrDie(LinearPrQuadtree::BulkLoad(Box2::UnitCube(), {}));
  StatusOr<LinearPrQuadtree> loaded =
      DeserializeLinearPrQuadtree(SerializeToString(tree));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->LeafCount(), 1u);
  EXPECT_TRUE(loaded->empty());
}

TEST(LinearSerializationTest, RoundTripPreservesEverything) {
  for (uint64_t seed : {1u, 2u}) {
    LinearPrQuadtree tree = RandomLinearTree(300, 3, seed);
    StatusOr<LinearPrQuadtree> loaded =
        DeserializeLinearPrQuadtree(SerializeToString(tree));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->size(), tree.size());
    ASSERT_EQ(loaded->LeafCount(), tree.LeafCount());
    for (size_t i = 0; i < tree.LeafCount(); ++i) {
      EXPECT_EQ(loaded->leaves()[i].code, tree.leaves()[i].code);
      EXPECT_EQ(loaded->leaves()[i].points, tree.leaves()[i].points);
    }
    EXPECT_TRUE(loaded->CheckInvariants().ok());
  }
}

TEST(LinearSerializationTest, RoundTripNonUnitBounds) {
  Pcg32 rng(5);
  std::vector<Point2> points;
  for (int i = 0; i < 100; ++i) {
    points.emplace_back(rng.NextDouble(-10.0, 30.0),
                        rng.NextDouble(5.0, 6.0));
  }
  Box2 bounds(Point2(-10.0, 5.0), Point2(30.0, 6.0));
  LinearPrQuadtree tree =
      ValueOrDie(LinearPrQuadtree::BulkLoad(bounds, points));
  StatusOr<LinearPrQuadtree> loaded =
      DeserializeLinearPrQuadtree(SerializeToString(tree));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->bounds(), bounds);
  for (const Point2& p : points) EXPECT_TRUE(loaded->Contains(p));
}

TEST(LinearSerializationTest, RejectsBadMagic) {
  EXPECT_FALSE(DeserializeLinearPrQuadtree("not-a-quadtree v9\n").ok());
  EXPECT_FALSE(DeserializeLinearPrQuadtree("").ok());
}

TEST(LinearSerializationTest, RejectsTruncatedFile) {
  LinearPrQuadtree tree = RandomLinearTree(50, 2, 3);
  std::string text = SerializeToString(tree);
  std::string truncated = text.substr(0, text.size() / 2);
  // Cut at a line boundary to test missing-leaf detection too.
  size_t nl = truncated.rfind('\n');
  EXPECT_FALSE(
      DeserializeLinearPrQuadtree(truncated.substr(0, nl + 1)).ok());
}

TEST(LinearSerializationTest, RejectsTamperedCode) {
  LinearPrQuadtree tree = RandomLinearTree(50, 2, 4);
  std::string text = SerializeToString(tree);
  // Flip the first leaf's code bits field.
  size_t pos = text.find("\nleaf ");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 6] = '9';
  EXPECT_FALSE(DeserializeLinearPrQuadtree(text).ok());
}

TEST(LinearSerializationTest, RejectsDegenerateBounds) {
  std::string text =
      "popan-linear-quadtree v1\nbounds 0 0 0 1\noptions 1 31\nleaves 1\n"
      "leaf 0 0 0\n";
  EXPECT_FALSE(DeserializeLinearPrQuadtree(text).ok());
}

TEST(RegionSerializationTest, RoundTrip) {
  Pcg32 rng(7);
  std::vector<uint8_t> pixels(32 * 32);
  for (auto& px : pixels) px = rng.NextDouble() < 0.4 ? 1 : 0;
  RegionQuadtree tree = ValueOrDie(RegionQuadtree::FromRaster(pixels, 32));
  StatusOr<RegionQuadtree> loaded =
      DeserializeRegionQuadtree(SerializeToString(tree));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, tree);
  EXPECT_EQ(loaded->ToRaster(), pixels);
}

TEST(RegionSerializationTest, RoundTripUniformImages) {
  RegionQuadtree full = ValueOrDie(RegionQuadtree::Full(16));
  StatusOr<RegionQuadtree> loaded =
      DeserializeRegionQuadtree(SerializeToString(full));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, full);
  EXPECT_EQ(loaded->Area(), 256u);
}

TEST(RegionSerializationTest, RejectsBadMagic) {
  EXPECT_FALSE(DeserializeRegionQuadtree("garbage\n").ok());
}

TEST(RegionSerializationTest, RejectsNonTilingLeaves) {
  // Two root-sized leaves cannot tile one image.
  std::string text =
      "popan-region-quadtree v1\nside 8\nleaves 2\nleaf 0 0 1\nleaf 0 0 "
      "0\n";
  EXPECT_FALSE(DeserializeRegionQuadtree(text).ok());
}

TEST(RegionSerializationTest, RejectsOverdeepLeaf) {
  std::string text =
      "popan-region-quadtree v1\nside 4\nleaves 1\nleaf 0 9 1\n";
  EXPECT_FALSE(DeserializeRegionQuadtree(text).ok());
}

TEST(RegionSerializationTest, RejectsBadSide) {
  std::string text = "popan-region-quadtree v1\nside 7\nleaves 0\n";
  EXPECT_FALSE(DeserializeRegionQuadtree(text).ok());
}

}  // namespace
}  // namespace popan::spatial
