#include "core/transform_matrix.h"

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "core/steady_state.h"
#include "numerics/combinatorics.h"

#include "testing/statusor_testing.h"

namespace popan::core {
namespace {

TEST(ValidateParamsTest, AcceptsAndRejects) {
  EXPECT_TRUE(ValidateParams({1, 4}).ok());
  EXPECT_TRUE(ValidateParams({8, 2}).ok());
  EXPECT_FALSE(ValidateParams({0, 4}).ok());
  EXPECT_FALSE(ValidateParams({1, 1}).ok());
  EXPECT_FALSE(ValidateParams({513, 4}).ok());
  EXPECT_FALSE(ValidateParams({1, 2048}).ok());
}

TEST(ExpectedChildrenTest, PaperTwoPointExample) {
  // m = 1: two points scatter into four quadrants. Expected number of
  // quadrants with both points = 4/16 = 1/4; with one = 2*4*(1/4)(3/4)...
  // P_2 = 4^-1 = 0.25, P_1 = C(2,1)*3/4 = 1.5, P_0 = 9/4 = 2.25.
  EXPECT_NEAR(ExpectedChildrenWithOccupancy(2, 2, 4), 0.25, 1e-12);
  EXPECT_NEAR(ExpectedChildrenWithOccupancy(2, 1, 4), 1.5, 1e-12);
  EXPECT_NEAR(ExpectedChildrenWithOccupancy(2, 0, 4), 2.25, 1e-12);
}

TEST(ExpectedChildrenTest, SumsToFanout) {
  for (size_t c : {2u, 4u, 8u}) {
    for (size_t n : {1u, 2u, 5u, 9u, 20u}) {
      double total = 0.0;
      for (size_t i = 0; i <= n; ++i) {
        total += ExpectedChildrenWithOccupancy(n, i, c);
      }
      EXPECT_NEAR(total, static_cast<double>(c), 1e-10)
          << "n=" << n << " c=" << c;
    }
  }
}

TEST(ExpectedChildrenTest, ItemsConserved) {
  // sum_i i * P_i = n: all n items land somewhere.
  const size_t n = 9, c = 4;
  double items = 0.0;
  for (size_t i = 0; i <= n; ++i) {
    items += static_cast<double>(i) * ExpectedChildrenWithOccupancy(n, i, c);
  }
  EXPECT_NEAR(items, static_cast<double>(n), 1e-10);
}

TEST(SplitTransformRowTest, PaperM1Quadtree) {
  // The paper's §III worked example: t_1 = (3, 2).
  num::Vector row = SplitTransformRow({1, 4});
  ASSERT_EQ(row.size(), 2u);
  EXPECT_NEAR(row[0], 3.0, 1e-12);
  EXPECT_NEAR(row[1], 2.0, 1e-12);
}

TEST(SplitTransformRowTest, ClosedFormMatchesDefinition) {
  // T_mi = C(m+1, i) (c-1)^{m+1-i} / (c^m - 1) for small cases, exactly.
  for (size_t m : {1u, 2u, 3u, 4u, 5u}) {
    for (size_t c : {2u, 4u, 8u}) {
      num::Vector row = SplitTransformRow({m, c});
      double denom = std::pow(static_cast<double>(c),
                              static_cast<double>(m)) -
                     1.0;
      for (size_t i = 0; i <= m; ++i) {
        double expected =
            num::Binomial(static_cast<int>(m + 1), static_cast<int>(i)) *
            std::pow(static_cast<double>(c - 1),
                     static_cast<double>(m + 1 - i)) /
            denom;
        EXPECT_NEAR(row[i], expected, 1e-12 * expected + 1e-15)
            << "m=" << m << " c=" << c << " i=" << i;
      }
    }
  }
}

TEST(SplitTransformRowTest, RowSumIdentity) {
  // |t_m|_1 = (c^{m+1} - 1)/(c^m - 1), the paper's row-sum remark.
  for (size_t m = 1; m <= 10; ++m) {
    for (size_t c : {2u, 4u, 8u}) {
      num::Vector row = SplitTransformRow({m, c});
      EXPECT_NEAR(row.Sum(), SplitRowSum({m, c}), 1e-10)
          << "m=" << m << " c=" << c;
    }
  }
}

TEST(SplitRowSumTest, SlightlyAboveFanout) {
  for (size_t m = 1; m <= 12; ++m) {
    double s = SplitRowSum({m, 4});
    EXPECT_GT(s, 4.0);
    EXPECT_LT(s, 4.0 + 4.0 / (std::pow(4.0, m) - 1.0) + 1e-9);
  }
  // m = 1, c = 4: (16-1)/(4-1) = 5.
  EXPECT_NEAR(SplitRowSum({1, 4}), 5.0, 1e-12);
}

TEST(SplitCohortOccupancyTest, PaperValueForM1) {
  // t_1 = (3, 2): 5 nodes holding 2 points -> 0.40 (Table 3's limit).
  EXPECT_NEAR(SplitCohortOccupancy({1, 4}), 0.40, 1e-12);
}

TEST(SplitCohortOccupancyTest, ItemsPerSplitIsMPlusOne) {
  // A split redistributes exactly m+1 items: dot(t_m, 0..m) = m+1 must
  // hold after the recursion fold... the fold preserves item count:
  // dot = (m+1 - (m+1) c^{-m}) / (1 - c^{-m}) = m+1.
  for (size_t m = 1; m <= 8; ++m) {
    num::Vector row = SplitTransformRow({m, 4});
    double items = 0.0;
    for (size_t i = 0; i < row.size(); ++i) items += row[i] * i;
    EXPECT_NEAR(items, static_cast<double>(m + 1), 1e-9) << "m=" << m;
  }
}

class TransformMatrixSweep
    : public testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(TransformMatrixSweep, StructureIsCorrect) {
  auto [m, c] = GetParam();
  num::Matrix t = BuildTransformMatrix({m, c});
  ASSERT_EQ(t.rows(), m + 1);
  ASSERT_EQ(t.cols(), m + 1);
  // Rows 0..m-1: unit shift.
  for (size_t i = 0; i + 1 <= m; ++i) {
    for (size_t j = 0; j <= m; ++j) {
      EXPECT_EQ(t.At(i, j), j == i + 1 ? 1.0 : 0.0);
    }
    EXPECT_NEAR(t.RowSum(i), 1.0, 1e-15);
  }
  // Row m: positive, sums above the fanout.
  for (size_t j = 0; j <= m; ++j) {
    EXPECT_GT(t.At(m, j), 0.0);
  }
  EXPECT_GT(t.RowSum(m), static_cast<double>(c));
}

TEST_P(TransformMatrixSweep, RowSumsVectorAgrees) {
  auto [m, c] = GetParam();
  num::Matrix t = BuildTransformMatrix({m, c});
  num::Vector sums = RowSums({m, c});
  ASSERT_EQ(sums.size(), m + 1);
  for (size_t i = 0; i <= m; ++i) {
    EXPECT_NEAR(sums[i], t.RowSum(i), 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CapacityFanoutGrid, TransformMatrixSweep,
    testing::Combine(testing::Values<size_t>(1, 2, 3, 4, 6, 8, 16, 32),
                     testing::Values<size_t>(2, 4, 8, 16)),
    [](const testing::TestParamInfo<std::tuple<size_t, size_t>>& info) {
      std::string name = "m";
      name += std::to_string(std::get<0>(info.param));
      name += "_c";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

TEST(SkewedSplitRowTest, UniformSkewReducesToStandardRow) {
  for (size_t m : {1u, 3u, 8u}) {
    std::vector<double> uniform(4, 0.25);
    StatusOr<num::Vector> skewed = SkewedSplitTransformRow(m, uniform);
    ASSERT_TRUE(skewed.ok()) << skewed.status().ToString();
    num::Vector standard = SplitTransformRow({m, 4});
    EXPECT_LT(skewed->MaxAbsDiff(standard), 1e-10) << "m=" << m;
  }
}

TEST(SkewedSplitRowTest, BintreeUniformCase) {
  std::vector<double> half = {0.5, 0.5};
  StatusOr<num::Vector> skewed = SkewedSplitTransformRow(2, half);
  ASSERT_TRUE(skewed.ok());
  EXPECT_LT(skewed->MaxAbsDiff(SplitTransformRow({2, 2})), 1e-10);
}

TEST(SkewedSplitRowTest, ItemConservationUnderSkew) {
  // The fold preserves item count: dot(t_m, 0..m) = m + 1 regardless of
  // the skew.
  std::vector<double> skew = {0.55, 0.25, 0.15, 0.05};
  for (size_t m : {1u, 4u, 8u}) {
    StatusOr<num::Vector> row = SkewedSplitTransformRow(m, skew);
    ASSERT_TRUE(row.ok());
    double items = 0.0;
    for (size_t i = 0; i < row->size(); ++i) {
      items += (*row)[i] * static_cast<double>(i);
    }
    EXPECT_NEAR(items, static_cast<double>(m + 1), 1e-9) << "m=" << m;
  }
}

TEST(SkewedSplitRowTest, SkewLowersSteadyOccupancy) {
  // Concentrating the data in one child wastes the siblings: the
  // steady-state occupancy under skew must fall below the uniform one.
  // (This is the model's explanation for adaptive structures degrading on
  // locally skewed data.)
  const size_t m = 4;
  std::vector<double> skew = {0.7, 0.1, 0.1, 0.1};
  num::Matrix skewed_t = ValueOrDie(BuildSkewedTransformMatrix(m, skew));
  PopulationModel skewed_model{std::move(skewed_t)};
  PopulationModel uniform_model{TreeModelParams{m, 4}};
  double occ_skewed =
      SolveSteadyState(skewed_model)->average_occupancy;
  double occ_uniform =
      SolveSteadyState(uniform_model)->average_occupancy;
  EXPECT_LT(occ_skewed, occ_uniform);
  EXPECT_GT(occ_skewed, 0.0);
}

TEST(SkewedSplitRowTest, InvalidInputsRejected) {
  EXPECT_FALSE(SkewedSplitTransformRow(0, {0.5, 0.5}).ok());
  EXPECT_FALSE(SkewedSplitTransformRow(2, {1.0}).ok());
  EXPECT_FALSE(SkewedSplitTransformRow(2, {0.5, 0.6}).ok());
  EXPECT_FALSE(SkewedSplitTransformRow(2, {0.0, 1.0}).ok());
  EXPECT_FALSE(SkewedSplitTransformRow(2, {-0.2, 1.2}).ok());
}

TEST(SkewedSplitRowTest, ExtremeSkewStillConverges) {
  // The fold mass sum_q p_q^{m+1} is < 1 for every valid skew (each term
  // is < p_q), so even near-degenerate skews yield a finite row.
  StatusOr<num::Vector> row =
      SkewedSplitTransformRow(1, {0.997, 0.001, 0.001, 0.001});
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_TRUE(row->AllPositive());
  // Such a split mostly produces three empty children and re-splits:
  // expected empty children per absorbed point is large.
  EXPECT_GT((*row)[0], 100.0);
}

TEST(TransformMatrixTest, LargeCapacityStaysFinite) {
  num::Vector row = SplitTransformRow({64, 4});
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_TRUE(std::isfinite(row[i]));
    EXPECT_GE(row[i], 0.0);
  }
  EXPECT_NEAR(row.Sum(), SplitRowSum({64, 4}), 1e-8);
}

}  // namespace
}  // namespace popan::core
