#include "util/simd.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace popan::simd {
namespace {

/// Restores the dispatch mode even when a test fails mid-way.
class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool on) : prev_(ForceScalar()) {
    SetForceScalar(on);
  }
  ~ScopedForceScalar() { SetForceScalar(prev_); }

 private:
  bool prev_;
};

uint64_t ScalarMaskInHalfOpen(const double* v, size_t n, double lo,
                              double hi) {
  uint64_t mask = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!(v[i] < lo || v[i] >= hi)) mask |= uint64_t{1} << i;
  }
  return mask;
}

TEST(SimdTest, IsaNameIsNonEmpty) {
  EXPECT_NE(IsaName(), nullptr);
  ScopedForceScalar scoped(true);
  EXPECT_EQ(ActiveIsa(), Isa::kScalar);
}

TEST(SimdTest, MaskInHalfOpenBasic) {
  const double v[] = {0.0, 0.5, 1.0, -1.0, 0.999, 2.0};
  // [0, 1): indices 0, 1, 4 inside.
  EXPECT_EQ(MaskInHalfOpen(v, 6, 0.0, 1.0), 0b010011u);
}

TEST(SimdTest, MaskInHalfOpenNaNIsInside) {
  // Box::Contains' formulation !(v < lo || v >= hi) admits NaN (both
  // compares false); the kernel must agree on every path.
  const double v[] = {std::numeric_limits<double>::quiet_NaN(), 0.5, 5.0};
  const uint64_t expected = ScalarMaskInHalfOpen(v, 3, 0.0, 1.0);
  EXPECT_EQ(expected, 0b011u);
  EXPECT_EQ(MaskInHalfOpen(v, 3, 0.0, 1.0), expected);
  ScopedForceScalar scoped(true);
  EXPECT_EQ(MaskInHalfOpen(v, 3, 0.0, 1.0), expected);
}

TEST(SimdTest, MaskInHalfOpenMatchesScalarOnRandomLanes) {
  Pcg32 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    double v[64];
    const size_t n = 1 + static_cast<size_t>(rng.NextDouble() * 64) % 64;
    for (size_t i = 0; i < n; ++i) v[i] = rng.NextDouble(-2.0, 2.0);
    const double lo = rng.NextDouble(-1.0, 0.5);
    const double hi = lo + rng.NextDouble(0.0, 1.5);
    const uint64_t expected = ScalarMaskInHalfOpen(v, n, lo, hi);
    EXPECT_EQ(MaskInHalfOpen(v, n, lo, hi), expected);
    ScopedForceScalar scoped(true);
    EXPECT_EQ(MaskInHalfOpen(v, n, lo, hi), expected);
  }
}

TEST(SimdTest, MaskEqualHandlesSignedZeroAndNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double v[] = {0.0, -0.0, 1.0, nan};
  // IEEE ==: -0.0 == 0.0, NaN != NaN.
  EXPECT_EQ(MaskEqual(v, 4, 0.0), 0b0011u);
  EXPECT_EQ(MaskEqual(v, 4, nan), 0u);
  ScopedForceScalar scoped(true);
  EXPECT_EQ(MaskEqual(v, 4, 0.0), 0b0011u);
  EXPECT_EQ(MaskEqual(v, 4, nan), 0u);
}

TEST(SimdTest, MaskCellsInRectHalfOpen) {
  const uint32_t xs[] = {0, 1, 2, 3, 4};
  const uint32_t ys[] = {0, 0, 5, 5, 9};
  // Rect [1, 4) x [0, 6): cells 1 (1,0), 2 (2,5), 3 (3,5).
  EXPECT_EQ(MaskCellsInRect(xs, ys, 5, 1, 0, 4, 6), 0b01110u);
  ScopedForceScalar scoped(true);
  EXPECT_EQ(MaskCellsInRect(xs, ys, 5, 1, 0, 4, 6), 0b01110u);
}

TEST(SimdTest, QuantizeClampedMatchesScalarDefinition) {
  Pcg32 rng(13);
  const uint32_t max_q = (uint32_t{1} << 20) - 1;
  const double scale = static_cast<double>(uint32_t{1} << 20);
  for (int trial = 0; trial < 50; ++trial) {
    double v[64];
    uint32_t simd_q[64];
    uint32_t scalar_q[64];
    for (size_t i = 0; i < 64; ++i) v[i] = rng.NextDouble(-0.5, 1.5);
    v[0] = 0.0;
    v[1] = 1.0 - 1e-16;
    v[2] = -0.0;
    v[3] = 1e308;  // clamps to max_q
    QuantizeClamped(v, 64, scale, max_q, simd_q);
    {
      ScopedForceScalar scoped(true);
      QuantizeClamped(v, 64, scale, max_q, scalar_q);
    }
    for (size_t i = 0; i < 64; ++i) {
      // Reference clamps in double before truncating (defined for the
      // 1e308 lane; identical to a post-truncation clamp in range).
      const double scaled = v[i] * scale;
      const uint32_t expected =
          scaled > 0.0
              ? static_cast<uint32_t>(
                    std::min(scaled, static_cast<double>(max_q)))
              : 0;
      EXPECT_EQ(simd_q[i], expected) << "lane " << i;
      EXPECT_EQ(scalar_q[i], expected) << "lane " << i;
    }
  }
}

TEST(SimdTest, BisectStepMatchesMidpointDescent) {
  Pcg32 rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    double v[8];
    double lo[8];
    double hi[8];
    double slo[8];
    double shi[8];
    for (size_t i = 0; i < 8; ++i) {
      v[i] = rng.NextDouble();
      lo[i] = slo[i] = 0.0;
      hi[i] = shi[i] = 1.0;
    }
    for (int level = 0; level < 20; ++level) {
      uint32_t expected = 0;
      for (size_t i = 0; i < 8; ++i) {
        const double mid = 0.5 * (slo[i] + shi[i]);
        if (v[i] >= mid) {
          expected |= uint32_t{1} << i;
          slo[i] = mid;
        } else {
          shi[i] = mid;
        }
      }
      EXPECT_EQ(BisectStep(v, lo, hi, 8), expected) << "level " << level;
      for (size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(lo[i], slo[i]);
        EXPECT_EQ(hi[i], shi[i]);
      }
    }
  }
}

TEST(SimdTest, InterleaveRoundTrip) {
  Pcg32 rng(19);
  for (int trial = 0; trial < 1000; ++trial) {
    const uint32_t x = static_cast<uint32_t>(rng.NextDouble() * 4294967296.0);
    const uint32_t y = static_cast<uint32_t>(rng.NextDouble() * 4294967296.0);
    const uint64_t code = InterleaveBits(x, y);
    uint32_t rx = 0;
    uint32_t ry = 0;
    DeinterleaveBits(code, &rx, &ry);
    EXPECT_EQ(rx, x);
    EXPECT_EQ(ry, y);
  }
}

TEST(SimdTest, InterleaveBitsBitPositions) {
  // Bit 2k of the code is bit k of x; bit 2k + 1 is bit k of y.
  EXPECT_EQ(InterleaveBits(1, 0), 0b01u);
  EXPECT_EQ(InterleaveBits(0, 1), 0b10u);
  EXPECT_EQ(InterleaveBits(0xffffffffu, 0),
            0x5555555555555555ull);
  EXPECT_EQ(InterleaveBits(0, 0xffffffffu),
            0xaaaaaaaaaaaaaaaaull);
}

TEST(SimdTest, InterleaveBits8MatchesScalarOnBothPaths) {
  Pcg32 rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    uint32_t xs[8];
    uint32_t ys[8];
    uint64_t batch[8];
    uint64_t batch_scalar[8];
    for (size_t i = 0; i < 8; ++i) {
      xs[i] = static_cast<uint32_t>(rng.NextDouble() * 4294967296.0);
      ys[i] = static_cast<uint32_t>(rng.NextDouble() * 4294967296.0);
    }
    InterleaveBits8(xs, ys, batch);
    {
      ScopedForceScalar scoped(true);
      InterleaveBits8(xs, ys, batch_scalar);
    }
    for (size_t i = 0; i < 8; ++i) {
      const uint64_t expected = InterleaveBits(xs[i], ys[i]);
      EXPECT_EQ(batch[i], expected) << "lane " << i;
      EXPECT_EQ(batch_scalar[i], expected) << "lane " << i;
    }
    uint32_t dx[8];
    uint32_t dy[8];
    DeinterleaveBits8(batch, dx, dy);
    for (size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(dx[i], xs[i]);
      EXPECT_EQ(dy[i], ys[i]);
    }
  }
}

}  // namespace
}  // namespace popan::simd
