#ifndef POPAN_UTIL_SIMD_H_
#define POPAN_UTIL_SIMD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>

// The one translation point between portable code and raw vector
// intrinsics. Every kernel here has a scalar reference implementation
// that *defines* its semantics; the vector bodies are required to be
// bitwise identical to it for every input the callers can produce, so a
// kernel may only vectorize operations whose rounding is shape-identical
// to the scalar expression:
//
//   * comparisons and integer ops (always exact),
//   * multiplication by an exact power of two (exponent shift),
//   * non-fusable floating shapes — a lone add, a lone divide, or
//     mul-of-add like 0.5 * (lo + hi). Shapes of the form a + b * c are
//     banned: the compiler may contract the scalar spelling to an FMA
//     (-ffp-contract is `fast` by default) while the hand-written vector
//     body keeps two roundings, silently breaking parity.
//
// Dispatch: SSE2 is the x86-64 baseline and is selected at compile time;
// AVX2 bodies are compiled with a function target attribute and selected
// once per process via cpuid, so portable builds still use 4-wide kernels
// on capable hosts. NEON covers aarch64 at compile time. The scalar path
// is always available and is forced by POPAN_FORCE_SCALAR=1 (read once)
// or SetForceScalar() — the knob the parity storm flips to prove both
// paths agree bit for bit.
//
// popan-lint enforces (rule raw-simd-intrinsic) that no other file in the
// tree touches _mm_* / vld1q_* directly.

#if defined(__x86_64__) || defined(_M_X64)
#define POPAN_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__) || defined(__ARM_NEON)
#define POPAN_SIMD_NEON 1
#include <arm_neon.h>
#endif

#if defined(POPAN_SIMD_X86) && (defined(__GNUC__) || defined(__clang__))
#define POPAN_SIMD_HAS_AVX2_TARGET 1
#define POPAN_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define POPAN_TARGET_AVX2
#endif

namespace popan::simd {

/// Instruction set a kernel call will use (after the force-scalar knob).
enum class Isa { kScalar, kSse2, kAvx2, kNeon };

namespace detail {

inline std::atomic<int>& ForceScalarFlag() {
  static std::atomic<int> flag{[] {
    const char* env = std::getenv("POPAN_FORCE_SCALAR");
    return (env != nullptr && env[0] != '\0' && env[0] != '0') ? 1 : 0;
  }()};
  return flag;
}

inline Isa NativeIsa() {
#if defined(POPAN_SIMD_HAS_AVX2_TARGET)
  static const Isa isa =
      __builtin_cpu_supports("avx2") ? Isa::kAvx2 : Isa::kSse2;
  return isa;
#elif defined(POPAN_SIMD_X86)
  return Isa::kSse2;
#elif defined(POPAN_SIMD_NEON)
  return Isa::kNeon;
#else
  return Isa::kScalar;
#endif
}

}  // namespace detail

/// True when every kernel must take its scalar reference path. Reads the
/// POPAN_FORCE_SCALAR environment knob once per process; tests and
/// benches can override it at runtime with SetForceScalar().
inline bool ForceScalar() {
  return detail::ForceScalarFlag().load(std::memory_order_relaxed) != 0;
}

/// Runtime override of the force-scalar knob, so one process can measure
/// or parity-check both paths (used by the parity storm and the benches).
inline void SetForceScalar(bool force) {
  detail::ForceScalarFlag().store(force ? 1 : 0, std::memory_order_relaxed);
}

/// The instruction set kernels will dispatch to right now.
inline Isa ActiveIsa() {
  return ForceScalar() ? Isa::kScalar : detail::NativeIsa();
}

/// Short name for logs and bench JSON ("avx2", "sse2", "neon", "scalar").
inline const char* IsaName() {
  switch (ActiveIsa()) {
    case Isa::kAvx2:
      return "avx2";
    case Isa::kSse2:
      return "sse2";
    case Isa::kNeon:
      return "neon";
    case Isa::kScalar:
      return "scalar";
  }
  return "scalar";
}

namespace detail {

// ---- scalar reference bodies (the semantics of record) -------------------

inline uint64_t MaskInHalfOpenScalar(const double* v, size_t n, double lo,
                                     double hi) {
  uint64_t mask = 0;
  for (size_t i = 0; i < n; ++i) {
    // Spelled exactly like Box::Contains: outside iff v < lo || v >= hi.
    if (!(v[i] < lo || v[i] >= hi)) mask |= uint64_t{1} << i;
  }
  return mask;
}

inline uint64_t MaskEqualScalar(const double* v, size_t n, double value) {
  uint64_t mask = 0;
  for (size_t i = 0; i < n; ++i) {
    if (v[i] == value) mask |= uint64_t{1} << i;
  }
  return mask;
}

inline uint32_t MaskCellsInRectScalar(const uint32_t* xs, const uint32_t* ys,
                                      size_t n, uint32_t x0, uint32_t y0,
                                      uint32_t x1, uint32_t y1) {
  uint32_t mask = 0;
  for (size_t i = 0; i < n; ++i) {
    if (xs[i] >= x0 && xs[i] < x1 && ys[i] >= y0 && ys[i] < y1) {
      mask |= uint32_t{1} << i;
    }
  }
  return mask;
}

inline void QuantizeClampedScalar(const double* v, size_t n, double scale,
                                  uint32_t max_q, uint32_t* out) {
  for (size_t i = 0; i < n; ++i) {
    double scaled = v[i] * scale;
    uint32_t q = 0;
    if (scaled > 0.0) {
      // Clamp in double BEFORE truncating: max_q <= 2^31 - 1 is exactly
      // representable, so this matches a post-truncation clamp bit for
      // bit while staying defined for overflowing inputs (inf, 1e308) —
      // the same order the vector paths use.
      double capped = scaled < static_cast<double>(max_q)
                          ? scaled
                          : static_cast<double>(max_q);
      q = static_cast<uint32_t>(capped);
    }
    out[i] = q;
  }
}

inline uint32_t BisectStepScalar(const double* v, double* lo, double* hi,
                                 size_t n) {
  uint32_t mask = 0;
  for (size_t i = 0; i < n; ++i) {
    // Same shape as Box::Center(): mul-of-add, never contracted to FMA.
    double mid = 0.5 * (lo[i] + hi[i]);
    if (v[i] >= mid) {
      mask |= uint32_t{1} << i;
      lo[i] = mid;
    } else {
      hi[i] = mid;
    }
  }
  return mask;
}

// Spreads the low 32 bits of `v` so bit k lands at bit 2k.
inline uint64_t SpreadBits(uint32_t v) {
  uint64_t x = v;
  x = (x | (x << 16)) & 0x0000ffff0000ffffull;
  x = (x | (x << 8)) & 0x00ff00ff00ff00ffull;
  x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0full;
  x = (x | (x << 2)) & 0x3333333333333333ull;
  x = (x | (x << 1)) & 0x5555555555555555ull;
  return x;
}

// Inverse of SpreadBits: keeps even bits, compacting bit 2k to bit k.
inline uint32_t CompactBits(uint64_t x) {
  x &= 0x5555555555555555ull;
  x = (x | (x >> 1)) & 0x3333333333333333ull;
  x = (x | (x >> 2)) & 0x0f0f0f0f0f0f0f0full;
  x = (x | (x >> 4)) & 0x00ff00ff00ff00ffull;
  x = (x | (x >> 8)) & 0x0000ffff0000ffffull;
  x = (x | (x >> 16)) & 0x00000000ffffffffull;
  return static_cast<uint32_t>(x);
}

inline void InterleaveBits8Scalar(const uint32_t* xs, const uint32_t* ys,
                                  uint64_t* out) {
  for (size_t i = 0; i < 8; ++i) {
    out[i] = SpreadBits(xs[i]) | (SpreadBits(ys[i]) << 1);
  }
}

inline void DeinterleaveBits8Scalar(const uint64_t* codes, uint32_t* xs,
                                    uint32_t* ys) {
  for (size_t i = 0; i < 8; ++i) {
    xs[i] = CompactBits(codes[i]);
    ys[i] = CompactBits(codes[i] >> 1);
  }
}

// ---- SSE2 bodies (x86-64 baseline) ---------------------------------------

#if defined(POPAN_SIMD_X86)

inline uint64_t MaskInHalfOpenSse2(const double* v, size_t n, double lo,
                                   double hi) {
  const __m128d vlo = _mm_set1_pd(lo);
  const __m128d vhi = _mm_set1_pd(hi);
  uint64_t mask = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    __m128d x = _mm_loadu_pd(v + i);
    // outside = x < lo || x >= hi; the complement matches the scalar body
    // for every input including NaN (both compares are false on NaN).
    __m128d out = _mm_or_pd(_mm_cmplt_pd(x, vlo), _mm_cmpge_pd(x, vhi));
    unsigned inside = static_cast<unsigned>(_mm_movemask_pd(out)) ^ 0x3u;
    mask |= uint64_t{inside} << i;
  }
  if (i < n) mask |= MaskInHalfOpenScalar(v + i, n - i, lo, hi) << i;
  return mask;
}

inline uint64_t MaskEqualSse2(const double* v, size_t n, double value) {
  const __m128d vv = _mm_set1_pd(value);
  uint64_t mask = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    __m128d x = _mm_loadu_pd(v + i);
    unsigned eq = static_cast<unsigned>(
        _mm_movemask_pd(_mm_cmpeq_pd(x, vv)));
    mask |= uint64_t{eq} << i;
  }
  if (i < n) mask |= MaskEqualScalar(v + i, n - i, value) << i;
  return mask;
}

inline uint32_t MaskCellsInRectSse2(const uint32_t* xs, const uint32_t* ys,
                                    size_t n, uint32_t x0, uint32_t y0,
                                    uint32_t x1, uint32_t y1) {
  // Cell coordinates are < 2^31 (the MX side is at most 2^16), so signed
  // 32-bit compares are exact.
  const __m128i vx0 = _mm_set1_epi32(static_cast<int32_t>(x0));
  const __m128i vy0 = _mm_set1_epi32(static_cast<int32_t>(y0));
  const __m128i vx1 = _mm_set1_epi32(static_cast<int32_t>(x1));
  const __m128i vy1 = _mm_set1_epi32(static_cast<int32_t>(y1));
  uint32_t mask = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(xs + i));
    __m128i y =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ys + i));
    // ok = !(x < x0) && (x < x1), per axis.
    __m128i okx = _mm_andnot_si128(_mm_cmplt_epi32(x, vx0),
                                   _mm_cmplt_epi32(x, vx1));
    __m128i oky = _mm_andnot_si128(_mm_cmplt_epi32(y, vy0),
                                   _mm_cmplt_epi32(y, vy1));
    __m128i ok = _mm_and_si128(okx, oky);
    unsigned m = static_cast<unsigned>(
        _mm_movemask_ps(_mm_castsi128_ps(ok)));
    mask |= m << i;
  }
  if (i < n) mask |= MaskCellsInRectScalar(xs + i, ys + i, n - i, x0, y0, x1,
                                           y1)
                     << i;
  return mask;
}

inline void QuantizeClampedSse2(const double* v, size_t n, double scale,
                                uint32_t max_q, uint32_t* out) {
  // Clamping the double to [0, max_q] before truncation is exact:
  // max_q <= 2^31 - 1 is exactly representable, truncation is monotone,
  // and the scalar body's post-truncation clamp lands on the same value.
  const __m128d vscale = _mm_set1_pd(scale);
  const __m128d vzero = _mm_setzero_pd();
  const __m128d vmax = _mm_set1_pd(static_cast<double>(max_q));
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    __m128d scaled = _mm_mul_pd(_mm_loadu_pd(v + i), vscale);
    scaled = _mm_min_pd(_mm_max_pd(scaled, vzero), vmax);
    __m128i q = _mm_cvttpd_epi32(scaled);  // lanes 0,1; upper lanes zero
    out[i] = static_cast<uint32_t>(_mm_cvtsi128_si32(q));
    out[i + 1] =
        static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(q, 4)));
  }
  if (i < n) QuantizeClampedScalar(v + i, n - i, scale, max_q, out + i);
}

inline uint32_t BisectStepSse2(const double* v, double* lo, double* hi,
                               size_t n) {
  const __m128d vhalf = _mm_set1_pd(0.5);
  uint32_t mask = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    __m128d l = _mm_loadu_pd(lo + i);
    __m128d h = _mm_loadu_pd(hi + i);
    __m128d mid = _mm_mul_pd(vhalf, _mm_add_pd(l, h));
    __m128d ge = _mm_cmpge_pd(_mm_loadu_pd(v + i), mid);
    // lo = ge ? mid : lo;  hi = ge ? hi : mid
    _mm_storeu_pd(lo + i,
                  _mm_or_pd(_mm_and_pd(ge, mid), _mm_andnot_pd(ge, l)));
    _mm_storeu_pd(hi + i,
                  _mm_or_pd(_mm_and_pd(ge, h), _mm_andnot_pd(ge, mid)));
    mask |= static_cast<unsigned>(_mm_movemask_pd(ge)) << i;
  }
  if (i < n) mask |= BisectStepScalar(v + i, lo + i, hi + i, n - i) << i;
  return mask;
}

// ---- AVX2 bodies (runtime-selected via cpuid) ----------------------------

#if defined(POPAN_SIMD_HAS_AVX2_TARGET)

POPAN_TARGET_AVX2 inline uint64_t MaskInHalfOpenAvx2(const double* v,
                                                     size_t n, double lo,
                                                     double hi) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  uint64_t mask = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d x = _mm256_loadu_pd(v + i);
    __m256d out = _mm256_or_pd(_mm256_cmp_pd(x, vlo, _CMP_LT_OQ),
                               _mm256_cmp_pd(x, vhi, _CMP_GE_OQ));
    unsigned inside =
        static_cast<unsigned>(_mm256_movemask_pd(out)) ^ 0xfu;
    mask |= uint64_t{inside} << i;
  }
  if (i < n) mask |= MaskInHalfOpenSse2(v + i, n - i, lo, hi) << i;
  return mask;
}

POPAN_TARGET_AVX2 inline uint64_t MaskEqualAvx2(const double* v, size_t n,
                                                double value) {
  const __m256d vv = _mm256_set1_pd(value);
  uint64_t mask = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d x = _mm256_loadu_pd(v + i);
    unsigned eq = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(x, vv, _CMP_EQ_OQ)));
    mask |= uint64_t{eq} << i;
  }
  if (i < n) mask |= MaskEqualSse2(v + i, n - i, value) << i;
  return mask;
}

POPAN_TARGET_AVX2 inline void QuantizeClampedAvx2(const double* v, size_t n,
                                                  double scale,
                                                  uint32_t max_q,
                                                  uint32_t* out) {
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vmax = _mm256_set1_pd(static_cast<double>(max_q));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d scaled = _mm256_mul_pd(_mm256_loadu_pd(v + i), vscale);
    scaled = _mm256_min_pd(_mm256_max_pd(scaled, vzero), vmax);
    __m128i q = _mm256_cvttpd_epi32(scaled);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), q);
  }
  if (i < n) QuantizeClampedSse2(v + i, n - i, scale, max_q, out + i);
}

POPAN_TARGET_AVX2 inline uint32_t BisectStepAvx2(const double* v, double* lo,
                                                 double* hi, size_t n) {
  const __m256d vhalf = _mm256_set1_pd(0.5);
  uint32_t mask = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d l = _mm256_loadu_pd(lo + i);
    __m256d h = _mm256_loadu_pd(hi + i);
    __m256d mid = _mm256_mul_pd(vhalf, _mm256_add_pd(l, h));
    __m256d ge = _mm256_cmp_pd(_mm256_loadu_pd(v + i), mid, _CMP_GE_OQ);
    _mm256_storeu_pd(lo + i, _mm256_blendv_pd(l, mid, ge));
    _mm256_storeu_pd(hi + i, _mm256_blendv_pd(mid, h, ge));
    mask |= static_cast<unsigned>(_mm256_movemask_pd(ge)) << i;
  }
  if (i < n) mask |= BisectStepSse2(v + i, lo + i, hi + i, n - i) << i;
  return mask;
}

// SpreadBits on 4 u64 lanes at once (helper for InterleaveBits8Avx2).
POPAN_TARGET_AVX2 inline __m256i SpreadBits4Avx2(__m256i x) {
  x = _mm256_and_si256(_mm256_or_si256(x, _mm256_slli_epi64(x, 16)),
                       _mm256_set1_epi64x(0x0000ffff0000ffffll));
  x = _mm256_and_si256(_mm256_or_si256(x, _mm256_slli_epi64(x, 8)),
                       _mm256_set1_epi64x(0x00ff00ff00ff00ffll));
  x = _mm256_and_si256(_mm256_or_si256(x, _mm256_slli_epi64(x, 4)),
                       _mm256_set1_epi64x(0x0f0f0f0f0f0f0f0fll));
  x = _mm256_and_si256(_mm256_or_si256(x, _mm256_slli_epi64(x, 2)),
                       _mm256_set1_epi64x(0x3333333333333333ll));
  x = _mm256_and_si256(_mm256_or_si256(x, _mm256_slli_epi64(x, 1)),
                       _mm256_set1_epi64x(0x5555555555555555ll));
  return x;
}

POPAN_TARGET_AVX2 inline void InterleaveBits8Avx2(const uint32_t* xs,
                                                  const uint32_t* ys,
                                                  uint64_t* out) {
  for (size_t half = 0; half < 2; ++half) {
    __m256i x = _mm256_cvtepu32_epi64(_mm_loadu_si128(
        reinterpret_cast<const __m128i*>(xs + 4 * half)));
    __m256i y = _mm256_cvtepu32_epi64(_mm_loadu_si128(
        reinterpret_cast<const __m128i*>(ys + 4 * half)));
    __m256i code = _mm256_or_si256(
        SpreadBits4Avx2(x), _mm256_slli_epi64(SpreadBits4Avx2(y), 1));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 4 * half), code);
  }
}

#endif  // POPAN_SIMD_HAS_AVX2_TARGET
#endif  // POPAN_SIMD_X86

// ---- NEON bodies (aarch64, compile-time selected) ------------------------

#if defined(POPAN_SIMD_NEON)

inline uint64_t MaskInHalfOpenNeon(const double* v, size_t n, double lo,
                                   double hi) {
  const float64x2_t vlo = vdupq_n_f64(lo);
  const float64x2_t vhi = vdupq_n_f64(hi);
  uint64_t mask = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    float64x2_t x = vld1q_f64(v + i);
    uint64x2_t out = vorrq_u64(vcltq_f64(x, vlo), vcgeq_f64(x, vhi));
    if (vgetq_lane_u64(out, 0) == 0) mask |= uint64_t{1} << i;
    if (vgetq_lane_u64(out, 1) == 0) mask |= uint64_t{1} << (i + 1);
  }
  if (i < n) mask |= MaskInHalfOpenScalar(v + i, n - i, lo, hi) << i;
  return mask;
}

inline uint64_t MaskEqualNeon(const double* v, size_t n, double value) {
  const float64x2_t vv = vdupq_n_f64(value);
  uint64_t mask = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    uint64x2_t eq = vceqq_f64(vld1q_f64(v + i), vv);
    if (vgetq_lane_u64(eq, 0) != 0) mask |= uint64_t{1} << i;
    if (vgetq_lane_u64(eq, 1) != 0) mask |= uint64_t{1} << (i + 1);
  }
  if (i < n) mask |= MaskEqualScalar(v + i, n - i, value) << i;
  return mask;
}

#endif  // POPAN_SIMD_NEON

}  // namespace detail

// ---- public kernels ------------------------------------------------------

/// Bit i (i < n <= 64) is set iff lo <= v[i] < hi, with Box::Contains'
/// exact comparison semantics (NaN lanes report inside, like the scalar
/// spelling `!(v < lo || v >= hi)`).
inline uint64_t MaskInHalfOpen(const double* v, size_t n, double lo,
                               double hi) {
  switch (ActiveIsa()) {
#if defined(POPAN_SIMD_HAS_AVX2_TARGET)
    case Isa::kAvx2:
      return detail::MaskInHalfOpenAvx2(v, n, lo, hi);
#endif
#if defined(POPAN_SIMD_X86)
    case Isa::kSse2:
      return detail::MaskInHalfOpenSse2(v, n, lo, hi);
#endif
#if defined(POPAN_SIMD_NEON)
    case Isa::kNeon:
      return detail::MaskInHalfOpenNeon(v, n, lo, hi);
#endif
    default:
      return detail::MaskInHalfOpenScalar(v, n, lo, hi);
  }
}

/// Bit i (i < n <= 64) is set iff v[i] == value (IEEE equality).
inline uint64_t MaskEqual(const double* v, size_t n, double value) {
  switch (ActiveIsa()) {
#if defined(POPAN_SIMD_HAS_AVX2_TARGET)
    case Isa::kAvx2:
      return detail::MaskEqualAvx2(v, n, value);
#endif
#if defined(POPAN_SIMD_X86)
    case Isa::kSse2:
      return detail::MaskEqualSse2(v, n, value);
#endif
#if defined(POPAN_SIMD_NEON)
    case Isa::kNeon:
      return detail::MaskEqualNeon(v, n, value);
#endif
    default:
      return detail::MaskEqualScalar(v, n, value);
  }
}

/// Integer cell filter: bit i (i < n <= 32) is set iff
/// x0 <= xs[i] < x1 && y0 <= ys[i] < y1. Coordinates must be < 2^31.
inline uint32_t MaskCellsInRect(const uint32_t* xs, const uint32_t* ys,
                                size_t n, uint32_t x0, uint32_t y0,
                                uint32_t x1, uint32_t y1) {
  switch (ActiveIsa()) {
#if defined(POPAN_SIMD_X86)
    case Isa::kAvx2:
    case Isa::kSse2:
      return detail::MaskCellsInRectSse2(xs, ys, n, x0, y0, x1, y1);
#endif
    default:
      return detail::MaskCellsInRectScalar(xs, ys, n, x0, y0, x1, y1);
  }
}

/// out[i] = clamp(trunc(v[i] * scale), 0, max_q) with the scalar-codec
/// semantics: non-positive products quantize to 0, products beyond max_q
/// saturate. `scale` must be an exact power of two and max_q <= 2^31 - 1;
/// inputs must be finite.
inline void QuantizeClamped(const double* v, size_t n, double scale,
                            uint32_t max_q, uint32_t* out) {
  switch (ActiveIsa()) {
#if defined(POPAN_SIMD_HAS_AVX2_TARGET)
    case Isa::kAvx2:
      detail::QuantizeClampedAvx2(v, n, scale, max_q, out);
      return;
#endif
#if defined(POPAN_SIMD_X86)
    case Isa::kSse2:
      detail::QuantizeClampedSse2(v, n, scale, max_q, out);
      return;
#endif
    default:
      detail::QuantizeClampedScalar(v, n, scale, max_q, out);
      return;
  }
}

/// One level of batched interval bisection (n <= 32 lanes): for each lane,
/// mid = 0.5 * (lo + hi) — Box::Center()'s exact shape — and the returned
/// bit i is v[i] >= mid (Box::QuadrantOf's comparison); lo/hi shrink to
/// the chosen half in place, exactly like Box::Quadrant.
inline uint32_t BisectStep(const double* v, double* lo, double* hi,
                           size_t n) {
  switch (ActiveIsa()) {
#if defined(POPAN_SIMD_HAS_AVX2_TARGET)
    case Isa::kAvx2:
      return detail::BisectStepAvx2(v, lo, hi, n);
#endif
#if defined(POPAN_SIMD_X86)
    case Isa::kSse2:
      return detail::BisectStepSse2(v, lo, hi, n);
#endif
    default:
      return detail::BisectStepScalar(v, lo, hi, n);
  }
}

/// Morton bit interleave of one (x, y) pair: bit 2k of the result is bit k
/// of x, bit 2k+1 is bit k of y. Integer-exact on every path.
inline uint64_t InterleaveBits(uint32_t x, uint32_t y) {
  return detail::SpreadBits(x) | (detail::SpreadBits(y) << 1);
}

/// Inverse of InterleaveBits.
inline void DeinterleaveBits(uint64_t code, uint32_t* x, uint32_t* y) {
  *x = detail::CompactBits(code);
  *y = detail::CompactBits(code >> 1);
}

/// Interleaves 8 (x, y) pairs per call — the batched Morton kernel.
inline void InterleaveBits8(const uint32_t* xs, const uint32_t* ys,
                            uint64_t* out) {
  switch (ActiveIsa()) {
#if defined(POPAN_SIMD_HAS_AVX2_TARGET)
    case Isa::kAvx2:
      detail::InterleaveBits8Avx2(xs, ys, out);
      return;
#endif
    default:
      detail::InterleaveBits8Scalar(xs, ys, out);
      return;
  }
}

/// Deinterleaves 8 codes per call (SWAR on every path; integer-exact).
inline void DeinterleaveBits8(const uint64_t* codes, uint32_t* xs,
                              uint32_t* ys) {
  detail::DeinterleaveBits8Scalar(codes, xs, ys);
}

}  // namespace popan::simd

#endif  // POPAN_UTIL_SIMD_H_
