#ifndef POPAN_SPATIAL_SOA_BUFFER_H_
#define POPAN_SPATIAL_SOA_BUFFER_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "geometry/box.h"
#include "util/simd.h"

namespace popan::spatial {

// Structure-of-arrays lane filters. A PR-tree leaf (PrNode, in
// pr_tree_reader.h) keeps each coordinate axis in its own contiguous lane
// (x[], y[], ...), and so does the linear quadtree's flat leaf array; the
// range and partial-match hot loops filter those lanes lane by lane, with
// the SIMD kernels in util/simd.h once a run holds more than
// kScalarFilterMax points, instead of point-at-a-time Box::Contains
// calls.

/// Runs of at most this many elements (a leaf in the paper's regime,
/// m <= 8) are filtered by the inline scalar loop: there one kernel
/// dispatch per axis costs more than the comparisons it replaces (on a
/// 4-vCPU AVX2 x86-64 host, range queries over a 2^20-point capacity-4
/// snapshot tree ran ~20% slower through the kernels). The scalar loop
/// is the kernels' semantics of record, so results and visit order are
/// the same on either side of the cut.
inline constexpr size_t kScalarFilterMax = 8;

/// Raw-lane workhorse behind ForEachInBox, shared with flat SoA storage
/// (the linear quadtree's leaf lanes): lanes[a] points at `n` elements of
/// axis a. Calls fn(i) for every element inside the half-open `box`, in
/// ascending index order — the same visit order as the scalar loop
/// `for i: if (box.Contains(p_i)) fn(i)`, bit for bit, on every dispatch
/// path (the kernels' scalar bodies share Box::Contains' comparison
/// semantics).
template <size_t D, typename Fn>
void ForEachInBoxLanes(const std::array<const double*, D>& lanes, size_t n,
                       const geo::Box<D>& box, Fn&& fn) {
  if (n <= kScalarFilterMax) {
    for (size_t i = 0; i < n; ++i) {
      bool inside = true;
      for (size_t a = 0; a < D && inside; ++a) {
        // Box::Contains' spelling: outside iff v < lo || v >= hi.
        const double v = lanes[a][i];
        inside = !(v < box.lo()[a] || v >= box.hi()[a]);
      }
      if (inside) fn(i);
    }
    return;
  }
  for (size_t base = 0; base < n; base += 64) {
    const size_t chunk = n - base < 64 ? n - base : 64;
    uint64_t mask = simd::MaskInHalfOpen(lanes[0] + base, chunk, box.lo()[0],
                                         box.hi()[0]);
    for (size_t a = 1; a < D && mask != 0; ++a) {
      mask &= simd::MaskInHalfOpen(lanes[a] + base, chunk, box.lo()[a],
                                   box.hi()[a]);
    }
    while (mask != 0) {
      const size_t i = static_cast<size_t>(std::countr_zero(mask));
      mask &= mask - 1;
      fn(base + i);
    }
  }
}

/// Raw-lane form of ForEachEqualOnAxis: fn(i) for every element of the
/// lane equal to `value`, ascending.
template <typename Fn>
void ForEachEqualLane(const double* lane, size_t n, double value, Fn&& fn) {
  if (n <= kScalarFilterMax) {
    for (size_t i = 0; i < n; ++i) {
      if (lane[i] == value) fn(i);
    }
    return;
  }
  for (size_t base = 0; base < n; base += 64) {
    const size_t chunk = n - base < 64 ? n - base : 64;
    uint64_t mask = simd::MaskEqual(lane + base, chunk, value);
    while (mask != 0) {
      const size_t i = static_cast<size_t>(std::countr_zero(mask));
      mask &= mask - 1;
      fn(base + i);
    }
  }
}

/// Calls fn(i) for every point of `leaf` inside the half-open `box`, in
/// ascending index order (see ForEachInBoxLanes for the order/parity
/// contract). `Leaf` is any SoA leaf: size() and lane(axis).
template <size_t D, typename Leaf, typename Fn>
void ForEachInBox(const Leaf& leaf, const geo::Box<D>& box, Fn&& fn) {
  std::array<const double*, D> lanes;
  for (size_t a = 0; a < D; ++a) lanes[a] = leaf.lane(a);
  ForEachInBoxLanes<D>(lanes, leaf.size(), box, static_cast<Fn&&>(fn));
}

/// Calls fn(i) for every point of `leaf` whose `axis` coordinate equals
/// `value`, in ascending index order (the partial-match leaf filter).
template <typename Leaf, typename Fn>
void ForEachEqualOnAxis(const Leaf& leaf, size_t axis, double value,
                        Fn&& fn) {
  ForEachEqualLane(leaf.lane(axis), leaf.size(), value,
                   static_cast<Fn&&>(fn));
}

}  // namespace popan::spatial

#endif  // POPAN_SPATIAL_SOA_BUFFER_H_
