#ifndef POPAN_SPATIAL_SOA_BUFFER_H_
#define POPAN_SPATIAL_SOA_BUFFER_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"
#include "util/check.h"
#include "util/simd.h"

namespace popan::spatial {

/// Structure-of-arrays leaf storage, shared by both PR trees: each
/// coordinate axis lives in its own contiguous lane (x[], y[], ...), so
/// the range/partial-match hot loops filter a leaf lane by lane — with
/// the SIMD kernels in util/simd.h once it holds more than
/// kScalarFilterMax points — instead of point-at-a-time Box::Contains
/// calls.
///
///   * Up to kInline elements per lane live inside the owning node. Larger
///     contents spill to ONE heap block holding all D lanes back to back
///     (lane a at [a * lane_capacity(), a * lane_capacity() + size())),
///     grown geometrically, so a spilled buffer costs one allocation and
///     the in-node footprint is a single vector.
///   * The storage mode is a function of size alone (inline iff
///     size() <= kInline). The block survives un-spills and clear(), so a
///     leaf oscillating around the threshold allocates at most once.
///   * A copy holds exactly what it needs: a block of size() elements per
///     lane when spilled, none otherwise. The snapshot tree copies a leaf
///     on every write into it, so copies must not inherit spare capacity.
///   * SwapRemoveAt swaps the last element into the hole (leaf order is
///     immaterial to the tree invariants).
template <size_t D, size_t kInline>
class SoaBuffer {
 public:
  using PointT = geo::Point<D>;

  SoaBuffer() = default;

  SoaBuffer(const SoaBuffer& other)
      : size_(other.size_), inline_(other.inline_) {
    if (other.spilled()) {
      spill_.resize(D * size_);
      for (size_t a = 0; a < D; ++a) {
        std::copy_n(other.lane(a), size_, MutableLane(a));
      }
    }
  }
  SoaBuffer& operator=(const SoaBuffer& other) {
    if (this != &other) *this = SoaBuffer(other);
    return *this;
  }
  SoaBuffer(SoaBuffer&&) noexcept = default;
  SoaBuffer& operator=(SoaBuffer&&) noexcept = default;

  static constexpr size_t inline_capacity() { return kInline; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// True when the lanes currently live in the heap block.
  bool spilled() const { return size_ > kInline; }

  /// Elements per lane the heap block holds (0 before the first spill).
  size_t lane_capacity() const { return spill_.size() / D; }

  /// The contiguous lane for `axis` (size() readable elements).
  const double* lane(size_t axis) const {
    POPAN_DCHECK(axis < D);
    return spilled() ? spill_.data() + axis * lane_capacity()
                     : inline_[axis].data();
  }

  double At(size_t axis, size_t i) const {
    POPAN_DCHECK(i < size_);
    return lane(axis)[i];
  }

  /// Reassembles element i as a point (the lanes are the storage of
  /// record; this is the AoS view for callers that need whole points).
  PointT Get(size_t i) const {
    POPAN_DCHECK(i < size_);
    PointT p;
    for (size_t a = 0; a < D; ++a) p[a] = lane(a)[i];
    return p;
  }

  /// True iff element i equals `p` on every axis (IEEE ==, the same test
  /// Point::operator== performs).
  bool Matches(size_t i, const PointT& p) const {
    POPAN_DCHECK(i < size_);
    for (size_t a = 0; a < D; ++a) {
      if (lane(a)[i] != p[a]) return false;
    }
    return true;
  }

  void push_back(const PointT& p) {
    if (size_ < kInline) {
      for (size_t a = 0; a < D; ++a) inline_[a][size_] = p[a];
      ++size_;
      return;
    }
    if (size_ == kInline) {
      // Crossing the inline threshold: move every lane into the block.
      if (lane_capacity() <= kInline) spill_.assign(D * (kInline + 1), 0.0);
      for (size_t a = 0; a < D; ++a) {
        std::copy(inline_[a].begin(), inline_[a].end(), MutableLane(a));
      }
    } else if (size_ == lane_capacity()) {
      Regrow(2 * size_);
    }
    for (size_t a = 0; a < D; ++a) MutableLane(a)[size_] = p[a];
    ++size_;
  }

  /// Removes element i by swapping the last element into its place.
  void SwapRemoveAt(size_t i) {
    POPAN_DCHECK(i < size_);
    const bool was_spilled = spilled();
    for (size_t a = 0; a < D; ++a) {
      double* l = was_spilled ? MutableLane(a) : inline_[a].data();
      l[i] = l[size_ - 1];
    }
    --size_;
    if (was_spilled && size_ == kInline) {
      // Back under the threshold: return to inline storage; the block
      // stays allocated for future crossings.
      for (size_t a = 0; a < D; ++a) {
        std::copy_n(MutableLane(a), kInline, inline_[a].begin());
      }
    }
  }

  void clear() { size_ = 0; }

 private:
  double* MutableLane(size_t axis) {
    return spill_.data() + axis * lane_capacity();
  }

  /// Moves the spilled lanes into a fresh block of `lanes_to` elements per
  /// lane (lane offsets change with the capacity, so this is a per-lane
  /// copy, not a vector reallocation).
  void Regrow(size_t lanes_to) {
    std::vector<double> grown(D * lanes_to);
    for (size_t a = 0; a < D; ++a) {
      std::copy_n(MutableLane(a), size_, grown.data() + a * lanes_to);
    }
    spill_.swap(grown);
  }

  size_t size_ = 0;
  std::array<std::array<double, kInline>, D> inline_{};
  std::vector<double> spill_;
};

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

/// Calls fn(i) for every element of `b` inside the half-open `box`, in
/// ascending index order (see ForEachInBoxLanes for the order/parity
/// contract).
template <size_t D, size_t kInline, typename Fn>
void ForEachInBox(const SoaBuffer<D, kInline>& b, const geo::Box<D>& box,
                  Fn&& fn) {
  std::array<const double*, D> lanes;
  for (size_t a = 0; a < D; ++a) lanes[a] = b.lane(a);
  ForEachInBoxLanes<D>(lanes, b.size(), box, static_cast<Fn&&>(fn));
}

/// Calls fn(i) for every element whose `axis` coordinate equals `value`,
/// in ascending index order (the partial-match leaf filter).
template <size_t D, size_t kInline, typename Fn>
void ForEachEqualOnAxis(const SoaBuffer<D, kInline>& b, size_t axis,
                        double value, Fn&& fn) {
  ForEachEqualLane(b.lane(axis), b.size(), value, static_cast<Fn&&>(fn));
}

}  // namespace popan::spatial

#endif  // POPAN_SPATIAL_SOA_BUFFER_H_
