#ifndef POPAN_SPATIAL_CENSUS_H_
#define POPAN_SPATIAL_CENSUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "numerics/vector.h"
#include "util/check.h"

namespace popan::spatial {

/// A population census of a bucketing structure: how many leaves (buckets)
/// hold 0, 1, 2, … items at each depth. This is the empirical counterpart
/// of the paper's expected distribution vector — the bridge between the
/// data structures in this directory and the analytic model in src/core.
///
/// The same type is the live census a structure keeps exact through every
/// mutation: each elementary change (an insert into a leaf, a split, a
/// collapse/merge) moves O(1) cells with AddLeaf/RemoveLeaf, and readers
/// use the structure's census in place. Rows and columns grow on demand
/// and may keep trailing zeros after removals; every statistic and
/// equality ignore them, so LiveCensus() == TakeCensus(structure) is the
/// invariant every owner checks. Totals are derived from the rows, which
/// hold about a hundred cells at m = 4.
class Census {
 public:
  Census() = default;

  /// Records one leaf of the given occupancy at the given depth.
  void AddLeaf(size_t occupancy, size_t depth) { ++Cell(occupancy, depth); }

  /// Forgets one leaf AddLeaf recorded: the cell must be nonzero.
  void RemoveLeaf(size_t occupancy, size_t depth) {
    POPAN_DCHECK(depth < by_depth_.size() &&
                 occupancy < by_depth_[depth].size() &&
                 by_depth_[depth][occupancy] > 0)
        << "census underflow at depth " << depth;
    --by_depth_[depth][occupancy];
  }

  /// Records `count` leaves of the given occupancy at the given depth in
  /// one step.
  void AddLeaves(size_t occupancy, size_t depth, uint64_t count) {
    if (count != 0) Cell(occupancy, depth) += count;
  }

  /// Merges another census into this one, cell by cell (pools trials and
  /// the shards of a sharded cut).
  void Merge(const Census& other);

  /// Number of leaves of occupancy `i` (0 if never seen).
  uint64_t CountAt(size_t occupancy) const;

  /// Number of leaves of occupancy `i` at depth `depth`.
  uint64_t CountAt(size_t occupancy, size_t depth) const;

  /// Total leaves.
  uint64_t LeafCount() const;

  /// Total items (sum of occupancy over leaves).
  uint64_t ItemCount() const;

  /// Largest occupancy observed (0 for an empty census).
  size_t MaxOccupancy() const;

  /// Largest depth observed (0 for an empty census).
  size_t MaxDepth() const;

  /// Depths at which at least one leaf was seen, ascending.
  std::vector<size_t> DepthsPresent() const;

  /// Number of leaves at depth `depth` (any occupancy).
  uint64_t LeavesAtDepth(size_t depth) const;

  /// Number of items at depth `depth`.
  uint64_t ItemsAtDepth(size_t depth) const;

  /// Average occupancy of the leaves at depth `depth`. Returns 0 when no
  /// leaves exist there.
  double AverageOccupancyAtDepth(size_t depth) const;

  /// The empirical state vector d = (p_0, …, p_k) with k >= `min_size`-1
  /// components: p_i is the proportion of leaves with occupancy i. Returns
  /// an all-zero vector of `min_size` components for an empty census.
  num::Vector Proportions(size_t min_size = 0) const;

  /// Mean items per leaf — the paper's "average node occupancy".
  double AverageOccupancy() const;

  /// AverageOccupancy() / capacity — storage utilization in [0, 1] when no
  /// leaf exceeds `capacity`.
  double StorageUtilization(size_t capacity) const;

  /// One-line summary: totals, average occupancy and leaves per occupancy.
  std::string ToString() const;

  /// Exact equality of the recorded populations: the same count for every
  /// (occupancy, depth) cell, so equal totals too. Trailing all-zero
  /// rows/columns are ignored, so a census built leaf by leaf and a live
  /// census whose cells fell back to zero compare equal iff they describe
  /// the same tree. This is the check behind the LiveCensus == TakeCensus
  /// contract.
  friend bool operator==(const Census& a, const Census& b);
  friend bool operator!=(const Census& a, const Census& b) {
    return !(a == b);
  }

 private:
  /// The (occupancy, depth) cell, growing the rows to reach it.
  uint64_t& Cell(size_t occupancy, size_t depth) {
    if (depth >= by_depth_.size()) by_depth_.resize(depth + 1);
    std::vector<uint64_t>& row = by_depth_[depth];
    if (occupancy >= row.size()) row.resize(occupancy + 1, 0);
    return row[occupancy];
  }

  /// Leaves per occupancy over all depths, without trailing zeros.
  std::vector<uint64_t> ByOccupancy() const;

  // by_depth_[d][i] = number of leaves at depth d holding i items. One
  // vector per row: a max-depth leaf can hold any number of points, so a
  // shared stride would widen every row to that leaf's occupancy.
  std::vector<std::vector<uint64_t>> by_depth_;
};

/// Takes the census of any structure exposing
///   VisitLeaves(fn(box, depth, occupancy))   — trees, or
///   VisitBuckets(fn(local_depth, occupancy)) — hash structures.
/// Provided as overload sets below for the concrete types; generic helper
/// for tree-shaped structures:
template <typename Tree>
Census TakeCensus(const Tree& tree) {
  Census census;
  tree.VisitLeaves([&census](const auto& /*box*/, size_t depth,
                             size_t occupancy) {
    census.AddLeaf(occupancy, depth);
  });
  return census;
}

/// Takes the census of a bucket structure exposing
///   VisitBuckets(fn(local_depth, occupancy))
/// (extendible hashing, EXCELL). The bucket's local depth plays the role
/// of the tree depth.
template <typename Table>
Census TakeBucketCensus(const Table& table) {
  Census census;
  table.VisitBuckets([&census](size_t local_depth, size_t occupancy) {
    census.AddLeaf(occupancy, local_depth);
  });
  return census;
}

}  // namespace popan::spatial

#endif  // POPAN_SPATIAL_CENSUS_H_
