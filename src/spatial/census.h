#ifndef POPAN_SPATIAL_CENSUS_H_
#define POPAN_SPATIAL_CENSUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "numerics/vector.h"
#include "util/check.h"

namespace popan::spatial {

/// A population census of a bucketing structure: how many leaves (buckets)
/// hold 0, 1, 2, … items, overall and per depth. This is the empirical
/// counterpart of the paper's expected distribution vector — the bridge
/// between the data structures in this directory and the analytic model in
/// src/core.
class Census {
 public:
  Census() = default;

  /// Records one leaf of the given occupancy at the given depth.
  void AddLeaf(size_t occupancy, size_t depth);

  /// Records `count` leaves of the given occupancy at the given depth in
  /// one step — the bulk form incremental (live) censuses are built from.
  void AddLeaves(size_t occupancy, size_t depth, uint64_t count);

  /// Merges another census into this one (used to pool trials).
  void Merge(const Census& other);

  /// Number of leaves of occupancy `i` (0 if never seen).
  uint64_t CountAt(size_t occupancy) const;

  /// Number of leaves of occupancy `i` at depth `depth`.
  uint64_t CountAt(size_t occupancy, size_t depth) const;

  /// Total leaves.
  uint64_t LeafCount() const { return leaf_count_; }

  /// Total items (sum of occupancy over leaves).
  uint64_t ItemCount() const { return item_count_; }

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

  /// Multi-line human-readable dump.
  std::string ToString() const;

  /// Exact equality of the recorded populations: same leaf/item totals and
  /// the same count for every (occupancy, depth) cell. Trailing all-zero
  /// rows/columns are ignored, so censuses built leaf-by-leaf and censuses
  /// built from a live histogram compare equal iff they describe the same
  /// tree. This is the check behind the LiveCensus == TakeCensus contract.
  friend bool operator==(const Census& a, const Census& b);
  friend bool operator!=(const Census& a, const Census& b) {
    return !(a == b);
  }

 private:
  // count_by_occupancy_[i] = number of leaves holding exactly i items.
  std::vector<uint64_t> count_by_occupancy_;
  // by_depth_[d][i] = number of leaves at depth d holding i items.
  std::vector<std::vector<uint64_t>> by_depth_;
  uint64_t leaf_count_ = 0;
  uint64_t item_count_ = 0;
};

/// The live occupancy-by-depth histogram a structure keeps exact through
/// every mutation: count(depth, occ) = leaves (buckets) at `depth` holding
/// exactly `occ` items. Each elementary change (an insert into a leaf, a
/// split, a collapse/merge) moves O(1) counts, so ToCensus() is
/// O(depths x occupancies) independent of the number of items. Rows and
/// columns grow on demand and may keep trailing zeros after collapses;
/// Census equality ignores them, so ToCensus() == TakeCensus(structure)
/// is the invariant every owner checks.
class LiveHistogram {
 public:
  void Add(size_t depth, size_t occupancy) {
    if (depth >= rows_.size()) rows_.resize(depth + 1);
    std::vector<uint64_t>& row = rows_[depth];
    if (occupancy >= row.size()) row.resize(occupancy + 1, 0);
    ++row[occupancy];
  }

  void Remove(size_t depth, size_t occupancy) {
    POPAN_DCHECK(depth < rows_.size() && occupancy < rows_[depth].size() &&
                 rows_[depth][occupancy] > 0)
        << "live census underflow at depth" << depth;
    --rows_[depth][occupancy];
  }

  Census ToCensus() const;

 private:
  std::vector<std::vector<uint64_t>> rows_;
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
