#ifndef POPAN_SPATIAL_EXTENDIBLE_HASH_H_
#define POPAN_SPATIAL_EXTENDIBLE_HASH_H_

#include <cstdint>
#include <vector>

#include "spatial/census.h"
#include "util/status.h"

namespace popan::spatial {

/// Options for the extendible hash table.
struct ExtendibleHashOptions {
  /// Bucket capacity: a bucket splits when an insertion would exceed it.
  size_t bucket_capacity = 4;

  /// Upper bound on the global depth (directory size 2^depth). 28 bounds
  /// the directory at 256M entries; experiments stay far below.
  size_t max_global_depth = 28;

  /// When true, the raw key is used as the pseudokey directly (no mixing).
  /// Tests use this to place keys deterministically; real workloads keep
  /// the default mixing so that structured keys spread uniformly.
  bool identity_hash = false;
};

/// Extendible hashing after Fagin, Nievergelt, Pippenger & Strong (TODS
/// 1979) — the structure whose occupancy analysis the paper identifies as
/// applying, "with slight modifications", to PR quadtrees. A directory of
/// 2^global_depth pointers indexes buckets by the top global_depth bits of
/// the pseudokey; a full bucket of local depth d splits into two of depth
/// d+1, doubling the directory when d equals the global depth.
///
/// In the population view, buckets are the analogue of quadtree leaves and
/// a bucket split is a fanout-2 transform — so the same steady-state
/// machinery (core/PopulationModel with fanout 2) predicts its occupancy
/// distribution, and this class supplies the experimental census.
class ExtendibleHash {
 public:
  explicit ExtendibleHash(const ExtendibleHashOptions& options = {});

  /// Number of keys stored.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Number of buckets (the population size).
  size_t BucketCount() const { return buckets_.size(); }

  /// Current global depth; the directory holds 2^GlobalDepth() entries.
  size_t GlobalDepth() const { return global_depth_; }

  /// Directory entries (2^GlobalDepth()).
  size_t DirectorySize() const { return directory_.size(); }

  /// Inserts a key. Returns AlreadyExists for duplicates and
  /// ResourceExhausted if splitting would exceed max_global_depth (only
  /// possible with pathological key sets, e.g. many identical pseudokeys).
  [[nodiscard]] Status Insert(uint64_t key);

  /// True iff the key is stored.
  bool Contains(uint64_t key) const;

  /// Removes a key; NotFound if absent. After removal, buddy buckets whose
  /// combined contents fit one bucket are merged, and the directory halves
  /// when every bucket's local depth allows it.
  [[nodiscard]] Status Erase(uint64_t key);

  /// Calls fn(local_depth, occupancy) for every bucket — the census hook.
  template <typename Fn>
  void VisitBuckets(Fn fn) const {
    for (const Bucket& b : buckets_) {
      fn(b.local_depth, b.keys.size());
    }
  }

  /// Calls fn(bucket_index, prefix_bits, local_depth, keys) for every
  /// bucket in bucket-index order, where prefix_bits is the local_depth-bit
  /// pseudokey prefix all of the bucket's keys share. One directory pass
  /// recovers all prefixes — O(directory + buckets). With identity_hash,
  /// the prefix locates the bucket's block of key space directly, which is
  /// how the query layer runs spatial scans over interleaved-coordinate
  /// keys.
  template <typename Fn>
  void VisitBucketsWithPrefix(Fn fn) const {
    // Walk the directory backwards so each bucket ends up with its FIRST
    // (lowest) slot; that index right-shifted by the unused depth bits is
    // the bucket's prefix.
    std::vector<size_t> first(buckets_.size(), 0);
    for (size_t j = directory_.size(); j-- > 0;) first[directory_[j]] = j;
    for (size_t bi = 0; bi < buckets_.size(); ++bi) {
      const Bucket& b = buckets_[bi];
      const uint64_t prefix =
          static_cast<uint64_t>(first[bi]) >> (global_depth_ - b.local_depth);
      fn(bi, prefix, b.local_depth, b.keys);
    }
  }

  /// The live occupancy-by-local-depth census — the same census
  /// TakeBucketCensus(table) walks the buckets for, maintained
  /// incrementally at every insert, erase, bucket split, and buddy merge,
  /// so per-step censuses are O(1) bookkeeping.
  const Census& LiveCensus() const { return census_; }

  /// Average keys per bucket.
  double AverageOccupancy() const {
    if (buckets_.empty()) return 0.0;
    return static_cast<double>(size_) / static_cast<double>(buckets_.size());
  }

  /// Verifies directory/bucket invariants (prefix consistency, pointer
  /// multiplicity 2^(global-local), key placement).
  [[nodiscard]] Status CheckInvariants() const;

 private:
  struct Bucket {
    size_t local_depth = 0;
    std::vector<uint64_t> keys;
  };

  /// The pseudokey whose top bits address the directory.
  uint64_t PseudoKey(uint64_t key) const;

  /// Directory slot for a pseudokey at the current global depth.
  size_t DirIndex(uint64_t pseudo) const;

  /// Splits the bucket at directory slot `dir_idx`; may double the
  /// directory. Returns false if max_global_depth blocks the split.
  bool SplitBucket(size_t dir_idx);

  void DoubleDirectory();
  void TryMerge(uint64_t pseudo);
  void TryShrinkDirectory();

  ExtendibleHashOptions options_;
  size_t global_depth_ = 0;
  std::vector<uint32_t> directory_;  // bucket index per slot
  std::vector<Bucket> buckets_;
  size_t size_ = 0;
  // Buckets by (local depth, occupancy), kept exact through every
  // mutation; CheckInvariants compares it with a bucket walk.
  Census census_;
};

}  // namespace popan::spatial

#endif  // POPAN_SPATIAL_EXTENDIBLE_HASH_H_
