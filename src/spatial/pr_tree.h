#ifndef POPAN_SPATIAL_PR_TREE_H_
#define POPAN_SPATIAL_PR_TREE_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <new>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"
#include "spatial/batch_stats.h"
#include "spatial/census.h"
#include "spatial/morton.h"
#include "spatial/node_arena.h"
#include "spatial/node_pool.h"
#include "spatial/pr_tree_reader.h"
#include "spatial/pr_tree_writer.h"
#include "util/check.h"
#include "util/status.h"
#include "util/statusor.h"

namespace popan::spatial {

/// Configuration of a generalized PR tree.
struct PrTreeOptions {
  /// Node capacity m: a leaf splits when it would hold more than this many
  /// points. m = 1 gives the simple PR quadtree of the paper's §III
  /// example; the paper's Tables 1–2 sweep m = 1…8.
  size_t capacity = 1;

  /// Depth at which splitting stops; a leaf at this depth absorbs points
  /// beyond `capacity`. The paper's implementation truncated at depth 9
  /// (the Table 3 anomaly at depth 9 is this artifact). Defaults high
  /// enough to be effectively unlimited for random real-valued data.
  size_t max_depth = 64;
};

/// The generalized PR (point-region) tree over D dimensions: a regular
/// recursive decomposition of a fixed root block into 2^D congruent
/// children ("quadrants"), splitting any block that holds more than
/// `capacity` points. D = 1 is a bintree, D = 2 the PR quadtree the paper
/// analyzes, D = 3 a PR octree.
///
/// Points are unique: inserting a duplicate returns AlreadyExists (with
/// real-valued random data duplicates are a measure-zero event; the PR
/// splitting rule counts distinct points).
///
/// Hot-path design (the simulation inner loop is insert/erase + census):
///  - Nodes are PrNode slots of SlotBytes(capacity) bytes from a NodePool
///    (node_pool.h), addressed by 32-bit NodeIndex handles. A leaf keeps
///    its points structure-of-arrays inside the slot: each coordinate axis
///    in its own contiguous lane of at least m elements, spilling to one
///    heap block past lane_capacity() (see PrNode). The lane layout
///    lets the range/partial-match visitors filter a leaf lane by lane,
///    with the SIMD kernels of util/simd.h for leaves past
///    kScalarFilterMax points — bitwise identical to the scalar test on
///    every dispatch path.
///  - Insert/Erase are PrTreeWriter (pr_tree_writer.h), shared with the
///    copy-on-write CowPrTree: iterative (the split cascade as a loop,
///    collapse walking the recorded path), so deep trees cannot overflow
///    the call stack. This tree supplies the in-place node lifecycle.
///  - The read side (Contains, range / partial-match / k-NN queries, the
///    leaf walks, CheckInvariants) is PrTreeReader, shared verbatim with
///    the copy-on-write SnapshotView (pr_tree_reader.h).
///  - The writer maintains a live occupancy-by-depth census, updated in
///    O(1) at every insert/erase/split/collapse; LiveCensus() returns it
///    without walking the tree. TakeCensus (a full walk) remains the
///    independent cross-check, and CheckInvariants verifies both agree.
template <size_t D>
class PrTree : public PrTreeReader<PrTree<D>, PrNode<D, NodeIndex>>,
               public PrTreeWriter<PrTree<D>, PrNode<D, NodeIndex>> {
 public:
  using PointT = geo::Point<D>;
  using BoxT = geo::Box<D>;
  static constexpr size_t kFanout = size_t{1} << D;

  /// Creates an empty tree over the root block `bounds`.
  PrTree(const BoxT& bounds, const PrTreeOptions& options = {})
      : bounds_(bounds),
        options_(CheckedOptions(options)),
        pool_(Node::SlotBytes(options.capacity)),
        root_(NewNode()) {}

  /// A deep copy: the same tree shape and within-leaf point order, in a
  /// fresh pool, spilled leaves holding exactly size() points per lane.
  PrTree(const PrTree& other)
      : Reader(other),
        Writer(other),
        bounds_(other.bounds_),
        options_(other.options_),
        pool_(other.pool_.slot_bytes()),
        root_(CopyNodes(other)) {}
  PrTree& operator=(const PrTree& other) {
    if (this != &other) *this = PrTree(other);
    return *this;
  }
  PrTree(PrTree&& other) noexcept
      : Writer(std::move(other)),
        bounds_(other.bounds_),
        options_(other.options_),
        pool_(std::move(other.pool_)),
        root_(std::exchange(other.root_, kNullNode)) {}
  PrTree& operator=(PrTree&& other) noexcept {
    if (this != &other) {
      ReleaseSpills();
      Writer::operator=(std::move(other));
      bounds_ = other.bounds_;
      options_ = other.options_;
      pool_ = std::move(other.pool_);
      root_ = std::exchange(other.root_, kNullNode);
    }
    return *this;
  }
  ~PrTree() { ReleaseSpills(); }

  /// The root block.
  const BoxT& bounds() const { return bounds_; }

  /// The configured node capacity m.
  size_t capacity() const { return options_.capacity; }

  /// The configured truncation depth.
  size_t max_depth() const { return options_.max_depth; }

  /// Total nodes including internal (gray) nodes.
  size_t NodeCount() const { return pool_.LiveCount(); }

  /// Bytes of one node slot (PrNode::SlotBytes of the capacity).
  size_t SlotBytes() const { return pool_.slot_bytes(); }

  /// Points a leaf holds inside its slot before spilling (>= capacity).
  size_t LaneCapacity() const { return NodeAt(root_).lane_capacity(); }

  /// Bytes the nodes hold: live slots x slot bytes, plus spill blocks.
  /// Divided by size(), this is the paper's nodes per point times the
  /// slot size (see DESIGN.md §3.4.1).
  size_t NodeBytes() const {
    return pool_.LiveCount() * pool_.slot_bytes() + SpillBytes();
  }

  /// Bytes held by the spill blocks of leaves that outgrew their lanes.
  size_t SpillBytes() const { return pool_.spills().bytes(); }

  /// Pre-sizes the node pool (and the per-tree scratch buffers) for a
  /// tree of roughly `expected_points` points, so a bulk load adds no
  /// chunk mid-run. The node estimate is leaves ~ N / m scaled by 3x,
  /// which covers the steady-state occupancy (~0.3–0.55 m) plus internal
  /// nodes for every fanout; it is a hint only — the pool still grows on
  /// demand.
  void ReserveForPoints(size_t expected_points) {
    size_t nodes =
        expected_points / std::max<size_t>(1, options_.capacity) * 3 +
        kFanout + 1;
    pool_.Reserve(nodes);
    this->ReserveScratch();
  }

  /// Bulk insert (the batch hot path). For D = 2 the batch is encoded
  /// with the batched Morton codec, sorted by (code, x, y), and placed
  /// one leaf-run at a time: phase one descends by code fields straight
  /// to each owning leaf (no per-point box arithmetic), phase two
  /// finalises any overflowing leaf by rebuilding its subtree from the
  /// merged sorted span — so traversal and split cascades are paid once
  /// per leaf, not once per point. Other dimensions fall back to the
  /// scalar insert loop.
  ///
  /// The resulting tree is the canonical PR decomposition of the final
  /// point set (identical shape and censuses to inserting one-by-one, in
  /// any order); only the order of points within a leaf may differ.
  /// Duplicates (against stored points or within the batch) and
  /// out-of-bounds points are counted, not inserted — the same
  /// dispositions the scalar insert reports as Status codes.
  BatchInsertStats InsertBatch(std::span<const PointT> batch) {
    BatchInsertStats stats;
    if constexpr (D == 2) {
      InsertBatchSorted(batch, &stats);
    } else {
      for (const PointT& p : batch) AbsorbSingle(this->Insert(p), &stats);
    }
    return stats;
  }

  /// Chunks the node pool added mid-allocation (see
  /// NodePool::GrowthCount) — zero across a well-reserved InsertBatch.
  size_t PoolGrowthCount() const { return pool_.GrowthCount(); }

  /// Removes all points, leaving one empty root leaf.
  void Clear() {
    ReleaseSpills();
    pool_.Clear();
    root_ = NewNode();
    this->ResetCounters();
  }

 private:
  using Node = PrNode<D, NodeIndex>;
  using Reader = PrTreeReader<PrTree<D>, Node>;
  using Writer = PrTreeWriter<PrTree<D>, Node>;
  friend Reader;
  friend Writer;
  using Writer::census_;
  using Writer::size_;

  static const PrTreeOptions& CheckedOptions(const PrTreeOptions& options) {
    POPAN_CHECK(options.capacity >= 1) << "capacity must be at least 1";
    return options;
  }

  // ---- Node lifecycle (see PrTreeWriter): pooled slots, in place ----

  NodeIndex Root() const { return root_; }
  const Node& NodeAt(NodeIndex idx) const {
    return *std::launder(static_cast<const Node*>(pool_.At(idx)));
  }
  Node& MutableNodeAt(NodeIndex idx) {
    return *std::launder(static_cast<Node*>(pool_.At(idx)));
  }
  NodeIndex NewNode() {
    const NodeIndex idx = pool_.Allocate();
    ::new (pool_.At(idx)) Node(pool_.slot_bytes());
    return idx;
  }
  void FreeNode(NodeIndex idx, bool /*on_path*/) {
    MutableNodeAt(idx).clear(pool_.spills());
    pool_.Free(idx);
  }
  void CopyPath(std::span<NodeIndex> /*path*/) {}
  void Publish(NodeIndex /*root*/) {}
  SpillBlocks& Spills() { return pool_.spills(); }

  /// Rebuilds `other`'s nodes in this tree's (empty) pool, preorder, and
  /// returns the new root.
  NodeIndex CopyNodes(const PrTree& other) {
    const NodeIndex root = NewNode();
    std::vector<std::pair<NodeIndex, NodeIndex>> stack = {{other.root_, root}};
    while (!stack.empty()) {
      const auto [from, to] = stack.back();
      stack.pop_back();
      const Node& source = other.NodeAt(from);
      if (source.is_leaf()) {
        MutableNodeAt(to).CopyFrom(source, pool_.spills());
        continue;
      }
      std::array<NodeIndex, kFanout> ch;
      for (size_t q = 0; q < kFanout; ++q) {
        ch[q] = NewNode();
        stack.push_back({source.child(q), ch[q]});
      }
      MutableNodeAt(to).MakeInternal(ch, pool_.spills());
    }
    return root;
  }

  /// Frees the spill blocks; a moved-from tree has no root and none.
  void ReleaseSpills() {
    if (root_ != kNullNode) Writer::ReleaseSpills(root_);
  }

  // ---- Bulk insert (see InsertBatch) -------------------------------

  /// One batch record: a point with its Morton code, sorted and merged
  /// as a unit so the hot path never re-gathers parallel arrays.
  struct BatchRec {
    uint64_t code;
    PointT pt;
  };

  static void AbsorbSingle(const Status& s, BatchInsertStats* stats) {
    if (s.ok()) {
      ++stats->inserted;
    } else if (s.code() == StatusCode::kAlreadyExists) {
      ++stats->duplicates;
    } else {
      ++stats->out_of_bounds;
    }
  }

  /// Sizes the pool from the sorted batch's run structure instead of a
  /// worst-case per-point bound: distinct code prefixes at the depth d*
  /// where mean block occupancy is ~capacity/2 (4^d* >= 2n/m) approximate
  /// the final leaf partition, and a quadtree with L leaves has (4L-1)/3
  /// nodes; 2x slack covers clusters that split past d*.
  void ReserveForBatch(const std::vector<BatchRec>& sorted) {
    const size_t n = sorted.size();
    const size_t m = std::max<size_t>(1, options_.capacity);
    size_t d_star = 0;
    while (d_star < MortonCode::kMaxDepth &&
           (size_t{1} << (2 * d_star)) < (2 * n + m - 1) / m) {
      ++d_star;
    }
    const int shift = 2 * (MortonCode::kMaxDepth - d_star);
    size_t runs = 1;
    for (size_t j = 1; j < n; ++j) {
      if ((sorted[j].code >> shift) != (sorted[j - 1].code >> shift)) {
        ++runs;
      }
    }
    pool_.Reserve(pool_.LiveCount() + runs * 8 / 3 + kFanout + 8);
  }

  /// The D = 2 bulk path. Every structural decision is driven by the
  /// (parity-exact) batch codes and raw coordinate comparisons, so the
  /// built tree is bitwise identical under scalar and SIMD dispatch.
  void InsertBatchSorted(std::span<const PointT> batch,
                         BatchInsertStats* stats) {
    const uint8_t cd = static_cast<uint8_t>(
        std::min<size_t>(options_.max_depth, MortonCode::kMaxDepth));
    std::vector<PointT> pts;
    pts.reserve(batch.size());
    for (const PointT& p : batch) {
      if (bounds_.Contains(p)) {
        pts.push_back(p);
      } else {
        ++stats->out_of_bounds;
      }
    }
    if (pts.empty()) return;
    const size_t n = pts.size();
    std::vector<uint64_t> raw(n);
    CodeBitsBatch(bounds_, pts, cd, raw.data());
    // Sort records (code, point) by (code, x, y). Large batches go
    // through one MSD bucket pass on the top 16 code bits (uniform data
    // lands ~n/65536 records per bucket) that scatters each record
    // straight from the codes and points into its bucket, followed by
    // tiny per-bucket comparison sorts — a single scatter instead of
    // O(n log n) indirect comparisons, which dominates the whole batch
    // otherwise. Skewed data degrades gracefully: an overfull bucket is
    // just std::sort'ed.
    const auto rec_less = [](const BatchRec& a, const BatchRec& b) {
      if (a.code != b.code) return a.code < b.code;
      if (a.pt[0] != b.pt[0]) return a.pt[0] < b.pt[0];
      return a.pt[1] < b.pt[1];
    };
    std::vector<BatchRec> recs(n);
    if (n >= 4096) {
      // Codes occupy bits [0, 62); the top 16 are bits [46, 62).
      constexpr int kBucketShift = 2 * MortonCode::kMaxDepth - 16;
      constexpr size_t kBuckets = size_t{1} << 16;
      // Bucket sizes, then their starts, then (as the scatter's cursors)
      // their ends.
      std::vector<uint32_t> ends(kBuckets, 0);
      for (uint64_t c : raw) ++ends[c >> kBucketShift];
      uint32_t start = 0;
      for (uint32_t& e : ends) start += std::exchange(e, start);
      for (size_t j = 0; j < n; ++j) {
        recs[ends[raw[j] >> kBucketShift]++] = BatchRec{raw[j], pts[j]};
      }
      size_t lo = 0;
      for (const size_t hi : ends) {
        if (hi - lo > 1) {
          std::sort(recs.begin() + static_cast<ptrdiff_t>(lo),
                    recs.begin() + static_cast<ptrdiff_t>(hi), rec_less);
        }
        lo = hi;
      }
    } else {
      for (size_t j = 0; j < n; ++j) recs[j] = BatchRec{raw[j], pts[j]};
      std::sort(recs.begin(), recs.end(), rec_less);
    }
    // In-batch duplicates are adjacent now; drop them in place, up front,
    // so the per-run merge below only resolves batch-vs-stored ties.
    {
      size_t w = 0;
      for (size_t j = 0; j < n; ++j) {
        if (w != 0 && recs[w - 1].code == recs[j].code &&
            recs[w - 1].pt == recs[j].pt) {
          ++stats->duplicates;
          continue;
        }
        recs[w++] = recs[j];
      }
      recs.resize(w);
    }
    ReserveForBatch(recs);
    const size_t sn = recs.size();

    const size_t size_before = size_;
    std::vector<PointT> fallback;
    std::vector<PointT> ex_pts;
    std::vector<uint64_t> ex_codes;
    std::vector<uint32_t> ex_order;
    std::vector<BatchRec> merged;
    size_t i = 0;
    while (i < sn) {
      // Descend by code fields straight to the leaf owning recs[i].
      NodeIndex idx = root_;
      size_t depth = 0;
      for (;;) {
        const Node& node = NodeAt(idx);
        if (node.is_leaf()) break;
        if (depth >= cd) {
          idx = kNullNode;
          break;
        }
        const size_t q =
            (recs[i].code >> (2 * (MortonCode::kMaxDepth - 1 - depth))) & 3;
        idx = node.child(q);
        ++depth;
      }
      if (idx == kNullNode) {
        // Structure deeper than the code depth (an identical-code cluster
        // under max_depth > kMaxDepth): the scalar path, which splits on
        // real coordinates, handles these points.
        const uint64_t c = recs[i].code;
        while (i < sn && recs[i].code == c) fallback.push_back(recs[i++].pt);
        continue;
      }
      // The run: every batch point inside this leaf's code interval.
      size_t e = sn;
      if (depth > 0) {
        const uint64_t span = uint64_t{1}
                              << (2 * (MortonCode::kMaxDepth - depth));
        const uint64_t hi = (recs[i].code & ~(span - 1)) + span;
        e = i + 1;
        while (e < sn && recs[e].code < hi) ++e;
      }
      Node& leaf = MutableNodeAt(idx);
      const size_t old_occ = leaf.size();
      if (old_occ == 0) {
        // Empty leaf: the deduplicated run IS the merged span — fill or
        // finalise straight from the sorted records, no copies.
        const size_t total = e - i;
        if (total <= options_.capacity || depth >= options_.max_depth) {
          for (size_t j = i; j < e; ++j) {
            leaf.push_back(recs[j].pt, pool_.spills());
          }
          census_.RemoveLeaf(0, depth);
          census_.AddLeaf(total, depth);
          size_ += total;
        } else {
          census_.RemoveLeaf(0, depth);
          const size_t placed =
              BuildSubtreeFromRun(idx, depth, cd, i, e, recs, &fallback);
          size_ += placed;
        }
        i = e;
        continue;
      }
      // Merge the leaf's existing points (encoded and sorted the same
      // way) with the run, dropping batch copies of stored points.
      ex_pts.clear();
      for (size_t j = 0; j < old_occ; ++j) ex_pts.push_back(leaf.Get(j));
      ex_codes.resize(old_occ);
      CodeBitsBatch(bounds_, ex_pts, cd, ex_codes.data());
      ex_order.resize(old_occ);
      std::iota(ex_order.begin(), ex_order.end(), 0u);
      std::sort(ex_order.begin(), ex_order.end(),
                [&](uint32_t a, uint32_t b) {
                  if (ex_codes[a] != ex_codes[b]) {
                    return ex_codes[a] < ex_codes[b];
                  }
                  if (ex_pts[a][0] != ex_pts[b][0]) {
                    return ex_pts[a][0] < ex_pts[b][0];
                  }
                  return ex_pts[a][1] < ex_pts[b][1];
                });
      merged.clear();
      size_t a = 0;
      size_t b = i;
      while (a < old_occ || b < e) {
        bool take_existing;
        if (a >= old_occ) {
          take_existing = false;
        } else if (b >= e) {
          take_existing = true;
        } else {
          const uint64_t ca = ex_codes[ex_order[a]];
          if (ca != recs[b].code) {
            take_existing = ca < recs[b].code;
          } else {
            const PointT& pa = ex_pts[ex_order[a]];
            if (pa[0] != recs[b].pt[0]) {
              take_existing = pa[0] < recs[b].pt[0];
            } else {
              // On full ties the stored point wins; the batch copy is
              // then dropped as a duplicate below.
              take_existing = pa[1] <= recs[b].pt[1];
            }
          }
        }
        if (take_existing) {
          merged.push_back(BatchRec{ex_codes[ex_order[a]], ex_pts[ex_order[a]]});
          ++a;
        } else {
          if (!merged.empty() && merged.back().pt == recs[b].pt) {
            ++stats->duplicates;
          } else {
            merged.push_back(recs[b]);
          }
          ++b;
        }
      }
      const size_t total = merged.size();
      if (total == old_occ) {
        i = e;
        continue;  // every batch point in the run was a duplicate
      }
      if (total <= options_.capacity || depth >= options_.max_depth) {
        leaf.clear(pool_.spills());
        for (size_t j = 0; j < total; ++j) {
          leaf.push_back(merged[j].pt, pool_.spills());
        }
        census_.RemoveLeaf(old_occ, depth);
        census_.AddLeaf(total, depth);
        size_ += total - old_occ;
      } else {
        // Finalise: rebuild this leaf's subtree from the merged span.
        census_.RemoveLeaf(old_occ, depth);
        leaf.clear(pool_.spills());
        const size_t placed = BuildSubtreeFromRun(
            idx, depth, cd, 0, total, merged, &fallback);
        size_ -= old_occ;
        size_ += placed;
      }
      i = e;
    }
    // Deep identical-code clusters (a measure-zero event for real-valued
    // data) finish on the scalar path.
    for (const PointT& p : fallback) {
      const Status s = this->Insert(p);
      if (!s.ok()) ++stats->duplicates;
    }
    stats->inserted += size_ - size_before;
  }

  /// Builds the minimal subtree for merged[b, e) under `idx`, which must
  /// be an empty leaf whose census entry has been removed. Splits exactly
  /// when a block holds more than `capacity` points (the PR rule), using
  /// the sorted codes to partition spans without touching coordinates.
  /// Returns the number of points placed; points of an identical-code
  /// cluster that must split past the code depth join `fallback` instead.
  size_t BuildSubtreeFromRun(NodeIndex idx, size_t depth, uint8_t cd,
                             size_t b, size_t e,
                             const std::vector<BatchRec>& recs,
                             std::vector<PointT>* fallback) {
    const size_t count = e - b;
    if (count <= options_.capacity || depth >= options_.max_depth) {
      Node& node = MutableNodeAt(idx);
      for (size_t j = b; j < e; ++j) {
        node.push_back(recs[j].pt, pool_.spills());
      }
      census_.AddLeaf(count, depth);
      return count;
    }
    if (depth >= cd) {
      census_.AddLeaf(0, depth);
      for (size_t j = b; j < e; ++j) fallback->push_back(recs[j].pt);
      return 0;
    }
    const std::array<NodeIndex, kFanout> ch = this->SplitNode(idx);
    const int shift =
        2 * (static_cast<int>(MortonCode::kMaxDepth) - 1 -
             static_cast<int>(depth));
    size_t placed = 0;
    size_t s = b;
    for (size_t q = 0; q < kFanout; ++q) {
      size_t t = s;
      while (t < e &&
             ((recs[t].code >> shift) & 3) == static_cast<uint64_t>(q)) {
        ++t;
      }
      placed += BuildSubtreeFromRun(ch[q], depth + 1, cd, s, t, recs, fallback);
      s = t;
    }
    POPAN_DCHECK(s == e);
    return placed;
  }

  BoxT bounds_;
  PrTreeOptions options_;
  NodePool<NodeIndex> pool_;
  NodeIndex root_;
};

// A slot holds 2^D 32-bit pool indices OR the leaf lanes, so its size
// follows the capacity; pinned so a layout change cannot silently grow
// every tree.
static_assert(PrNode<2, NodeIndex>::SlotBytes(1) == 24 &&
                  PrNode<2, NodeIndex>::SlotBytes(4) == 72 &&
                  PrNode<2, NodeIndex>::SlotBytes(8) == 136,
              "PrQuadtree slot sizes moved");

/// Convenience aliases for the common dimensions.
using PrBintree = PrTree<1>;
using PrQuadtree = PrTree<2>;
using PrOctree = PrTree<3>;

}  // namespace popan::spatial

#endif  // POPAN_SPATIAL_PR_TREE_H_
