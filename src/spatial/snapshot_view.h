#ifndef POPAN_SPATIAL_SNAPSHOT_VIEW_H_
#define POPAN_SPATIAL_SNAPSHOT_VIEW_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"
#include "spatial/census.h"
#include "spatial/epoch.h"
#include "spatial/pr_tree.h"
#include "spatial/pr_tree_reader.h"
#include "util/check.h"
#include "util/status.h"

namespace popan::spatial {

template <size_t D>
class SnapshotView;

/// An immutable snapshot-tree node: the shared PR node with pointer
/// children. Never modified after the version holding it is published;
/// freed through the epoch limbo list when replaced.
template <size_t D>
struct CowNode : PrNode<D, const CowNode<D>*> {};

// Path copying allocates one node per level per write, so the node size
// is the snapshot tree's memory footprint; pinned against layout growth.
static_assert(sizeof(void*) != 8 || sizeof(CowNode<2>) <= 200,
              "snapshot quadtree node grew past 200 bytes");

/// A copy-on-write PR tree for single-writer / multi-reader workloads:
/// the concurrent sibling of PrTree<D>, with the same splitting rule,
/// collapse rule, census bookkeeping, and boundary semantics — verified
/// bitwise against it by the snapshot-consistency tests.
///
/// Where PrTree mutates nodes in place (safe only with writers stopped),
/// CowPrTree never modifies a published node: every Insert/Erase builds
/// fresh copies of the root-to-leaf path (plus the split or collapse
/// subtree), then publishes the new root inside a new immutable Version
/// with one atomic store. Readers pin an epoch and load the version head
/// (SnapshotView); from then on they traverse a frozen tree that no
/// writer will ever touch, so queries never block and never see a torn
/// state. Replaced nodes and versions retire into the epoch limbo list
/// and are freed only once no pinned reader can reach them (epoch.h has
/// the full memory-ordering argument).
///
/// Each Version carries the occupancy-by-depth histogram at its sequence
/// number, so SnapshotView::LiveCensus() is O(depths x occupancies) and
/// bitwise identical to a stop-the-world census of the same prefix of
/// operations — the storm tests' core assertion.
///
/// Threading contract: Insert/Erase/CheckInvariants/destructor on the
/// single writer thread; Snapshot() and everything on SnapshotView from
/// any thread. The tree must outlive every SnapshotView taken from it.
template <size_t D>
class CowPrTree {
 public:
  using PointT = geo::Point<D>;
  using BoxT = geo::Box<D>;
  static constexpr size_t kFanout = size_t{1} << D;
  static constexpr size_t kInlineLeafCapacity = PrTree<D>::kInlineLeafCapacity;

  /// Creates an empty tree over `bounds`. `initial_sequence` anchors the
  /// version counter — pass the WAL/checkpoint sequence the starting
  /// state reflects (0 for an empty tree) so snapshot sequence numbers
  /// line up with log sequence numbers. `epoch_readers` sizes the
  /// epoch manager's reader-slot table (concurrent pinned snapshots);
  /// the shard router sizes per-shard trees to its client budget.
  explicit CowPrTree(const BoxT& bounds, const PrTreeOptions& options = {},
                     uint64_t initial_sequence = 0,
                     size_t epoch_readers = EpochManager::kMaxReaders)
      : bounds_(bounds), options_(options), epochs_(epoch_readers) {
    POPAN_CHECK(options_.capacity >= 1) << "capacity must be at least 1";
    hist_.Add(0, 0);
    Version* v = new Version;
    v->root = new Node;
    v->sequence = initial_sequence;
    v->size = 0;
    v->leaf_count = 1;
    v->hist = hist_;
    head_.store(v, std::memory_order_seq_cst);
  }

  ~CowPrTree() {
    const Version* v = head_.load(std::memory_order_relaxed);
    DeleteSubtree(v->root);
    delete v;
    // epochs_'s destructor drains the limbo list.
  }

  CowPrTree(const CowPrTree&) = delete;
  CowPrTree& operator=(const CowPrTree&) = delete;

  const BoxT& bounds() const { return bounds_; }
  size_t capacity() const { return options_.capacity; }
  size_t max_depth() const { return options_.max_depth; }

  /// Writer-side view of the newest version.
  uint64_t sequence() const {
    return head_.load(std::memory_order_relaxed)->sequence;
  }
  size_t size() const { return head_.load(std::memory_order_relaxed)->size; }
  bool empty() const { return size() == 0; }
  size_t LeafCount() const {
    return head_.load(std::memory_order_relaxed)->leaf_count;
  }

  /// Writer-side census of the newest version — the same histogram fold
  /// SnapshotView::LiveCensus performs, without pinning a reader slot.
  /// O(depths x occupancies); this is what lets the shard balancer poll
  /// every shard's census per rebalance check without touching points.
  Census LiveCensus() const { return hist_.ToCensus(); }

  /// The reclamation machinery, exposed for storm harnesses and benches
  /// (counters from any thread; Retire/Advance/Reclaim writer-only).
  EpochManager& epochs() const { return epochs_; }

  /// Pins the current epoch and returns a frozen view of the newest
  /// published version. Any thread; the view holds its pin until
  /// destroyed, which is what keeps its nodes out of reclamation.
  /// Aborts when all reader slots are taken — use TrySnapshot where slot
  /// exhaustion is load, not a bug.
  [[nodiscard]] SnapshotView<D> Snapshot() const;

  /// Like Snapshot, but returns ResourceExhausted instead of aborting
  /// when every EpochManager reader slot is pinned — the form server
  /// connection handlers must use, shedding the request on error.
  [[nodiscard]] StatusOr<SnapshotView<D>> TrySnapshot() const;

  /// Inserts `p`, publishing a new version (sequence + 1) on success.
  /// OutOfRange outside the root block, AlreadyExists for a duplicate;
  /// failed inserts publish nothing.
  [[nodiscard]] Status Insert(const PointT& p) {
    if (!bounds_.Contains(p)) {
      return Status::OutOfRange("point outside the tree bounds");
    }
    const Version* cur = head_.load(std::memory_order_relaxed);
    path_.clear();
    const Node* leaf = cur->root;
    BoxT box = bounds_;
    size_t depth = 0;
    while (!leaf->is_leaf) {
      size_t q = box.QuadrantOf(p);
      path_.push_back(PathEntry{leaf, q});
      leaf = leaf->children[q];
      box = box.Quadrant(q);
      ++depth;
    }
    const size_t n = leaf->points.size();
    for (size_t i = 0; i < n; ++i) {
      if (leaf->points.Matches(i, p)) {
        return Status::AlreadyExists("duplicate point");
      }
    }
    to_retire_.clear();
    to_retire_.push_back(leaf);
    Node* replacement;
    if (n < options_.capacity || depth >= options_.max_depth) {
      replacement = new Node(*leaf);
      replacement->points.push_back(p);
      hist_.Remove(depth, n);
      hist_.Add(depth, n + 1);
    } else {
      // The splitting rule fires: stash the m+1 points and grow a fresh
      // subtree in their place (same cascade arithmetic as PrTree).
      split_points_.clear();
      for (size_t i = 0; i < n; ++i) {
        split_points_.push_back(leaf->points.Get(i));
      }
      split_points_.push_back(p);
      hist_.Remove(depth, n);
      replacement = BuildSplitSubtree(box, depth);
    }
    ++size_;
    Publish(RebuildPath(replacement));
    return Status::OK();
  }

  /// Removes `p`, publishing a new version (sequence + 1) on success.
  /// NotFound when it is not stored; failed erases publish nothing.
  /// Collapses merged leaves exactly like PrTree::Erase, so the published
  /// tree is always the canonical minimal decomposition.
  [[nodiscard]] Status Erase(const PointT& p) {
    if (!bounds_.Contains(p)) {
      return Status::NotFound("point outside the tree bounds");
    }
    const Version* cur = head_.load(std::memory_order_relaxed);
    path_.clear();
    const Node* leaf = cur->root;
    BoxT box = bounds_;
    while (!leaf->is_leaf) {
      size_t q = box.QuadrantOf(p);
      path_.push_back(PathEntry{leaf, q});
      leaf = leaf->children[q];
      box = box.Quadrant(q);
    }
    const size_t n = leaf->points.size();
    size_t found = n;
    for (size_t i = 0; i < n; ++i) {
      if (leaf->points.Matches(i, p)) {
        found = i;
        break;
      }
    }
    if (found == n) return Status::NotFound("point not stored");
    const size_t depth = path_.size();
    to_retire_.clear();
    to_retire_.push_back(leaf);
    Node* child = new Node(*leaf);
    child->points.SwapRemoveAt(found);
    hist_.Remove(depth, n);
    hist_.Add(depth, n - 1);
    --size_;
    // Walk back up, merging any chain of all-leaf siblings that fits in
    // one leaf (deepest first; once a level fails, no shallower level can
    // collapse either), then path-copying the rest.
    Node* root = child;
    bool collapsing = true;
    for (size_t level = path_.size(); level-- > 0;) {
      const Node* parent = path_[level].node;
      const size_t q = path_[level].quadrant;
      if (collapsing && root->is_leaf) {
        size_t total = root->points.size();
        bool all_leaves = true;
        for (size_t qq = 0; qq < kFanout && all_leaves; ++qq) {
          if (qq == q) continue;
          const Node* sibling = parent->children[qq];
          if (!sibling->is_leaf) {
            all_leaves = false;
          } else {
            total += sibling->points.size();
          }
        }
        if (all_leaves && total <= options_.capacity) {
          Node* merged = new Node;
          for (size_t qq = 0; qq < kFanout; ++qq) {
            const Node* source = qq == q ? root : parent->children[qq];
            for (size_t i = 0, m = source->points.size(); i < m; ++i) {
              merged->points.push_back(source->points.Get(i));
            }
            hist_.Remove(level + 1, source->points.size());
            if (qq != q) to_retire_.push_back(parent->children[qq]);
          }
          hist_.Add(level, total);
          leaf_count_ -= kFanout - 1;
          to_retire_.push_back(parent);
          delete root;  // fresh this operation, never published
          root = merged;
          continue;
        }
        collapsing = false;
      }
      Node* copy = new Node(*parent);
      copy->children[q] = root;
      to_retire_.push_back(parent);
      root = copy;
    }
    Publish(root);
    return Status::OK();
  }

  /// Verifies the newest version against a fresh walk: structural PR
  /// invariants, cached size/leaf counts, and the per-version census
  /// histogram (SnapshotView::CheckInvariants on the head). Writer thread
  /// only.
  [[nodiscard]] Status CheckInvariants() const;

 private:
  friend class SnapshotView<D>;
  using Node = CowNode<D>;

  /// One published state of the tree: the version header readers pin.
  /// Immutable after the head store that publishes it.
  struct Version {
    const Node* root = nullptr;
    uint64_t sequence = 0;
    size_t size = 0;
    size_t leaf_count = 1;
    /// The live census PrTree maintains, frozen per version.
    LiveHistogram hist;
  };

  struct PathEntry {
    const Node* node;
    size_t quadrant;
  };

  /// Grows the replacement subtree for a split at (`box`, `depth`) from
  /// the m+1 points in split_points_. Same cascade loop and histogram
  /// arithmetic as PrTree::Insert; all nodes are fresh.
  Node* BuildSplitSubtree(BoxT box, size_t depth) {
    Node* top = nullptr;
    Node* pending_parent = nullptr;
    size_t pending_quadrant = 0;
    for (;;) {
      split_codes_.clear();
      std::array<size_t, kFanout> counts{};
      for (const PointT& pt : split_points_) {
        size_t q = box.QuadrantOf(pt);
        split_codes_.push_back(static_cast<uint8_t>(q));
        ++counts[q];
      }
      size_t sole = kFanout;
      for (size_t q = 0; q < kFanout; ++q) {
        if (counts[q] == split_points_.size()) sole = q;
      }
      Node* internal = new Node;
      internal->is_leaf = false;
      if (pending_parent == nullptr) {
        top = internal;
      } else {
        pending_parent->children[pending_quadrant] = internal;
      }
      leaf_count_ += kFanout - 1;
      for (size_t q = 0; q < kFanout; ++q) hist_.Add(depth + 1, 0);
      if (sole != kFanout && depth + 1 < options_.max_depth) {
        for (size_t q = 0; q < kFanout; ++q) {
          if (q != sole) internal->children[q] = new Node;
        }
        hist_.Remove(depth + 1, 0);  // the sole child becomes internal
        pending_parent = internal;
        pending_quadrant = sole;
        box = box.Quadrant(sole);
        ++depth;
        continue;
      }
      std::array<Node*, kFanout> ch;
      for (size_t q = 0; q < kFanout; ++q) {
        ch[q] = new Node;
        internal->children[q] = ch[q];
      }
      for (size_t i = 0; i < split_points_.size(); ++i) {
        ch[split_codes_[i]]->points.push_back(split_points_[i]);
      }
      for (size_t q = 0; q < kFanout; ++q) {
        if (counts[q] != 0) {
          hist_.Remove(depth + 1, 0);
          hist_.Add(depth + 1, counts[q]);
        }
      }
      return top;
    }
  }

  /// Path-copies the recorded ancestors around `replacement` (the new
  /// subtree at the descent leaf), retiring the replaced originals.
  Node* RebuildPath(Node* replacement) {
    Node* child = replacement;
    for (size_t level = path_.size(); level-- > 0;) {
      Node* copy = new Node(*path_[level].node);
      copy->children[path_[level].quadrant] = child;
      to_retire_.push_back(path_[level].node);
      child = copy;
    }
    return child;
  }

  /// Publishes `new_root` as the next version and retires everything the
  /// operation unlinked. One epoch advance + reclaim attempt per publish
  /// keeps the limbo list short and the reclamation counters a pure
  /// function of the operation trace when no readers are pinned.
  void Publish(Node* new_root) {
    const Version* old = head_.load(std::memory_order_relaxed);
    Version* v = new Version;
    v->root = new_root;
    v->sequence = old->sequence + 1;
    v->size = size_;
    v->leaf_count = leaf_count_;
    v->hist = hist_;
    head_.store(v, std::memory_order_seq_cst);
    epochs_.RetireObject(old);
    for (const Node* node : to_retire_) epochs_.RetireObject(node);
    to_retire_.clear();
    epochs_.AdvanceEpoch();
    epochs_.Reclaim();
  }

  static void DeleteSubtree(const Node* root) {
    std::vector<const Node*> stack;
    stack.push_back(root);
    while (!stack.empty()) {
      const Node* node = stack.back();
      stack.pop_back();
      if (!node->is_leaf) {
        for (size_t q = 0; q < kFanout; ++q) {
          stack.push_back(node->children[q]);
        }
      }
      delete node;
    }
  }

  BoxT bounds_;
  PrTreeOptions options_;
  mutable EpochManager epochs_;
  std::atomic<const Version*> head_{nullptr};
  // Writer-side working state, mirrored into each published Version.
  size_t size_ = 0;
  size_t leaf_count_ = 1;
  LiveHistogram hist_;
  // Reusable writer scratch.
  std::vector<PathEntry> path_;
  std::vector<const Node*> to_retire_;
  std::vector<PointT> split_points_;
  std::vector<uint8_t> split_codes_;
};

/// A pinned, frozen view of one CowPrTree version: the reader-side handle.
/// Construction pins an epoch; destruction releases it. Every traversal
/// is PrTreeReader's — the same code PrTree runs — over immutable nodes,
/// so results, visit orders and QueryCost counters are bitwise comparable
/// with a stop-the-world tree holding the same points. Safe to share
/// across threads by const reference (the executor does exactly that);
/// the view and its source tree must outlive all such use.
template <size_t D>
class SnapshotView : public PrTreeReader<SnapshotView<D>, CowNode<D>> {
 public:
  using PointT = geo::Point<D>;
  using BoxT = geo::Box<D>;

  SnapshotView(SnapshotView&&) noexcept = default;
  SnapshotView& operator=(SnapshotView&&) noexcept = default;

  const BoxT& bounds() const { return tree_->bounds(); }
  size_t capacity() const { return tree_->capacity(); }
  size_t max_depth() const { return tree_->max_depth(); }

  /// The sequence number of the pinned version: the number of successful
  /// operations (WAL records) this snapshot reflects.
  uint64_t sequence() const { return version_->sequence; }

  size_t size() const { return version_->size; }
  bool empty() const { return version_->size == 0; }
  size_t LeafCount() const { return version_->leaf_count; }

  /// The pinned version's census — bitwise identical to TakeCensus of a
  /// stop-the-world tree built from the same operation prefix.
  Census LiveCensus() const { return version_->hist.ToCensus(); }

 private:
  friend class CowPrTree<D>;
  friend class PrTreeReader<SnapshotView<D>, CowNode<D>>;
  using Version = typename CowPrTree<D>::Version;

  /// `pin` may be empty only on the writer thread, which alone retires
  /// nodes (CowPrTree::CheckInvariants).
  SnapshotView(const CowPrTree<D>* tree, const Version* version,
               EpochManager::Pin pin)
      : tree_(tree), version_(version), pin_(std::move(pin)) {}

  const CowNode<D>* Root() const { return version_->root; }
  static const CowNode<D>& NodeAt(const CowNode<D>* node) { return *node; }

  const CowPrTree<D>* tree_;
  const Version* version_;
  EpochManager::Pin pin_;
};

template <size_t D>
Status CowPrTree<D>::CheckInvariants() const {
  return SnapshotView<D>(this, head_.load(std::memory_order_relaxed),
                         EpochManager::Pin())
      .CheckInvariants();
}

template <size_t D>
SnapshotView<D> CowPrTree<D>::Snapshot() const {
  // Pin first, then load the head: the pinned epoch then protects every
  // node reachable from the loaded version (see epoch.h).
  EpochManager::Pin pin = epochs_.PinReader();
  const Version* v = head_.load(std::memory_order_seq_cst);
  return SnapshotView<D>(this, v, std::move(pin));
}

template <size_t D>
StatusOr<SnapshotView<D>> CowPrTree<D>::TrySnapshot() const {
  StatusOr<EpochManager::Pin> pin = epochs_.TryPinReader();
  POPAN_RETURN_IF_ERROR(pin.status());
  const Version* v = head_.load(std::memory_order_seq_cst);
  return SnapshotView<D>(this, v, std::move(pin).value());
}

/// Convenience aliases matching PrTree's.
using CowPrQuadtree = CowPrTree<2>;
using SnapshotView2 = SnapshotView<2>;

/// Epoch-protected publication of whole immutable values — the snapshot
/// mechanism for structures that are rebuilt rather than edited in place
/// (LinearPrQuadtree: the writer bulk-rebuilds per batch and publishes;
/// readers pin a consistent revision and query it without blocking).
/// Same single-writer / multi-reader contract as CowPrTree.
template <typename T>
class VersionedObject {
 public:
  explicit VersionedObject(T initial, uint64_t sequence = 0) {
    head_.store(new Revision{std::move(initial), sequence},
                std::memory_order_seq_cst);
  }

  ~VersionedObject() {
    delete head_.load(std::memory_order_relaxed);
    // epochs_'s destructor drains retired revisions.
  }

  VersionedObject(const VersionedObject&) = delete;
  VersionedObject& operator=(const VersionedObject&) = delete;

  /// A pinned revision; dereferences to the immutable value. Shares the
  /// outlive rules of SnapshotView.
  class View {
   public:
    View(View&&) noexcept = default;
    View& operator=(View&&) noexcept = default;

    const T& operator*() const { return revision_->value; }
    const T* operator->() const { return &revision_->value; }
    const T& get() const { return revision_->value; }
    uint64_t sequence() const { return revision_->sequence; }

   private:
    friend class VersionedObject;
    View(const typename VersionedObject::Revision* revision,
         EpochManager::Pin pin)
        : revision_(revision), pin_(std::move(pin)) {}

    const typename VersionedObject::Revision* revision_;
    EpochManager::Pin pin_;
  };

  /// Writer: publishes `next` at `sequence`, retiring the previous
  /// revision into the epoch limbo list.
  void Publish(T next, uint64_t sequence) {
    Revision* r = new Revision{std::move(next), sequence};
    const Revision* old = head_.load(std::memory_order_relaxed);
    head_.store(r, std::memory_order_seq_cst);
    epochs_.RetireObject(old);
    epochs_.AdvanceEpoch();
    epochs_.Reclaim();
  }

  /// Pins the current revision. Any thread. Aborts on reader-slot
  /// exhaustion; TrySnapshot below returns it as a typed error instead.
  [[nodiscard]] View Snapshot() const {
    EpochManager::Pin pin = epochs_.PinReader();
    const Revision* r = head_.load(std::memory_order_seq_cst);
    return View(r, std::move(pin));
  }

  /// Like Snapshot, but sheds load with ResourceExhausted when all
  /// reader slots are pinned.
  [[nodiscard]] StatusOr<View> TrySnapshot() const {
    StatusOr<EpochManager::Pin> pin = epochs_.TryPinReader();
    POPAN_RETURN_IF_ERROR(pin.status());
    const Revision* r = head_.load(std::memory_order_seq_cst);
    return View(r, std::move(pin).value());
  }

  /// Writer-side sequence of the newest revision.
  uint64_t sequence() const {
    return head_.load(std::memory_order_relaxed)->sequence;
  }

  EpochManager& epochs() const { return epochs_; }

 private:
  struct Revision {
    T value;
    uint64_t sequence;
  };

  mutable EpochManager epochs_;
  std::atomic<const Revision*> head_{nullptr};
};

}  // namespace popan::spatial

#endif  // POPAN_SPATIAL_SNAPSHOT_VIEW_H_
