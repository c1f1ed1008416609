#ifndef POPAN_SPATIAL_SNAPSHOT_VIEW_H_
#define POPAN_SPATIAL_SNAPSHOT_VIEW_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"
#include "spatial/census.h"
#include "spatial/epoch.h"
#include "spatial/node_pool.h"
#include "spatial/pr_tree.h"
#include "spatial/pr_tree_reader.h"
#include "spatial/pr_tree_writer.h"
#include "util/check.h"
#include "util/status.h"

namespace popan::spatial {

template <size_t D>
class SnapshotView;

/// An immutable snapshot-tree node: the shared PR node with pointer
/// children. Never modified after the version holding it is published;
/// returned to the tree's pool through the epoch limbo list when replaced.
template <size_t D>
struct CowNode : PrNode<D, const CowNode<D>*> {
  using PrNode<D, const CowNode<D>*>::PrNode;
};

// The slot size is the snapshot tree's memory footprint (path copying
// takes one slot per level per write); pinned against layout growth.
static_assert(sizeof(void*) != 8 ||
                  (CowNode<2>::SlotBytes(1) == 40 &&
                   CowNode<2>::SlotBytes(4) == 72 &&
                   CowNode<2>::SlotBytes(8) == 136),
              "snapshot quadtree slot sizes moved");

/// A copy-on-write PR tree for single-writer / multi-reader workloads:
/// the concurrent sibling of PrTree<D>. Both run the same writer
/// (PrTreeWriter: descent, split cascade, collapse, census bookkeeping);
/// they differ only in the node lifecycle.
///
/// PrTree mutates its nodes in place (safe only with writers stopped).
/// CowPrTree never writes a published node: once an Insert/Erase is known
/// to succeed it copies the recorded root-to-leaf path, and the shared
/// writer then mutates only those copies and the nodes it allocates. A
/// collapse returns the copies it drops to the pool at once and retires
/// the shared siblings. Every node is a slot of the tree's NodePool, whose
/// chunks never move; retired nodes go back to it through the limbo.
/// The new root is published inside a new immutable Version with one
/// atomic store; a failed operation copies and publishes nothing.
///
/// Write runs (BeginRun .. EndRun) share that work across consecutive
/// operations. A node copied or made during the run is private to it
/// (marked in its header): later operations of the run write it in
/// place and copy only the nodes of their path that are not yet private.
/// Every private node's parent is private, so the private nodes on any
/// descent path are a prefix of it. The run publishes one Version per
/// kMaxRunOps successful operations and one at EndRun, each carrying
/// the sequence, size and census of every operation before it.
/// Readers pin an epoch and load the version head (SnapshotView); from
/// then on they traverse a frozen tree that no writer will ever touch, so
/// queries never block and never see a torn state. Replaced nodes and
/// versions retire into the epoch limbo list and are freed only once no
/// pinned reader can reach them (epoch.h has the full memory-ordering
/// argument).
///
/// Each Version carries the occupancy-by-depth census at its sequence
/// number, so SnapshotView::LiveCensus() reads it in place, bitwise
/// identical to a stop-the-world census of the same prefix of
/// operations — the storm tests' core assertion.
///
/// Threading contract: Insert/Erase, BeginRun/EndRun, the writer-side
/// accessors (size, LeafCount, LiveCensus, sequence), CheckInvariants and
/// the destructor on the single writer thread; Snapshot() and everything
/// on SnapshotView from any thread. The tree must outlive every
/// SnapshotView taken from it.
template <size_t D>
class CowPrTree : public PrTreeWriter<CowPrTree<D>, CowNode<D>> {
 public:
  using PointT = geo::Point<D>;
  using BoxT = geo::Box<D>;
  static constexpr size_t kFanout = size_t{1} << D;

  /// Creates an empty tree over `bounds`. `initial_sequence` anchors the
  /// version counter — pass the WAL/checkpoint sequence the starting
  /// state reflects (0 for an empty tree) so snapshot sequence numbers
  /// line up with log sequence numbers. `epoch_readers` sizes the
  /// epoch manager's reader-slot table (concurrent pinned snapshots);
  /// the shard router sizes per-shard trees to its client budget.
  explicit CowPrTree(const BoxT& bounds, const PrTreeOptions& options = {},
                     uint64_t initial_sequence = 0,
                     size_t epoch_readers = EpochManager::kMaxReaders)
      : bounds_(bounds),
        options_(options),
        pool_(Node::SlotBytes(options.capacity)),
        epochs_(epoch_readers),
        sequence_(initial_sequence) {
    POPAN_CHECK(options_.capacity >= 1) << "capacity must be at least 1";
    root_ = NewNode();
    Version* v = new Version;
    v->root = root_;
    v->sequence = initial_sequence;
    v->census = this->census_;
    head_.store(v, std::memory_order_seq_cst);
  }

  ~CowPrTree() {
    POPAN_DCHECK(!in_run_) << "tree destroyed inside a write run";
    const Version* v = head_.load(std::memory_order_relaxed);
    this->ReleaseSpills(v->root);
    delete v;
    // epochs_'s destructor drains the limbo list into pool_, which is
    // destroyed after it and frees every slot with its chunks.
  }

  CowPrTree(const CowPrTree&) = delete;
  CowPrTree& operator=(const CowPrTree&) = delete;

  const BoxT& bounds() const { return bounds_; }
  size_t capacity() const { return options_.capacity; }
  size_t max_depth() const { return options_.max_depth; }

  /// Successful Insert/Erase calls since `initial_sequence`, counted as
  /// they land: inside a write run it runs ahead of the newest version.
  /// Writer thread only, like size() and LiveCensus().
  uint64_t sequence() const { return sequence_; }

  /// Successful operations a write run applies before it publishes a
  /// Version mid-run. The nodes the run replaces wait in the epoch limbo
  /// until it publishes, and the pool never shrinks, so this bounds the
  /// pool growth a long run (a 4096-point batch) can cause to about one
  /// union of 64 paths.
  static constexpr size_t kMaxRunOps = 64;

  /// Opens a write run (writer thread; see the class comment). Until
  /// EndRun, operations land in the writer's tree but reach snapshots
  /// only at the run's publishes.
  void BeginRun() {
    POPAN_DCHECK(!in_run_) << "write runs do not nest";
    in_run_ = true;
  }

  /// Publishes the run's unpublished operations as one Version, if it
  /// has any, and closes the run.
  void EndRun() {
    POPAN_DCHECK(in_run_) << "EndRun without BeginRun";
    PublishRun();
    in_run_ = false;
  }

  /// Scoped BeginRun/EndRun.
  class WriteRun {
   public:
    explicit WriteRun(CowPrTree* tree) : tree_(tree) { tree_->BeginRun(); }
    ~WriteRun() { tree_->EndRun(); }
    WriteRun(const WriteRun&) = delete;
    WriteRun& operator=(const WriteRun&) = delete;

   private:
    CowPrTree* tree_;
  };

  /// The reclamation machinery, exposed for storm harnesses and benches
  /// (counters from any thread; Retire/Advance/Reclaim writer-only).
  EpochManager& epochs() const { return epochs_; }

  /// The node pool (writer thread only): slot and spill-block counts.
  const NodePool<void*>& pool() const { return pool_; }

  /// Bytes of one node slot (PrNode::SlotBytes of the capacity).
  size_t SlotBytes() const { return pool_.slot_bytes(); }

  /// Points a leaf holds inside its slot before spilling (>= capacity).
  size_t LaneCapacity() const { return Root()->lane_capacity(); }

  /// Bytes the nodes hold: live slots x slot bytes, plus spill blocks.
  /// Live slots include replaced nodes still in the epoch limbo, so this
  /// equals the newest version's footprint once no reader is pinned.
  /// Writer thread only.
  size_t NodeBytes() const {
    return pool_.LiveCount() * pool_.slot_bytes() + SpillBytes();
  }

  /// Bytes held by the spill blocks of leaves that outgrew their lanes.
  size_t SpillBytes() const { return pool_.spills().bytes(); }

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

  /// A view of the newest published version for the writer thread
  /// itself. It takes no reader slot, so it cannot fail while readers
  /// hold every slot: only the writer's own writes reclaim nodes, and the
  /// view must be gone before the writer's next write to this tree.
  [[nodiscard]] SnapshotView<D> WriterSnapshot() const;

  /// Verifies the newest version against a fresh walk: structural PR
  /// invariants, cached size/leaf counts, and the per-version census
  /// histogram (SnapshotView::CheckInvariants on the head). Writer thread
  /// only.
  [[nodiscard]] Status CheckInvariants() const;

 private:
  friend class SnapshotView<D>;
  using Node = CowNode<D>;
  using Writer = PrTreeWriter<CowPrTree<D>, Node>;
  friend Writer;

  /// One published state of the tree: the version header readers pin.
  /// Immutable after the head store that publishes it.
  struct Version {
    const Node* root = nullptr;
    uint64_t sequence = 0;
    size_t size = 0;
    size_t leaf_count = 1;
    /// The writer's live census, frozen per version.
    Census census;
  };

  // ---- Node lifecycle (see PrTreeWriter): path copies, epoch retire --

  /// The writer's root: the newest version's, or the open run's.
  const Node* Root() const { return root_; }
  static const Node& NodeAt(const Node* node) { return *node; }
  /// The writer only asks for this operation's path copies and the nodes
  /// NewNode made, which no published version reaches.
  static Node& MutableNodeAt(const Node* node) {
    return const_cast<Node&>(*node);
  }
  Node* NewNode() {
    Node* node = ::new (pool_.Allocate()) Node(pool_.slot_bytes());
    node->set_run_private(in_run_);
    return node;
  }
  /// Path copies and run-private nodes were never published: their slots
  /// go back to the pool at once. Anything else may be pinned.
  void FreeNode(const Node* node, bool on_path) {
    if (on_path || node->run_private()) {
      ReclaimNode(const_cast<Node*>(node), &pool_);
    } else {
      Retire(node);
    }
  }
  SpillBlocks& Spills() { return pool_.spills(); }

  /// Hands `node` to the epoch limbo; a later Reclaim returns its slot
  /// (and spill block) to pool_.
  void Retire(const Node* node) {
    epochs_.Retire(const_cast<Node*>(node), &ReclaimNode, &pool_);
  }

  /// The limbo deleter, with the pool as its context.
  static void ReclaimNode(void* node, void* pool) {
    auto* nodes = static_cast<NodePool<void*>*>(pool);
    static_cast<Node*>(node)->clear(nodes->spills());
    nodes->Free(node);
  }

  /// Replaces every node of the descent path that is not private to the
  /// open run (all of them outside a run) with a copy from the pool,
  /// linked into its parent's copy in place of the original, and retires
  /// the originals. The top copy links into its private parent in place,
  /// or becomes the root. Leaf first: copying top-down instead slowed the
  /// 2^20-insert preload of perfbench's range_scan by ~10% (4-core x86 VM,
  /// gcc 12), through the reuse order of the retired path.
  /// Retiring ahead of the head store is safe: nothing tagged with the
  /// current epoch is reclaimed until Publish has stored the new head and
  /// advanced the epoch.
  void CopyPath(std::span<const Node*> path) {
    size_t top = 0;  // the first node on the path not private to the run
    while (top < path.size() && path[top]->run_private()) ++top;
    if (top == path.size()) {
      // A write to a private leaf: trim its spill block as a copy would,
      // so the bytes it holds match the per-op path's.
      MutableNodeAt(path.back()).TrimSpill(pool_.spills());
      return;
    }
    Node* child = nullptr;
    const Node* original = nullptr;
    for (size_t i = path.size(); i-- > 0;) {
      // Below `top` a copy; at top - 1 the private parent the top copy
      // links into. (One loop for both: gcc 12 -O3 reports a false
      // -Wstringop-overflow on a separate ReplaceChild into the parent.)
      const bool copied = i >= top;
      Node* node = copied ? NewNode() : &MutableNodeAt(path[i]);
      if (copied) {
        node->CopyFrom(*path[i], pool_.spills());
        Retire(path[i]);
      }
      if (child != nullptr) node->ReplaceChild(original, child);
      if (!copied) return;
      original = path[i];
      path[i] = node;
      child = node;
    }
  }

  /// The operation that made `new_root` the writer's root succeeded:
  /// publishes it as the next version, or inside a run counts it toward
  /// the run's next publish.
  void Publish(const Node* new_root) {
    root_ = new_root;
    ++sequence_;
    if (!in_run_) {
      PublishVersion();
    } else if (++run_ops_ == kMaxRunOps) {
      PublishRun();
    }
  }

  /// Publishes the run's operations so far, if any: clears the private
  /// marks (before the head store, so no reader ever shares a node the
  /// writer still writes) and publishes one Version.
  void PublishRun() {
    if (run_ops_ == 0) return;
    run_ops_ = 0;
    std::vector<Node*>& stack = mark_stack_;
    stack.assign(1, &MutableNodeAt(root_));
    while (!stack.empty()) {
      Node* node = stack.back();
      stack.pop_back();
      node->set_run_private(false);
      if (node->is_leaf()) continue;
      for (size_t q = 0; q < kFanout; ++q) {
        const Node* c = node->child(q);
        if (c->run_private()) stack.push_back(&MutableNodeAt(c));
      }
    }
    PublishVersion();
  }

  /// Publishes the writer's root as the next version and retires the old
  /// one. One epoch advance + reclaim attempt per publish keeps the limbo
  /// list short and the reclamation counters a pure function of the
  /// operation trace when no readers are pinned.
  void PublishVersion() {
    const Version* old = head_.load(std::memory_order_relaxed);
    Version* v = new Version;
    v->root = root_;
    v->sequence = sequence_;
    v->size = this->size_;
    v->leaf_count = this->leaf_count_;
    v->census = this->census_;
    head_.store(v, std::memory_order_seq_cst);
    epochs_.RetireObject(old);
    epochs_.AdvanceEpoch();
    epochs_.Reclaim();
  }

  BoxT bounds_;
  PrTreeOptions options_;
  // Declared before epochs_: the limbo drain in ~EpochManager returns the
  // last retired nodes to this pool.
  NodePool<void*> pool_;
  mutable EpochManager epochs_;
  std::atomic<const Version*> head_{nullptr};
  // Writer state.
  const Node* root_ = nullptr;
  uint64_t sequence_;
  bool in_run_ = false;
  size_t run_ops_ = 0;  ///< the open run's operations not yet published
  std::vector<Node*> mark_stack_;
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
  /// stop-the-world tree built from the same operation prefix. It lives
  /// in the version, so it stays valid while this view does.
  const Census& LiveCensus() const { return version_->census; }

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
  return WriterSnapshot().CheckInvariants();
}

template <size_t D>
SnapshotView<D> CowPrTree<D>::WriterSnapshot() const {
  return SnapshotView<D>(this, head_.load(std::memory_order_relaxed),
                         EpochManager::Pin());
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
