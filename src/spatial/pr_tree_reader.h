#ifndef POPAN_SPATIAL_PR_TREE_READER_H_
#define POPAN_SPATIAL_PR_TREE_READER_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"
#include "spatial/census.h"
#include "spatial/knn_heap.h"
#include "spatial/node_arena.h"
#include "spatial/node_pool.h"
#include "spatial/query_cost.h"
#include "spatial/soa_buffer.h"
#include "util/check.h"
#include "util/status.h"
#include "util/statusor.h"

namespace popan::spatial {

/// One PR-tree node, shared by both trees and sized by the tree's
/// capacity m when the tree is built: an 8-byte header (size, inline lane
/// capacity, is_leaf, the write-run mark) followed by ONE payload region,
/// which holds
///   - the 2^D child handles, for an internal node;
///   - D inline coordinate lanes of lane_capacity() elements each (lane a
///     at payload + a * lane_capacity()), for a leaf of at most
///     lane_capacity() points. lane_capacity() = payload bytes / (8 * D)
///     >= m, so leaves use any slack: snapshot leaves at m = 1 hold 2
///     points;
///   - or, for a leaf that outgrew its lanes, a spill-block pointer and
///     the block's lane capacity: ONE heap block holding all D lanes back
///     to back (lane a at a * block lanes), grown geometrically.
///
/// The storage mode is a function of size alone: inline iff
/// size() <= lane_capacity(), so a leaf spills exactly when it holds more
/// than lane_capacity() points. While m <= kMaxLanes that happens only at
/// max_depth, where leaves absorb overflow; past kMaxLanes, a leaf at any
/// depth may hold up to m > lane_capacity() points and spill. A node is
/// never both a leaf and an internal node, so the two share the payload:
/// SlotBytes(4) is 72 B in both trees at D = 2, and bytes per point =
/// nodes per point x SlotBytes(m).
///
/// `Child` is how a node names its children: a NodeIndex into PrTree's
/// pool, or an immutable pointer for the copy-on-write snapshot tree.
/// Nodes live in NodePool slots and are never copied as C++ objects:
/// CopyFrom copies a slot's contents, and a copy of a spilled leaf holds
/// exactly size() elements per lane (the snapshot tree copies a leaf on
/// every write into it, so copies must not inherit spare capacity). The
/// mutators that can allocate or free a spill block take the pool's
/// SpillBlocks.
template <size_t D, typename Child>
class PrNode {
  struct Spill {
    double* block;
    size_t lanes;
  };

 public:
  static constexpr size_t kDims = D;
  static constexpr size_t kFanout = size_t{1} << D;
  static constexpr size_t kHeaderBytes = 8;
  /// Inline lanes stop growing with m here: capacities far past the
  /// paper's range (m <= 8) spill their larger leaves instead of making
  /// every slot, internal ones included, as large as a leaf.
  static constexpr size_t kMaxLanes = 64;

  using ChildT = Child;
  using PointT = geo::Point<D>;

  /// Bytes of one slot at capacity m: the header plus the largest of the
  /// child array, D lanes of m doubles, and a spill reference.
  static constexpr size_t SlotBytes(size_t capacity) {
    return kHeaderBytes +
           std::max({kFanout * sizeof(Child),
                     sizeof(double) * D * std::min(capacity, kMaxLanes),
                     sizeof(Spill)});
  }

  static constexpr Child NullChild() {
    if constexpr (std::is_pointer_v<Child>) {
      return nullptr;
    } else {
      return kNullNode;
    }
  }

  /// Formats a raw slot of `slot_bytes` bytes as an empty leaf.
  explicit PrNode(size_t slot_bytes)
      : lanes_(static_cast<uint16_t>((slot_bytes - kHeaderBytes) /
                                     (sizeof(double) * D))) {}
  PrNode(const PrNode&) = delete;
  PrNode& operator=(const PrNode&) = delete;

  bool is_leaf() const { return is_leaf_; }

  /// Points held (0 for an internal node).
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Points per lane that fit inside the slot.
  size_t lane_capacity() const { return lanes_; }

  /// True when the lanes live in a spill block.
  bool spilled() const { return size_ > lanes_; }

  /// Elements per lane the spill block holds (0 when inline).
  size_t spill_lanes() const { return spilled() ? spill().lanes : 0; }

  /// The snapshot tree's mark for a node private to the open write run
  /// (CowPrTree::BeginRun): a copy or fresh node no published version
  /// reaches. Kept in the header's spare byte; CopyFrom leaves it alone.
  bool run_private() const { return run_private_; }
  void set_run_private(bool run_private) { run_private_ = run_private; }

  /// The contiguous lane for `axis` (size() readable elements).
  const double* lane(size_t axis) const {
    POPAN_DCHECK(axis < D);
    if (!spilled()) return InlineLanes() + axis * lanes_;
    const Spill s = spill();
    return s.block + axis * s.lanes;
  }

  double At(size_t axis, size_t i) const {
    POPAN_DCHECK(i < size_);
    return lane(axis)[i];
  }

  /// Reassembles point i from the lanes (the storage of record).
  PointT Get(size_t i) const {
    POPAN_DCHECK(i < size_);
    PointT p;
    for (size_t a = 0; a < D; ++a) p[a] = lane(a)[i];
    return p;
  }

  /// True iff point i equals `p` on every axis (IEEE ==, the same test
  /// Point::operator== performs).
  bool Matches(size_t i, const PointT& p) const {
    POPAN_DCHECK(i < size_);
    for (size_t a = 0; a < D; ++a) {
      if (lane(a)[i] != p[a]) return false;
    }
    return true;
  }

  Child child(size_t q) const {
    POPAN_DCHECK(!is_leaf_ && q < kFanout);
    Child c;
    std::memcpy(&c, Payload() + q * sizeof(Child), sizeof(Child));
    return c;
  }

  std::array<Child, kFanout> Children() const {
    POPAN_DCHECK(!is_leaf_);
    std::array<Child, kFanout> ch;
    std::memcpy(ch.data(), Payload(), sizeof(ch));
    return ch;
  }

  // ---- Writer side ----------------------------------------------------

  void push_back(const PointT& p, SpillBlocks& spills) {
    POPAN_DCHECK(is_leaf_);
    if (size_ < lanes_) {
      double* lanes = MutableInlineLanes();
      for (size_t a = 0; a < D; ++a) lanes[a * lanes_ + size_] = p[a];
      ++size_;
      return;
    }
    if (size_ == lanes_) {
      // Crossing the inline threshold: move every lane into a block.
      Regrow(size_t{lanes_} + 1, spills);
    } else if (size_ == spill().lanes) {
      Regrow(2 * size_t{size_}, spills);
    }
    const Spill s = spill();
    for (size_t a = 0; a < D; ++a) s.block[a * s.lanes + size_] = p[a];
    ++size_;
  }

  /// Removes point i by swapping the last point into its place. Falling
  /// back to lane_capacity() points moves the lanes inline and frees the
  /// block: the payload has no room to keep it.
  void SwapRemoveAt(size_t i, SpillBlocks& spills) {
    POPAN_DCHECK(i < size_);
    for (size_t a = 0; a < D; ++a) {
      double* l = MutableLane(a);
      l[i] = l[size_ - 1];
    }
    --size_;
    if (size_ == lanes_) {
      const Spill s = spill();  // read before the lanes overwrite it
      for (size_t a = 0; a < D; ++a) {
        std::copy_n(s.block + a * s.lanes, size_t{size_},
                    MutableInlineLanes() + a * lanes_);
      }
      spills.Free(s.block, D * s.lanes);
    }
  }

  /// Empties the leaf and frees its block, if it has one. Also run before
  /// a node's slot goes back to its pool (a no-op on internal nodes).
  void clear(SpillBlocks& spills) {
    if (spilled()) {
      const Spill s = spill();
      spills.Free(s.block, D * s.lanes);
    }
    size_ = 0;
  }

  /// Turns this leaf into an internal node over `children`.
  void MakeInternal(const std::array<Child, kFanout>& children,
                    SpillBlocks& spills) {
    clear(spills);
    is_leaf_ = false;
    std::memcpy(MutablePayload(), children.data(), sizeof(children));
  }

  /// Turns this internal node into an empty leaf.
  void MakeLeaf() {
    POPAN_DCHECK(!is_leaf_);
    is_leaf_ = true;
    size_ = 0;
  }

  /// Points the child slot holding `from` at `to`.
  void ReplaceChild(Child from, Child to) {
    for (size_t q = 0; q < kFanout; ++q) {
      if (child(q) == from) {
        std::memcpy(MutablePayload() + q * sizeof(Child), &to, sizeof(Child));
        return;
      }
    }
    POPAN_CHECK(false) << "not a child of this node";
  }

  /// Moves a spilled leaf's points into a block of exactly size()
  /// elements per lane, as CopyFrom would: the spill bytes a leaf holds
  /// then do not depend on whether its last write copied it.
  void TrimSpill(SpillBlocks& spills) {
    if (spilled() && spill().lanes != size_) Regrow(size_, spills);
  }

  /// Makes this fresh node (an empty leaf in a slot of the same size) a
  /// copy of `other`. A spilled leaf's copy gets a block of exactly
  /// size() elements per lane.
  void CopyFrom(const PrNode& other, SpillBlocks& spills) {
    POPAN_DCHECK(lanes_ == other.lanes_ && is_leaf_ && size_ == 0);
    is_leaf_ = other.is_leaf_;
    size_ = other.size_;
    if (!is_leaf_) {
      std::memcpy(MutablePayload(), other.Payload(), kFanout * sizeof(Child));
      return;
    }
    if (spilled()) SetSpill(Spill{spills.Allocate(D * size_), size_});
    for (size_t a = 0; a < D; ++a) {
      std::copy_n(other.lane(a), size_t{size_}, MutableLane(a));
    }
  }

 private:
  const std::byte* Payload() const {
    return reinterpret_cast<const std::byte*>(this) + kHeaderBytes;
  }
  std::byte* MutablePayload() {
    return reinterpret_cast<std::byte*>(this) + kHeaderBytes;
  }
  const double* InlineLanes() const {
    return reinterpret_cast<const double*>(Payload());
  }
  double* MutableInlineLanes() {
    return reinterpret_cast<double*>(MutablePayload());
  }

  Spill spill() const {
    Spill s;
    std::memcpy(&s, Payload(), sizeof(s));
    return s;
  }
  void SetSpill(const Spill& s) {
    std::memcpy(MutablePayload(), &s, sizeof(s));
  }

  double* MutableLane(size_t axis) {
    if (!spilled()) return MutableInlineLanes() + axis * lanes_;
    const Spill s = spill();
    return s.block + axis * s.lanes;
  }

  /// Moves the size() points into a fresh block of `lanes` elements per
  /// lane (lane offsets change with the capacity, so this is a per-lane
  /// copy) and frees the old block, if any.
  void Regrow(size_t lanes, SpillBlocks& spills) {
    const Spill grown{spills.Allocate(D * lanes), lanes};
    for (size_t a = 0; a < D; ++a) {
      std::copy_n(lane(a), size_t{size_}, grown.block + a * lanes);
    }
    if (spilled()) {
      const Spill old = spill();
      spills.Free(old.block, D * old.lanes);
    }
    SetSpill(grown);
  }

  uint32_t size_ = 0;
  uint16_t lanes_;
  bool is_leaf_ = true;
  bool run_private_ = false;
};

// The payload starts kHeaderBytes past the node, so the members must fit.
static_assert(sizeof(PrNode<2, const void*>) ==
              PrNode<2, const void*>::kHeaderBytes);

/// The read side of a PR tree, written once for both trees (CRTP):
/// PrTree (arena indices, mutable) and SnapshotView (pointers into an
/// immutable CowPrTree version) derive from it and supply how a child
/// handle resolves to a node. Every traversal is a pure const walk, so
/// the visit orders, results and QueryCost counters of the two trees are
/// identical by construction for the same point set.
///
/// Derived must provide (the first two may be private, with this class
/// a friend):
///   Child Root() const;                  the root handle
///   const Node& NodeAt(Child) const;     handle -> node
///   const BoxT& bounds() const;  size_t size(), LeafCount(),
///   capacity(), max_depth() const;  const Census& LiveCensus() const;
///
/// Traversals are iterative (explicit stacks, children pushed in reverse
/// so quadrant 0 pops first: preorder Z order) and allocation-local, so
/// concurrent calls on a shared const tree are safe and deep trees cannot
/// overflow the call stack.
template <typename Derived, typename Node>
class PrTreeReader {
 public:
  static constexpr size_t kDims = Node::kDims;
  using PointT = geo::Point<kDims>;
  using BoxT = geo::Box<kDims>;
  static constexpr size_t kFanout = Node::kFanout;

  /// True iff an equal point is stored.
  bool Contains(const PointT& p) const {
    if (!self().bounds().Contains(p)) return false;
    Child c = self().Root();
    BoxT box = self().bounds();
    while (!At(c).is_leaf()) {
      size_t q = box.QuadrantOf(p);
      c = At(c).child(q);
      box = box.Quadrant(q);
    }
    const Node& leaf = At(c);
    for (size_t i = 0, n = leaf.size(); i < n; ++i) {
      if (leaf.Matches(i, p)) return true;
    }
    return false;
  }

  /// Returns all stored points inside `query` (half-open box semantics).
  std::vector<PointT> RangeQuery(const BoxT& query) const {
    std::vector<PointT> out;
    QueryCost cost;
    RangeQueryVisit(query, &cost, [&out](const PointT& p) {
      out.push_back(p);
    });
    return out;
  }

  /// Cost-counted orthogonal range search: calls fn(point) for every
  /// stored point inside `query` (half-open box semantics), in preorder
  /// quadrant order. A node is counted in nodes_visited iff its block
  /// intersects the query; rejected children count in pruned_subtrees.
  template <typename Fn>
  void RangeQueryVisit(const BoxT& query, QueryCost* cost, Fn fn) const {
    POPAN_DCHECK(cost != nullptr);
    if (!self().bounds().Intersects(query)) {
      ++cost->pruned_subtrees;
      return;
    }
    std::vector<WalkFrame> stack;
    stack.reserve(kWalkStackHint);
    stack.push_back(WalkFrame{self().Root(), self().bounds(), 0});
    while (!stack.empty()) {
      WalkFrame f = stack.back();
      stack.pop_back();
      ++cost->nodes_visited;
      const Node& node = At(f.child);
      if (node.is_leaf()) {
        ++cost->leaves_touched;
        // Lane-wise point-in-box filter (SIMD past kScalarFilterMax
        // points); match order and counter arithmetic are identical to
        // the scalar per-point loop on every dispatch path.
        cost->points_scanned += node.size();
        ForEachInBox(node, query,
                     [&node, &fn](size_t i) { fn(node.Get(i)); });
        continue;
      }
      for (size_t q = kFanout; q-- > 0;) {
        BoxT child = f.box.Quadrant(q);
        if (child.Intersects(query)) {
          stack.push_back(WalkFrame{node.child(q), child, f.depth + 1});
        } else {
          ++cost->pruned_subtrees;
        }
      }
    }
  }

  /// Cost-counted partial-match search: fixes coordinate `axis` to
  /// `value` and calls fn(point) for every stored point with
  /// point[axis] == value. Traverses exactly the blocks whose axis
  /// interval contains `value` under the half-open rule
  /// (lo[axis] <= value < hi[axis]); with random real-valued data the
  /// result set is almost surely empty and the traversal cost IS the
  /// measurement (the paper-adjacent N^((sqrt(17)-3)/2) law).
  template <typename Fn>
  void PartialMatchVisit(size_t axis, double value, QueryCost* cost,
                         Fn fn) const {
    POPAN_CHECK(axis < kDims);
    POPAN_DCHECK(cost != nullptr);
    const BoxT& bounds = self().bounds();
    if (value < bounds.lo()[axis] || value >= bounds.hi()[axis]) {
      ++cost->pruned_subtrees;
      return;
    }
    std::vector<WalkFrame> stack;
    stack.reserve(kWalkStackHint);
    stack.push_back(WalkFrame{self().Root(), bounds, 0});
    while (!stack.empty()) {
      WalkFrame f = stack.back();
      stack.pop_back();
      ++cost->nodes_visited;
      const Node& node = At(f.child);
      if (node.is_leaf()) {
        ++cost->leaves_touched;
        // Equality filter on the fixed axis lane (same order and
        // counters as the scalar loop; IEEE == either way).
        cost->points_scanned += node.size();
        ForEachEqualOnAxis(node, axis, value, [&node, &fn](size_t i) {
          fn(node.Get(i));
        });
        continue;
      }
      for (size_t q = kFanout; q-- > 0;) {
        BoxT child = f.box.Quadrant(q);
        if (child.lo()[axis] <= value && value < child.hi()[axis]) {
          stack.push_back(WalkFrame{node.child(q), child, f.depth + 1});
        } else {
          ++cost->pruned_subtrees;
        }
      }
    }
  }

  /// Returns the stored point nearest to `target` (Euclidean metric), or
  /// NotFound on an empty tree.
  [[nodiscard]] StatusOr<PointT> Nearest(const PointT& target) const {
    if (self().size() == 0) return Status::NotFound("tree is empty");
    std::vector<PointT> best = NearestK(target, 1);
    POPAN_CHECK(!best.empty());
    return best[0];
  }

  /// Returns the k stored points nearest to `target`, ascending by the
  /// canonical (distance, x, y) key (fewer if the tree holds fewer than
  /// k). k must be >= 1.
  std::vector<PointT> NearestK(const PointT& target, size_t k) const {
    QueryCost cost;
    return NearestK(target, k, &cost);
  }

  /// Cost-counted k-nearest-neighbor search. Iterative depth-first
  /// descent with children pushed far-to-near, so the nearest subtree is
  /// explored first and the pruning radius (the current k-th best
  /// distance) tightens as early as possible. Subtrees cut off by the
  /// radius test — at push or at pop, as the radius shrinks between the
  /// two — count in pruned_subtrees. Equal-distance ties resolve by the
  /// canonical coordinate order (knn_heap.h), so the result is
  /// independent of traversal order and identical across backends.
  std::vector<PointT> NearestK(const PointT& target, size_t k,
                               QueryCost* cost) const {
    POPAN_CHECK(k >= 1);
    POPAN_DCHECK(cost != nullptr);
    KnnHeap<PointT, PointTieLess> heap(k);
    std::vector<DistFrame> stack;
    stack.reserve(kWalkStackHint);
    stack.push_back(DistFrame{self().Root(), self().bounds(),
                              self().bounds().DistanceSquaredTo(target)});
    while (!stack.empty()) {
      DistFrame f = stack.back();
      stack.pop_back();
      if (heap.ShouldPrune(f.d2)) {
        ++cost->pruned_subtrees;
        continue;
      }
      ++cost->nodes_visited;
      const Node& node = At(f.child);
      if (node.is_leaf()) {
        ++cost->leaves_touched;
        // Deliberately scalar: the distance accumulation a*a + acc is a
        // fusable shape the compiler may contract to FMA, so a hand-SIMD
        // version could not stay bitwise identical (see util/simd.h).
        for (size_t i = 0, n = node.size(); i < n; ++i) {
          ++cost->points_scanned;
          const PointT p = node.Get(i);
          heap.Offer(p.DistanceSquared(target), p);
        }
        continue;
      }
      std::array<std::pair<double, size_t>, kFanout> order;
      for (size_t q = 0; q < kFanout; ++q) {
        order[q] = {f.box.Quadrant(q).DistanceSquaredTo(target), q};
      }
      std::sort(order.begin(), order.end());
      // Far-to-near onto the LIFO stack; the nearest child pops first.
      for (size_t i = kFanout; i-- > 0;) {
        const auto& [d2, q] = order[i];
        if (heap.ShouldPrune(d2)) {
          ++cost->pruned_subtrees;
          continue;
        }
        stack.push_back(DistFrame{node.child(q), f.box.Quadrant(q), d2});
      }
    }
    return heap.TakeSorted();
  }

  /// Calls fn(box, depth, occupancy) for every leaf in preorder (children
  /// in quadrant order). Depth of the root is 0; a leaf's block area is
  /// bounds.Volume() / 2^(D*depth).
  template <typename Fn>
  void VisitLeaves(Fn fn) const {
    VisitAllNodes([&fn](const BoxT& box, size_t depth, bool is_leaf,
                        size_t occupancy) {
      if (is_leaf) fn(box, depth, occupancy);
    });
  }

  /// Calls fn(box, depth, is_leaf, occupancy) for every node, preorder.
  template <typename Fn>
  void VisitAllNodes(Fn fn) const {
    Walk([&fn](const BoxT& box, size_t depth, const Node& node) {
      fn(box, depth, node.is_leaf(), node.size());
    });
  }

  /// Calls fn(box, depth, std::span<const PointT>) for every leaf in
  /// preorder (children in quadrant order — Z order), exposing the points.
  /// The span is assembled from the leaf's coordinate lanes into a
  /// traversal-local scratch buffer and is valid only for the duration of
  /// the callback.
  template <typename Fn>
  void VisitLeavesPoints(Fn fn) const {
    std::vector<PointT> scratch;
    Walk([&fn, &scratch](const BoxT& box, size_t depth, const Node& node) {
      if (!node.is_leaf()) return;
      scratch.clear();
      for (size_t i = 0, n = node.size(); i < n; ++i) {
        scratch.push_back(node.Get(i));
      }
      fn(box, depth, std::span<const PointT>(scratch.data(), scratch.size()));
    });
  }

  /// Returns every stored point, in Z order of leaves.
  std::vector<PointT> AllPoints() const {
    std::vector<PointT> out;
    out.reserve(self().size());
    VisitLeavesPoints(
        [&out](const BoxT&, size_t, std::span<const PointT> pts) {
          out.insert(out.end(), pts.begin(), pts.end());
        });
    return out;
  }

  /// Verifies structural invariants; returns Internal on violation:
  ///  - every leaf holds at most `capacity` points unless at max_depth;
  ///  - every internal node has 2^D children and holds no points;
  ///  - every point lies inside its leaf's block;
  ///  - no internal node's subtree fits within `capacity` (minimality);
  ///  - cached size / leaf counts match reality;
  ///  - the live census matches a fresh walk of the tree.
  [[nodiscard]] Status CheckInvariants() const {
    size_t points_seen = 0;
    size_t leaves_seen = 0;
    POPAN_RETURN_IF_ERROR(CheckSubtree(self().Root(), self().bounds(), 0,
                                       &points_seen, &leaves_seen));
    if (points_seen != self().size()) {
      return Status::Internal("size mismatch: counted " +
                              std::to_string(points_seen) + " cached " +
                              std::to_string(self().size()));
    }
    if (leaves_seen != self().LeafCount()) {
      return Status::Internal("leaf count mismatch");
    }
    const Census& live = self().LiveCensus();
    const Census walked = TakeCensus(self());
    if (live != walked) {
      return Status::Internal("live census drift: walked " +
                              walked.ToString() + " live " + live.ToString());
    }
    return Status::OK();
  }

 private:
  using Child = typename Node::ChildT;

  /// Explicit-stack frame for the traversal methods.
  struct WalkFrame {
    Child child;
    BoxT box;
    uint32_t depth;
  };
  /// Frame for the best-first k-NN descent: the block's distance² to the
  /// target is computed at push time and re-checked at pop time, because
  /// the pruning radius may have shrunk in between.
  struct DistFrame {
    Child child;
    BoxT box;
    double d2;
  };
  static constexpr size_t kWalkStackHint = 64;

  const Derived& self() const { return static_cast<const Derived&>(*this); }
  const Node& At(Child c) const { return self().NodeAt(c); }

  /// fn(box, depth, node) for every node, preorder in quadrant order.
  template <typename Fn>
  void Walk(Fn&& fn) const {
    std::vector<WalkFrame> stack;
    stack.reserve(kWalkStackHint);
    stack.push_back(WalkFrame{self().Root(), self().bounds(), 0});
    while (!stack.empty()) {
      WalkFrame f = stack.back();
      stack.pop_back();
      const Node& node = At(f.child);
      fn(f.box, static_cast<size_t>(f.depth), node);
      if (node.is_leaf()) continue;
      for (size_t q = kFanout; q-- > 0;) {
        stack.push_back(
            WalkFrame{node.child(q), f.box.Quadrant(q), f.depth + 1});
      }
    }
  }

  [[nodiscard]] Status CheckSubtree(Child c, const BoxT& box, size_t depth,
                                    size_t* points_seen,
                                    size_t* leaves_seen) const {
    const Node& node = At(c);
    if (node.is_leaf()) {
      ++*leaves_seen;
      *points_seen += node.size();
      if (node.size() > self().capacity() &&
          depth < self().max_depth()) {
        return Status::Internal("leaf over capacity below max depth");
      }
      for (size_t i = 0, n = node.size(); i < n; ++i) {
        PointT p = node.Get(i);
        if (!box.Contains(p)) {
          return Status::Internal("point " + p.ToString() +
                                  " outside its leaf block " +
                                  box.ToString());
        }
      }
      return Status::OK();
    }
    if (!node.empty()) {
      return Status::Internal("internal node holds points");
    }
    const size_t before = *points_seen;
    bool all_leaf_children = true;
    for (size_t q = 0; q < kFanout; ++q) {
      if (node.child(q) == Node::NullChild()) {
        return Status::Internal("internal node with missing child");
      }
      if (!At(node.child(q)).is_leaf()) all_leaf_children = false;
      POPAN_RETURN_IF_ERROR(CheckSubtree(node.child(q), box.Quadrant(q),
                                         depth + 1, points_seen,
                                         leaves_seen));
    }
    // Minimality: an internal node whose whole subtree fits in a leaf
    // should have been collapsed (PR trees are canonical for a point set).
    const size_t subtree_points = *points_seen - before;
    if (subtree_points <= self().capacity() && all_leaf_children) {
      return Status::Internal("non-minimal decomposition: " +
                              std::to_string(subtree_points) +
                              " points under an internal node");
    }
    return Status::OK();
  }
};

}  // namespace popan::spatial

#endif  // POPAN_SPATIAL_PR_TREE_READER_H_
