#ifndef POPAN_SPATIAL_PR_TREE_READER_H_
#define POPAN_SPATIAL_PR_TREE_READER_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
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
#include "spatial/query_cost.h"
#include "spatial/soa_buffer.h"
#include "util/check.h"
#include "util/status.h"
#include "util/statusor.h"

namespace popan::spatial {

/// One PR-tree node, shared by both trees. `Child` is how a node names its
/// children: a NodeIndex into PrTree's arena, or an immutable pointer for
/// the copy-on-write snapshot tree. A node is a leaf iff is_leaf; then
/// `points` holds its contents (structure-of-arrays, see soa_buffer.h).
/// Otherwise `children` holds 2^D handles and `points` is empty.
template <size_t D, typename Child>
struct PrNode {
  static constexpr size_t kDims = D;
  static constexpr size_t kFanout = size_t{1} << D;

  /// Points stored inline per leaf before spilling to the heap; matches
  /// the paper's largest studied capacity (m = 8).
  static constexpr size_t kInlineLeafCapacity = 8;

  using ChildT = Child;

  static constexpr Child NullChild() {
    if constexpr (std::is_pointer_v<Child>) {
      return nullptr;
    } else {
      return kNullNode;
    }
  }

  static constexpr std::array<Child, kFanout> NoChildren() {
    std::array<Child, kFanout> c{};
    c.fill(NullChild());
    return c;
  }

  bool is_leaf = true;
  std::array<Child, kFanout> children = NoChildren();
  SoaBuffer<D, kInlineLeafCapacity> points;
};

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
///   capacity(), max_depth() const;  Census LiveCensus() const;
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
  static constexpr size_t kInlineLeafCapacity = Node::kInlineLeafCapacity;

  /// True iff an equal point is stored.
  bool Contains(const PointT& p) const {
    if (!self().bounds().Contains(p)) return false;
    Child c = self().Root();
    BoxT box = self().bounds();
    while (!At(c).is_leaf) {
      size_t q = box.QuadrantOf(p);
      c = At(c).children[q];
      box = box.Quadrant(q);
    }
    const Node& leaf = At(c);
    for (size_t i = 0, n = leaf.points.size(); i < n; ++i) {
      if (leaf.points.Matches(i, p)) return true;
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
      if (node.is_leaf) {
        ++cost->leaves_touched;
        // Lane-wise point-in-box filter (SIMD past kScalarFilterMax
        // points); match order and counter arithmetic are identical to
        // the scalar per-point loop on every dispatch path.
        cost->points_scanned += node.points.size();
        ForEachInBox(node.points, query,
                     [&node, &fn](size_t i) { fn(node.points.Get(i)); });
        continue;
      }
      for (size_t q = kFanout; q-- > 0;) {
        BoxT child = f.box.Quadrant(q);
        if (child.Intersects(query)) {
          stack.push_back(WalkFrame{node.children[q], child, f.depth + 1});
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
      if (node.is_leaf) {
        ++cost->leaves_touched;
        // Equality filter on the fixed axis lane (same order and
        // counters as the scalar loop; IEEE == either way).
        cost->points_scanned += node.points.size();
        ForEachEqualOnAxis(node.points, axis, value, [&node, &fn](size_t i) {
          fn(node.points.Get(i));
        });
        continue;
      }
      for (size_t q = kFanout; q-- > 0;) {
        BoxT child = f.box.Quadrant(q);
        if (child.lo()[axis] <= value && value < child.hi()[axis]) {
          stack.push_back(WalkFrame{node.children[q], child, f.depth + 1});
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
      if (node.is_leaf) {
        ++cost->leaves_touched;
        // Deliberately scalar: the distance accumulation a*a + acc is a
        // fusable shape the compiler may contract to FMA, so a hand-SIMD
        // version could not stay bitwise identical (see util/simd.h).
        for (size_t i = 0, n = node.points.size(); i < n; ++i) {
          ++cost->points_scanned;
          const PointT p = node.points.Get(i);
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
        stack.push_back(DistFrame{node.children[q], f.box.Quadrant(q), d2});
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
      fn(box, depth, node.is_leaf, node.points.size());
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
    scratch.reserve(kInlineLeafCapacity);
    Walk([&fn, &scratch](const BoxT& box, size_t depth, const Node& node) {
      if (!node.is_leaf) return;
      scratch.clear();
      for (size_t i = 0, n = node.points.size(); i < n; ++i) {
        scratch.push_back(node.points.Get(i));
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
    const Census live = self().LiveCensus();
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
      if (node.is_leaf) continue;
      for (size_t q = kFanout; q-- > 0;) {
        stack.push_back(
            WalkFrame{node.children[q], f.box.Quadrant(q), f.depth + 1});
      }
    }
  }

  [[nodiscard]] Status CheckSubtree(Child c, const BoxT& box, size_t depth,
                                    size_t* points_seen,
                                    size_t* leaves_seen) const {
    const Node& node = At(c);
    if (node.is_leaf) {
      ++*leaves_seen;
      *points_seen += node.points.size();
      if (node.points.size() > self().capacity() &&
          depth < self().max_depth()) {
        return Status::Internal("leaf over capacity below max depth");
      }
      for (size_t i = 0, n = node.points.size(); i < n; ++i) {
        PointT p = node.points.Get(i);
        if (!box.Contains(p)) {
          return Status::Internal("point " + p.ToString() +
                                  " outside its leaf block " +
                                  box.ToString());
        }
      }
      return Status::OK();
    }
    if (!node.points.empty()) {
      return Status::Internal("internal node holds points");
    }
    const size_t before = *points_seen;
    bool all_leaf_children = true;
    for (size_t q = 0; q < kFanout; ++q) {
      if (node.children[q] == Node::NullChild()) {
        return Status::Internal("internal node with missing child");
      }
      if (!At(node.children[q]).is_leaf) all_leaf_children = false;
      POPAN_RETURN_IF_ERROR(CheckSubtree(node.children[q], box.Quadrant(q),
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
