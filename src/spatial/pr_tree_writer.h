#ifndef POPAN_SPATIAL_PR_TREE_WRITER_H_
#define POPAN_SPATIAL_PR_TREE_WRITER_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"
#include "spatial/census.h"
#include "util/status.h"

namespace popan::spatial {

/// The write side of a PR tree, written once for both trees (CRTP): the
/// paper's insertion transform and its inverse. Insert descends to the
/// leaf owning the point; the leaf absorbs it, or at m+1 points splits,
/// and splits again while all m+1 land in one quadrant (probability 4^-m
/// per level). Erase swap-removes the point and collapses, bottom-up,
/// every level whose children together fit in one leaf, so the tree is
/// always the minimal decomposition of its contents.
///
/// The writer owns the size and leaf counters, the live occupancy-by-depth
/// census (O(1) cells per elementary step) and the scratch vectors.
/// Derived supplies bounds(), capacity(), max_depth() and the node
/// lifecycle (the hooks may be private, with this class a friend):
///   Child Root() const;                   the root handle
///   const Node& NodeAt(Child) const;      handle -> node
///   Node& MutableNodeAt(Child);           a node this operation may write
///   Child NewNode();                      a fresh empty leaf
///   void FreeNode(Child, bool on_path);   a node a collapse unlinked;
///                                         `on_path`: on the copied path
///   void CopyPath(std::span<Child>);      makes the descent path writable
///   void Publish(Child root);             the operation succeeded
///   SpillBlocks& Spills();                where leaves spill (node_pool.h)
///
/// CopyPath runs only once the operation is known to succeed. From then
/// on the writer writes only to the recorded path and to NewNode's nodes.
/// PrTree mutates its pooled slots in place (CopyPath and Publish do
/// nothing); CowPrTree copies the path (inside a write run, only the
/// part the run has not copied yet), so no node a published version
/// reaches is ever written.
template <typename Derived, typename Node>
class PrTreeWriter {
  static constexpr size_t kFanout = Node::kFanout;
  using PointT = geo::Point<Node::kDims>;
  using BoxT = geo::Box<Node::kDims>;

 public:
  /// Number of points stored.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Number of leaf nodes (the paper's "nodes": only leaves hold data and
  /// only leaves are counted in the population censuses).
  size_t LeafCount() const { return leaf_count_; }

  /// The live occupancy-by-depth census: the census TakeCensus walks the
  /// tree for, kept exact at O(1) cells per elementary step, so per-step
  /// censuses (and the shard balancer's per-check poll) never touch a
  /// point.
  const Census& LiveCensus() const { return census_; }

  /// Inserts `p`. Returns OutOfRange if p is outside the root block and
  /// AlreadyExists if an equal point is already stored; a failed insert
  /// writes nothing.
  [[nodiscard]] Status Insert(const PointT& p) {
    if (!self().bounds().Contains(p)) {
      return Status::OutOfRange("point outside the tree bounds");
    }
    const BoxT box = Descend(p);
    const size_t n = At(path_.back()).size();
    if (Find(p) != n) return Status::AlreadyExists("duplicate point");
    self().CopyPath(path_);
    const size_t depth = path_.size() - 1;
    census_.RemoveLeaf(n, depth);
    if (n < self().capacity() || depth >= self().max_depth()) {
      Mutable(path_.back()).push_back(p, self().Spills());
      census_.AddLeaf(n + 1, depth);
    } else {
      SplitCascade(box, depth, p);
    }
    ++size_;
    self().Publish(path_.front());
    return Status::OK();
  }

  /// Removes `p`. Returns NotFound if it is not stored; a failed erase
  /// writes nothing.
  [[nodiscard]] Status Erase(const PointT& p) {
    if (!self().bounds().Contains(p)) {
      return Status::NotFound("point outside the tree bounds");
    }
    Descend(p);
    const size_t n = At(path_.back()).size();
    const size_t found = Find(p);
    if (found == n) return Status::NotFound("point not stored");
    self().CopyPath(path_);
    const size_t depth = path_.size() - 1;
    Mutable(path_.back()).SwapRemoveAt(found, self().Spills());
    census_.RemoveLeaf(n, depth);
    census_.AddLeaf(n - 1, depth);
    --size_;
    // Deepest first. A level that fails to collapse stays internal, so no
    // shallower ancestor can have all-leaf children either: stop there.
    for (size_t level = depth; level-- > 0 && Collapse(level);) {
    }
    self().Publish(path_.front());
    return Status::OK();
  }

 protected:
  using Child = typename Node::ChildT;

  PrTreeWriter() { ResetCounters(); }

  /// Back to one empty root leaf's counters.
  void ResetCounters() {
    size_ = 0;
    leaf_count_ = 1;
    census_ = Census();
    census_.AddLeaf(0, 0);
  }

  /// Pre-sizes the scratch vectors so the hot paths never allocate.
  void ReserveScratch() {
    split_points_.reserve(self().capacity() + 1);
    split_codes_.reserve(self().capacity() + 1);
    path_.reserve(std::min<size_t>(self().max_depth() + 1, 128));
  }

  /// Turns leaf `c` into an internal node over 2^D fresh empty leaves and
  /// returns them. Their census cells are the caller's to record.
  std::array<Child, kFanout> SplitNode(Child c) {
    std::array<Child, kFanout> ch;
    for (size_t q = 0; q < kFanout; ++q) ch[q] = self().NewNode();
    Mutable(c).MakeInternal(ch, self().Spills());
    leaf_count_ += kFanout - 1;
    return ch;
  }

  /// Frees the spill blocks of every leaf under `root`, before the tree's
  /// pool (which frees the slots with its chunks) goes. A tree holding no
  /// spill block skips the walk.
  void ReleaseSpills(Child root) {
    if (self().Spills().count() == 0) return;
    std::vector<Child> stack = {root};
    while (!stack.empty()) {
      Node& node = Mutable(stack.back());
      stack.pop_back();
      if (node.is_leaf()) {
        node.clear(self().Spills());
      } else {
        for (size_t q = 0; q < kFanout; ++q) stack.push_back(node.child(q));
      }
    }
  }

  size_t size_ = 0;
  size_t leaf_count_ = 1;
  Census census_;

 private:
  Derived& self() { return static_cast<Derived&>(*this); }
  const Derived& self() const { return static_cast<const Derived&>(*this); }
  const Node& At(Child c) const { return self().NodeAt(c); }
  Node& Mutable(Child c) { return self().MutableNodeAt(c); }

  /// Records the root-to-leaf path to the leaf owning `p` in path_ and
  /// returns that leaf's block.
  BoxT Descend(const PointT& p) {
    path_.clear();
    BoxT box = self().bounds();
    Child c = self().Root();
    path_.push_back(c);
    while (!At(c).is_leaf()) {
      const size_t q = box.QuadrantOf(p);
      c = At(c).child(q);
      box = box.Quadrant(q);
      path_.push_back(c);
    }
    return box;
  }

  /// Index of `p` in the descent leaf, or the leaf's size if absent.
  size_t Find(const PointT& p) const {
    const Node& leaf = At(path_.back());
    const size_t n = leaf.size();
    for (size_t i = 0; i < n; ++i) {
      if (leaf.Matches(i, p)) return i;
    }
    return n;
  }

  /// The splitting rule fired on the full descent leaf (block `box` at
  /// `depth`, its census cell already removed) as `p` arrived. A child can
  /// exceed capacity only if it receives all m+1 points, so at most one
  /// child cascades and the cascade is a loop down one path.
  void SplitCascade(BoxT box, size_t depth, const PointT& p) {
    Child c = path_.back();
    const Node& leaf = At(c);
    split_points_.clear();
    for (size_t i = 0, n = leaf.size(); i < n; ++i) {
      split_points_.push_back(leaf.Get(i));
    }
    split_points_.push_back(p);
    for (;;) {
      const std::array<Child, kFanout> ch = SplitNode(c);
      for (size_t q = 0; q < kFanout; ++q) census_.AddLeaf(0, depth + 1);
      std::array<size_t, kFanout> counts{};
      size_t sole = kFanout;  // the quadrant holding every point, if any
      split_codes_.clear();
      for (const PointT& pt : split_points_) {
        const size_t q = box.QuadrantOf(pt);
        split_codes_.push_back(static_cast<uint8_t>(q));
        if (++counts[q] == split_points_.size()) sole = q;
      }
      if (sole != kFanout && depth + 1 < self().max_depth()) {
        c = ch[sole];
        box = box.Quadrant(sole);
        ++depth;
        census_.RemoveLeaf(0, depth);  // this fresh leaf splits next turn
        continue;
      }
      // The points scatter (or the children sit at max_depth and absorb
      // everything): place them and settle the census.
      for (size_t i = 0; i < split_points_.size(); ++i) {
        Mutable(ch[split_codes_[i]]).push_back(split_points_[i],
                                              self().Spills());
      }
      for (size_t q = 0; q < kFanout; ++q) {
        if (counts[q] != 0) {
          census_.RemoveLeaf(0, depth + 1);
          census_.AddLeaf(counts[q], depth + 1);
        }
      }
      return;
    }
  }

  /// Merges the children of the path node at `level` into it if they are
  /// all leaves holding at most `capacity` points together, appending
  /// their points in quadrant order. Returns true iff it collapsed.
  bool Collapse(size_t level) {
    const std::array<Child, kFanout> ch = At(path_[level]).Children();
    size_t total = 0;
    for (Child c : ch) {
      const Node& child = At(c);
      if (!child.is_leaf()) return false;
      total += child.size();
    }
    if (total > self().capacity()) return false;
    Node& node = Mutable(path_[level]);
    node.MakeLeaf();
    for (Child c : ch) {
      const Node& child = At(c);
      census_.RemoveLeaf(child.size(), level + 1);
      for (size_t i = 0, n = child.size(); i < n; ++i) {
        node.push_back(child.Get(i), self().Spills());
      }
      self().FreeNode(c, c == path_[level + 1]);
    }
    census_.AddLeaf(total, level);
    leaf_count_ -= kFanout - 1;
    return true;
  }

  std::vector<Child> path_;
  std::vector<PointT> split_points_;
  std::vector<uint8_t> split_codes_;
};

}  // namespace popan::spatial

#endif  // POPAN_SPATIAL_PR_TREE_WRITER_H_
