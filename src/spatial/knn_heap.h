#ifndef POPAN_SPATIAL_KNN_HEAP_H_
#define POPAN_SPATIAL_KNN_HEAP_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

namespace popan::spatial {

/// Canonical order for domain points: lexicographic by coordinates. It
/// breaks k-NN distance ties and orders range and partial-match results
/// (query::CanonicalizePointOrder).
struct PointTieLess {
  template <typename PointT>
  bool operator()(const PointT& a, const PointT& b) const {
    for (size_t i = 0; i < PointT::kDimension; ++i) {
      if (a[i] != b[i]) return a[i] < b[i];
    }
    return false;
  }
};

/// The canonical k-nearest accumulator shared by every backend's
/// NearestK. Candidates are totally ordered by the lexicographic key
/// (distance², tie-break), where the tie-break is the backend's canonical
/// item order — (x, y) for domain points, (ix, iy) for MX lattice cells,
/// the id for PMR segments. Equal-distance ties therefore resolve
/// identically no matter what order a backend discovers candidates in,
/// which is what makes k-NN results backend-independent (and the query
/// server's responses byte-stable across backends).
///
/// Pruning contract: a block whose squared distance to the target is d
/// may be skipped iff ShouldPrune(d) — *strictly* greater than the
/// current k-th worst distance. Equality must descend: the block can
/// still hold an equal-distance candidate that wins its tie under the
/// canonical order.
template <typename Item, typename TieLess = std::less<Item>>
class KnnHeap {
 public:
  explicit KnnHeap(size_t k, TieLess tie = TieLess())
      : k_(k), tie_(tie) {
    heap_.reserve(k);
  }

  /// The current k-th worst squared distance; +infinity until k
  /// candidates are held. Exposed for cost accounting and diagnostics —
  /// pruning must go through ShouldPrune, which is strict.
  double WorstDistance2() const {
    return heap_.size() < k_ ? std::numeric_limits<double>::infinity()
                             : heap_.front().d2;
  }

  /// True iff a block at squared distance `d2` cannot contain a winning
  /// candidate.
  bool ShouldPrune(double d2) const {
    return heap_.size() == k_ && d2 > heap_.front().d2;
  }

  /// Offers a candidate; keeps it iff the heap is not yet full or it
  /// beats the current worst under the canonical (distance², tie) key.
  void Offer(double d2, const Item& item) {
    EntryLess less{tie_};
    if (heap_.size() < k_) {
      heap_.push_back(Entry{d2, item});
      std::push_heap(heap_.begin(), heap_.end(), less);
      return;
    }
    const Entry& worst = heap_.front();
    if (d2 > worst.d2 ||
        (d2 == worst.d2 && !tie_(item, worst.item))) {
      return;
    }
    std::pop_heap(heap_.begin(), heap_.end(), less);
    heap_.back() = Entry{d2, item};
    std::push_heap(heap_.begin(), heap_.end(), less);
  }

  size_t size() const { return heap_.size(); }

  /// The accumulated items, ascending by the canonical key.
  std::vector<Item> TakeSorted() {
    std::sort(heap_.begin(), heap_.end(), EntryLess{tie_});
    std::vector<Item> out;
    out.reserve(heap_.size());
    for (const Entry& e : heap_) out.push_back(e.item);
    return out;
  }

 private:
  struct Entry {
    double d2;
    Item item;
  };
  // Max-heap order: the front is the largest canonical key — the worst
  // held candidate, which is both the eviction victim and the bound the
  // pruning radius derives from.
  struct EntryLess {
    TieLess tie;
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.d2 != b.d2) return a.d2 < b.d2;
      return tie(a.item, b.item);
    }
  };

  size_t k_;
  TieLess tie_;
  std::vector<Entry> heap_;
};

}  // namespace popan::spatial

#endif  // POPAN_SPATIAL_KNN_HEAP_H_
