#include "query/query.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "spatial/knn_heap.h"
#include "spatial/morton.h"
#include "spatial/soa_buffer.h"
#include "util/simd.h"
#include "util/text_io.h"

namespace popan::query {

namespace {

/// Shared dispatch for the five backends whose visitors speak domain
/// points directly (PR quadtree, point quadtree, linear PR quadtree, grid
/// file, EXCELL) — they expose the same RangeQueryVisit / PartialMatchVisit
/// / NearestK shape.
template <typename Backend>
QueryResult ExecutePointBackend(const Backend& backend,
                                const QuerySpec& spec) {
  QueryResult result;
  switch (spec.kind) {
    case QueryKind::kRange:
      backend.RangeQueryVisit(spec.range, &result.cost,
                              [&result](const geo::Point2& p) {
                                result.points.push_back(p);
                              });
      CanonicalizePointOrder(&result.points);
      break;
    case QueryKind::kPartialMatch:
      backend.PartialMatchVisit(spec.axis, spec.value, &result.cost,
                                [&result](const geo::Point2& p) {
                                  result.points.push_back(p);
                                });
      CanonicalizePointOrder(&result.points);
      break;
    case QueryKind::kNearestK:
      result.points = backend.NearestK(spec.target, spec.k, &result.cost);
      break;
  }
  return result;
}

}  // namespace

std::string QueryKindToString(QueryKind kind) {
  switch (kind) {
    case QueryKind::kRange:
      return "range";
    case QueryKind::kPartialMatch:
      return "partial-match";
    case QueryKind::kNearestK:
      return "nearest-k";
  }
  return "unknown";
}

QuerySpec QuerySpec::Range(const geo::Box2& box) {
  QuerySpec spec;
  spec.kind = QueryKind::kRange;
  spec.range = box;
  return spec;
}

QuerySpec QuerySpec::PartialMatch(size_t axis, double value) {
  POPAN_CHECK(axis < 2);
  QuerySpec spec;
  spec.kind = QueryKind::kPartialMatch;
  spec.axis = axis;
  spec.value = value;
  return spec;
}

QuerySpec QuerySpec::NearestK(const geo::Point2& target, size_t k) {
  POPAN_CHECK(k >= 1);
  QuerySpec spec;
  spec.kind = QueryKind::kNearestK;
  spec.target = target;
  spec.k = k;
  return spec;
}

std::string QuerySpec::ToString() const {
  std::ostringstream os;
  os << QueryKindToString(kind);
  switch (kind) {
    case QueryKind::kRange:
      os << " " << range.ToString();
      break;
    case QueryKind::kPartialMatch:
      os << " axis=" << axis << " value=" << value;
      break;
    case QueryKind::kNearestK:
      os << " target=" << target.ToString() << " k=" << k;
      break;
  }
  return os.str();
}

void CanonicalizePointOrder(std::vector<geo::Point2>* points) {
  std::sort(points->begin(), points->end(), spatial::PointTieLess());
}

uint64_t ChecksumResult(uint64_t h, const QueryResult& r) {
  h = Fnv1aU64(h, r.points.size());
  for (const geo::Point2& p : r.points) {
    h = Fnv1aU64(h, std::bit_cast<uint64_t>(p.x()));
    h = Fnv1aU64(h, std::bit_cast<uint64_t>(p.y()));
  }
  h = Fnv1aU64(h, r.ids.size());
  for (uint32_t id : r.ids) h = Fnv1aU64(h, id);
  h = Fnv1aU64(h, r.cost.nodes_visited);
  h = Fnv1aU64(h, r.cost.leaves_touched);
  h = Fnv1aU64(h, r.cost.points_scanned);
  h = Fnv1aU64(h, r.cost.pruned_subtrees);
  return h;
}

QueryResult Execute(const spatial::PrQuadtree& tree, const QuerySpec& spec) {
  return ExecutePointBackend(tree, spec);
}

QueryResult Execute(const spatial::PointQuadtree& tree,
                    const QuerySpec& spec) {
  return ExecutePointBackend(tree, spec);
}

QueryResult Execute(const spatial::LinearPrQuadtree& tree,
                    const QuerySpec& spec) {
  return ExecutePointBackend(tree, spec);
}

QueryResult Execute(const spatial::SnapshotView2& snapshot,
                    const QuerySpec& spec) {
  return ExecutePointBackend(snapshot, spec);
}

QueryResult Execute(const spatial::GridFile& grid, const QuerySpec& spec) {
  return ExecutePointBackend(grid, spec);
}

QueryResult Execute(const spatial::Excell& excell, const QuerySpec& spec) {
  return ExecutePointBackend(excell, spec);
}

QueryResult Execute(const spatial::PmrQuadtree& tree, const QuerySpec& spec) {
  QueryResult result;
  switch (spec.kind) {
    case QueryKind::kRange:
      tree.RangeQueryVisit(spec.range, &result.cost, [&result](uint32_t id) {
        result.ids.push_back(id);
      });
      std::sort(result.ids.begin(), result.ids.end());
      break;
    case QueryKind::kPartialMatch:
      tree.PartialMatchVisit(spec.axis, spec.value, &result.cost,
                             [&result](uint32_t id) {
                               result.ids.push_back(id);
                             });
      std::sort(result.ids.begin(), result.ids.end());
      break;
    case QueryKind::kNearestK:
      result.ids = tree.NearestK(spec.target, spec.k, &result.cost);
      break;
  }
  return result;
}

QueryResult Execute(const MxBackend& backend, const QuerySpec& spec) {
  POPAN_CHECK(backend.tree != nullptr);
  const spatial::MxQuadtree& tree = *backend.tree;
  const geo::Box2& domain = backend.domain;
  const double wx = backend.CellWidthX();
  const double wy = backend.CellWidthY();
  const uint32_t side = static_cast<uint32_t>(tree.side());
  QueryResult result;
  switch (spec.kind) {
    case QueryKind::kRange: {
      // Cell (ix, iy) matches iff its representative point lies in the
      // half-open query box: ix >= (lo - domain.lo)/w and ix < (hi -
      // domain.lo)/w, i.e. the ceil of each bound.
      auto lower_cell = [side](double f) {
        if (f <= 0.0) return uint32_t{0};
        double c = std::ceil(f);
        if (c >= static_cast<double>(side)) return side;
        return static_cast<uint32_t>(c);
      };
      uint32_t x0 = lower_cell((spec.range.lo().x() - domain.lo().x()) / wx);
      uint32_t y0 = lower_cell((spec.range.lo().y() - domain.lo().y()) / wy);
      uint32_t x1 = lower_cell((spec.range.hi().x() - domain.lo().x()) / wx);
      uint32_t y1 = lower_cell((spec.range.hi().y() - domain.lo().y()) / wy);
      if (x0 >= x1 || y0 >= y1) {
        ++result.cost.pruned_subtrees;
        break;
      }
      tree.RangeQueryVisit(x0, y0, x1, y1, &result.cost,
                           [&result, &backend](uint32_t x, uint32_t y) {
                             result.points.push_back(
                                 backend.PointOfCell(x, y));
                           });
      CanonicalizePointOrder(&result.points);
      break;
    }
    case QueryKind::kPartialMatch: {
      const double w = spec.axis == 0 ? wx : wy;
      const double f = (spec.value - domain.lo()[spec.axis]) / w;
      // Stored points all sit on the lattice, so an off-lattice value (or
      // one outside the domain) matches nothing and touches nothing.
      if (f < 0.0 || f >= static_cast<double>(side) || f != std::floor(f)) {
        ++result.cost.pruned_subtrees;
        break;
      }
      tree.PartialMatchVisit(spec.axis, static_cast<uint32_t>(f),
                             &result.cost,
                             [&result, &backend](uint32_t x, uint32_t y) {
                               result.points.push_back(
                                   backend.PointOfCell(x, y));
                             });
      CanonicalizePointOrder(&result.points);
      break;
    }
    case QueryKind::kNearestK: {
      const double tx = (spec.target.x() - domain.lo().x()) / wx;
      const double ty = (spec.target.y() - domain.lo().y()) / wy;
      std::vector<std::pair<uint32_t, uint32_t>> cells =
          tree.NearestK(tx, ty, spec.k, &result.cost);
      result.points.reserve(cells.size());
      for (const auto& [x, y] : cells) {
        result.points.push_back(backend.PointOfCell(x, y));
      }
      break;
    }
  }
  return result;
}

QueryResult Execute(const HashBackend& backend, const QuerySpec& spec) {
  POPAN_CHECK(backend.table != nullptr);
  const spatial::ExtendibleHash& table = *backend.table;
  const HashPointCodec& codec = backend.codec;
  QueryResult result;
  switch (spec.kind) {
    case QueryKind::kRange: {
      // Batch-decode each surviving bucket into coordinate lanes, then
      // filter with the SIMD in-box kernel; decoded values, visit order,
      // and counters match the per-key Decode + Contains loop exactly.
      std::vector<double> xs;
      std::vector<double> ys;
      table.VisitBucketsWithPrefix(
          [&](size_t /*bi*/, uint64_t prefix, size_t depth,
              const std::vector<uint64_t>& keys) {
            if (!codec.BlockOfPrefix(prefix, depth).Intersects(spec.range)) {
              ++result.cost.pruned_subtrees;
              return;
            }
            ++result.cost.nodes_visited;
            ++result.cost.leaves_touched;
            const size_t n = keys.size();
            result.cost.points_scanned += n;
            xs.resize(n);
            ys.resize(n);
            codec.DecodeBatchLanes(keys.data(), n, xs.data(), ys.data());
            const std::array<const double*, 2> lanes = {xs.data(), ys.data()};
            spatial::ForEachInBoxLanes<2>(lanes, n, spec.range, [&](size_t i) {
              result.points.push_back(geo::Point2{xs[i], ys[i]});
            });
          });
      CanonicalizePointOrder(&result.points);
      break;
    }
    case QueryKind::kPartialMatch: {
      const size_t axis = spec.axis;
      const double value = spec.value;
      if (value < codec.domain.lo()[axis] ||
          value >= codec.domain.hi()[axis]) {
        ++result.cost.pruned_subtrees;
        break;
      }
      std::vector<double> xs;
      std::vector<double> ys;
      table.VisitBucketsWithPrefix(
          [&](size_t /*bi*/, uint64_t prefix, size_t depth,
              const std::vector<uint64_t>& keys) {
            geo::Box2 block = codec.BlockOfPrefix(prefix, depth);
            if (!(block.lo()[axis] <= value && value < block.hi()[axis])) {
              ++result.cost.pruned_subtrees;
              return;
            }
            ++result.cost.nodes_visited;
            ++result.cost.leaves_touched;
            const size_t n = keys.size();
            result.cost.points_scanned += n;
            xs.resize(n);
            ys.resize(n);
            codec.DecodeBatchLanes(keys.data(), n, xs.data(), ys.data());
            const double* lane = axis == 0 ? xs.data() : ys.data();
            spatial::ForEachEqualLane(lane, n, value, [&](size_t i) {
              result.points.push_back(geo::Point2{xs[i], ys[i]});
            });
          });
      CanonicalizePointOrder(&result.points);
      break;
    }
    case QueryKind::kNearestK: {
      POPAN_CHECK(spec.k >= 1);
      if (table.empty()) break;
      // Rank all buckets by (block distance, index); the directory is
      // flat, so the "traversal" is one sorted scan with the best-first
      // cutoff. Bucket key vectors stay valid while the table is const.
      struct Ref {
        double d2;
        uint32_t bi;
        const std::vector<uint64_t>* keys;
      };
      std::vector<Ref> order;
      order.reserve(table.BucketCount());
      table.VisitBucketsWithPrefix(
          [&](size_t bi, uint64_t prefix, size_t depth,
              const std::vector<uint64_t>& keys) {
            ++result.cost.nodes_visited;
            order.push_back(Ref{codec.BlockOfPrefix(prefix, depth)
                                    .DistanceSquaredTo(spec.target),
                                static_cast<uint32_t>(bi), &keys});
          });
      std::sort(order.begin(), order.end(), [](const Ref& a, const Ref& b) {
        if (a.d2 != b.d2) return a.d2 < b.d2;
        return a.bi < b.bi;
      });
      // Canonical (distance², x, y) accumulator (knn_heap.h): ties
      // resolve by coordinate order, and a bucket at exactly the k-th
      // distance is still scanned — it may hold a tie-winning point.
      spatial::KnnHeap<geo::Point2, spatial::PointTieLess> heap(spec.k);
      for (size_t i = 0; i < order.size(); ++i) {
        if (heap.ShouldPrune(order[i].d2)) {
          result.cost.pruned_subtrees += order.size() - i;
          break;
        }
        ++result.cost.leaves_touched;
        for (uint64_t key : *order[i].keys) {
          ++result.cost.points_scanned;
          geo::Point2 p = codec.Decode(key);
          heap.Offer(p.DistanceSquared(spec.target), p);
        }
      }
      result.points = heap.TakeSorted();
      break;
    }
  }
  return result;
}

}  // namespace popan::query
