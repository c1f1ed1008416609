#ifndef POPAN_QUERY_QUERY_H_
#define POPAN_QUERY_QUERY_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"
#include "spatial/excell.h"
#include "spatial/extendible_hash.h"
#include "spatial/grid_file.h"
#include "spatial/hash_codec.h"
#include "spatial/linear_quadtree.h"
#include "spatial/mx_quadtree.h"
#include "spatial/pmr_quadtree.h"
#include "spatial/point_quadtree.h"
#include "spatial/pr_tree.h"
#include "spatial/query_cost.h"
#include "spatial/snapshot_view.h"
#include "util/check.h"
#include "util/text_io.h"

namespace popan::query {

/// The three query kinds every spatial backend answers through the uniform
/// Execute() API below.
enum class QueryKind {
  /// Orthogonal range search over a half-open box [lo, hi).
  kRange,
  /// Partial match: one coordinate fixed to an exact value, the other
  /// unconstrained — the query whose expected cost on random point
  /// quadtrees follows the N^((sqrt(17)-3)/2) law the benches regenerate.
  kPartialMatch,
  /// k-nearest-neighbor search by Euclidean distance.
  kNearestK,
};

std::string QueryKindToString(QueryKind kind);

/// One query, any kind. Build with the factories; only the fields of the
/// active kind are meaningful.
struct QuerySpec {
  QueryKind kind = QueryKind::kRange;

  /// kRange: the half-open query box.
  geo::Box2 range = geo::Box2::UnitCube();

  /// kPartialMatch: the fixed axis (0 = x, 1 = y) and its value.
  size_t axis = 0;
  double value = 0.0;

  /// kNearestK: the target point and the number of neighbors.
  geo::Point2 target;
  size_t k = 1;

  static QuerySpec Range(const geo::Box2& box);
  static QuerySpec PartialMatch(size_t axis, double value);
  static QuerySpec NearestK(const geo::Point2& target, size_t k);

  std::string ToString() const;
};

/// The outcome of one query. Point backends fill `points`; the PMR
/// quadtree (a segment structure) fills `ids`. Range and partial-match
/// results are canonicalized — points sorted by (x, y), ids ascending — so
/// equal result multisets compare equal regardless of traversal order.
/// k-NN results stay in ascending-distance order.
struct QueryResult {
  std::vector<geo::Point2> points;
  std::vector<uint32_t> ids;
  spatial::QueryCost cost;

  /// Number of matches (points or ids; a result holds only one kind).
  size_t ItemCount() const { return points.size() + ids.size(); }
};

/// Folds one result into a running FNV-1a style checksum: item count, every
/// point's coordinate bit patterns / every id, and all four cost counters.
/// Seed the chain with kChecksumSeed. Two batches with the same per-query
/// results and costs — in the same order — produce the same checksum, which
/// is how the executor determinism tests compare runs bit-exactly.
inline constexpr uint64_t kChecksumSeed = kFnv1aBasis;
uint64_t ChecksumResult(uint64_t h, const QueryResult& r);

/// Sorts `points` into the canonical (x, y) order range and partial-match
/// results use. Exposed so result mergers (the shard router concatenating
/// per-shard answers) land on bitwise the same order a single backend
/// produces.
void CanonicalizePointOrder(std::vector<geo::Point2>* points);

// ---------------------------------------------------------------------
// Adapters. Two backends do not speak domain coordinates natively; these
// wrappers carry the coordinate mapping so Execute() can treat all seven
// structures uniformly.

/// MX quadtree adapter: maps domain points onto the tree's integer cell
/// lattice. Cell (ix, iy) REPRESENTS the domain point
///   domain.lo + (ix * wx, iy * wy),  w = extent / side,
/// i.e. the cell's lower-left lattice corner. Exact round-tripping (and
/// cross-backend result equality) therefore holds for data on that
/// lattice, which is how the tests drive it. Distance ranking for k-NN is
/// exact when the cells are square (wx == wy).
struct MxBackend {
  const spatial::MxQuadtree* tree = nullptr;
  geo::Box2 domain = geo::Box2::UnitCube();

  double CellWidthX() const {
    return domain.Extent(0) / static_cast<double>(tree->side());
  }
  double CellWidthY() const {
    return domain.Extent(1) / static_cast<double>(tree->side());
  }
  geo::Point2 PointOfCell(uint32_t ix, uint32_t iy) const {
    return geo::Point2(domain.lo().x() + CellWidthX() * ix,
                       domain.lo().y() + CellWidthY() * iy);
  }
};

/// Coordinate codec for the extendible-hash backend. The implementation
/// (raw pseudokey bit arithmetic) lives with the other key codecs in
/// spatial/hash_codec.h so all boundary math stays in one audited place;
/// the alias keeps the historical query-layer spelling working.
using HashPointCodec = spatial::HashPointCodec;

/// Extendible hash adapter: the table stores codec-encoded points. The
/// spatial interpretation (bucket blocks, point decoding) lives entirely
/// here — the table itself stays a pure key structure.
struct HashBackend {
  const spatial::ExtendibleHash* table = nullptr;
  HashPointCodec codec;
};

// ---------------------------------------------------------------------
// The uniform entry point: one overload per backend, each dispatching the
// three query kinds onto the backend's iterative cost-counted visitors.

QueryResult Execute(const spatial::PrQuadtree& tree, const QuerySpec& spec);
QueryResult Execute(const spatial::PointQuadtree& tree,
                    const QuerySpec& spec);
QueryResult Execute(const spatial::LinearPrQuadtree& tree,
                    const QuerySpec& spec);
QueryResult Execute(const spatial::PmrQuadtree& tree, const QuerySpec& spec);
QueryResult Execute(const spatial::GridFile& grid, const QuerySpec& spec);
QueryResult Execute(const spatial::Excell& excell, const QuerySpec& spec);
QueryResult Execute(const MxBackend& backend, const QuerySpec& spec);
QueryResult Execute(const HashBackend& backend, const QuerySpec& spec);

/// Epoch-pinned snapshot of a CowPrQuadtree (snapshot_view.h): the same
/// traversals as the PrQuadtree overload, executed against a frozen
/// version while the writer keeps mutating. Results and cost counters are
/// bitwise identical to querying a stop-the-world tree holding the same
/// operation prefix.
QueryResult Execute(const spatial::SnapshotView2& snapshot,
                    const QuerySpec& spec);

/// A pull-style view over one executed query. The constructor runs the
/// query eagerly (all backends materialize results anyway); the cursor
/// then hands out items one at a time with the cost attached.
class QueryCursor {
 public:
  template <typename Backend>
  QueryCursor(const Backend& backend, const QuerySpec& spec)
      : result_(Execute(backend, spec)) {}

  /// Concurrent form: pins an epoch snapshot of `tree` for exactly the
  /// duration of the query, so the cursor works against a consistent
  /// version even while the writer thread keeps inserting and erasing.
  QueryCursor(const spatial::CowPrQuadtree& tree, const QuerySpec& spec)
      : result_(Execute(tree.Snapshot(), spec)) {}

  /// Matches not yet pulled.
  size_t Remaining() const { return result_.ItemCount() - pos_; }
  bool Done() const { return Remaining() == 0; }

  /// Next point (point backends only; CHECK-fails past the end).
  const geo::Point2& NextPoint() {
    POPAN_CHECK(pos_ < result_.points.size());
    return result_.points[pos_++];
  }

  /// Next segment id (PMR backend only; CHECK-fails past the end).
  uint32_t NextId() {
    POPAN_CHECK(pos_ < result_.ids.size());
    return result_.ids[pos_++];
  }

  const spatial::QueryCost& cost() const { return result_.cost; }
  const QueryResult& result() const { return result_; }

 private:
  QueryResult result_;
  size_t pos_ = 0;
};

}  // namespace popan::query

#endif  // POPAN_QUERY_QUERY_H_
