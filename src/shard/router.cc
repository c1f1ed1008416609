#include "shard/router.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

#include "core/query_model.h"
#include "shard/key_range.h"
#include "spatial/checkpoint.h"
#include "spatial/knn_heap.h"
#include "spatial/morton.h"
#include "util/check.h"

namespace popan::shard {

namespace {

using spatial::MortonCode;

bool FinitePoint(const geo::Point2& p) {
  // Box::Contains is comparison-based, so NaN slips through every bound
  // check; reject it before it reaches the key codec.
  return std::isfinite(p.x()) && std::isfinite(p.y());
}

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty() || dir.back() == '/') return dir + name;
  return dir + "/" + name;
}

/// Shard keys for a Z-ordered point vector, batched.
std::vector<uint64_t> KeysOf(const geo::Box2& domain,
                             const std::vector<geo::Point2>& points) {
  std::vector<uint64_t> keys(points.size());
  spatial::CodeBitsBatch(domain, points, MortonCode::kMaxDepth, keys.data());
  return keys;
}

/// The census-predicted median split key of a pinned shard view: walk
/// the leaves in Z (= key) order accumulating occupancies; every leaf
/// boundary after the first nonempty leaf is a valid interior cut (the
/// preceding leaf pins points below it, the leaf itself points at or
/// above it), and we take the one balancing the halves best, ties to the
/// smaller key. FailedPrecondition when only one nonempty (depth-capped)
/// block holds every point — the unsplittable cluster.
[[nodiscard]] StatusOr<uint64_t> CensusMedianSplitKey(
    const geo::Box2& domain, const spatial::SnapshotView2& view) {
  struct LeafRun {
    uint64_t key_lo = 0;
    uint64_t count = 0;
  };
  std::vector<LeafRun> runs;
  view.VisitLeavesPoints([&](const geo::Box2& /*box*/, size_t depth,
                             std::span<const geo::Point2> pts) {
    if (pts.empty()) return;
    // Leaves deeper than the key resolution collapse onto their
    // kMaxDepth ancestor block; adjacent same-block runs merge so a
    // boundary never falls inside one key block.
    uint8_t key_depth = depth < MortonCode::kMaxDepth
                            ? static_cast<uint8_t>(depth)
                            : MortonCode::kMaxDepth;
    MortonCode code = spatial::CodeOfPoint(domain, pts[0], key_depth);
    uint64_t lo = 0;
    uint64_t hi = 0;
    spatial::DescendantRange(code, &lo, &hi);
    if (!runs.empty() && runs.back().key_lo == lo) {
      runs.back().count += pts.size();
    } else {
      runs.push_back(LeafRun{lo, pts.size()});
    }
  });
  if (runs.size() < 2) {
    return Status::FailedPrecondition(
        "unsplittable cluster: every point shares one Morton block");
  }
  uint64_t total = 0;
  for (const LeafRun& run : runs) total += run.count;
  uint64_t best_key = 0;
  uint64_t best_score = ~uint64_t{0};
  uint64_t left = 0;
  for (size_t i = 1; i < runs.size(); ++i) {
    left += runs[i - 1].count;
    uint64_t score = left * 2 >= total ? left * 2 - total : total - left * 2;
    if (score < best_score) {
      best_score = score;
      best_key = runs[i].key_lo;
    }
  }
  return best_key;
}

}  // namespace

// --- MultiSnapshot ----------------------------------------------------

size_t MultiSnapshot::size() const {
  size_t total = 0;
  for (const Entry& e : entries_) total += e.view.size();
  return total;
}

size_t MultiSnapshot::LeafCount() const {
  size_t total = 0;
  for (const Entry& e : entries_) total += e.view.LeafCount();
  return total;
}

spatial::Census MultiSnapshot::LiveCensus() const {
  spatial::Census census;
  for (const Entry& e : entries_) census.Merge(e.view.LiveCensus());
  return census;
}

query::QueryResult Execute(const MultiSnapshot& snapshot,
                           const query::QuerySpec& spec) {
  query::QueryResult result;
  const geo::Box2& domain = snapshot.domain();
  switch (spec.kind) {
    case query::QueryKind::kRange: {
      for (const MultiSnapshot::Entry& e : snapshot.entries()) {
        if (!RangeTouchesBox(domain, e.range, spec.range)) {
          ++result.cost.pruned_subtrees;
          continue;
        }
        query::QueryResult part = query::Execute(e.view, spec);
        result.points.insert(result.points.end(), part.points.begin(),
                             part.points.end());
        result.cost.Add(part.cost);
      }
      query::CanonicalizePointOrder(&result.points);
      break;
    }
    case query::QueryKind::kPartialMatch: {
      for (const MultiSnapshot::Entry& e : snapshot.entries()) {
        if (!RangeTouchesAxisValue(domain, e.range, spec.axis, spec.value)) {
          ++result.cost.pruned_subtrees;
          continue;
        }
        query::QueryResult part = query::Execute(e.view, spec);
        result.points.insert(result.points.end(), part.points.begin(),
                             part.points.end());
        result.cost.Add(part.cost);
      }
      query::CanonicalizePointOrder(&result.points);
      break;
    }
    case query::QueryKind::kNearestK: {
      // Each shard returns its own k best in canonical (distance², x, y)
      // order; the global k best is a subset of the union, re-ranked by
      // the same key, so the merged prefix is bitwise the single-tree
      // answer.
      struct Candidate {
        double d2;
        geo::Point2 p;
      };
      std::vector<Candidate> candidates;
      for (const MultiSnapshot::Entry& e : snapshot.entries()) {
        query::QueryResult part = query::Execute(e.view, spec);
        for (const geo::Point2& p : part.points) {
          candidates.push_back(Candidate{p.DistanceSquared(spec.target), p});
        }
        result.cost.Add(part.cost);
      }
      spatial::PointTieLess tie;
      std::sort(candidates.begin(), candidates.end(),
                [&tie](const Candidate& a, const Candidate& b) {
                  if (a.d2 != b.d2) return a.d2 < b.d2;
                  return tie(a.p, b.p);
                });
      size_t take = std::min(spec.k, candidates.size());
      result.points.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        result.points.push_back(candidates[i].p);
      }
      break;
    }
  }
  return result;
}

// --- ShardRouter ------------------------------------------------------

ShardRouter::ShardRouter(const geo::Box2& domain,
                         const RouterOptions& options, std::string dir)
    : domain_(domain), options_(options), dir_(std::move(dir)) {
  POPAN_CHECK(options_.epoch_readers >= 1);
  if (options_.rebalance.enabled) {
    POPAN_CHECK(options_.rebalance.merge_cost < options_.rebalance.split_cost)
        << "merge/split thresholds must leave a hysteresis band";
    POPAN_CHECK(options_.rebalance.max_shards >= 1);
    POPAN_CHECK(options_.rebalance.check_interval >= 1);
  }
}

ShardRouter::ShardRouter(const geo::Box2& domain,
                         const RouterOptions& options)
    : ShardRouter(domain, options, std::string()) {
  popan::AssumeRole writer(writer_role_);
  StatusOr<std::shared_ptr<Shard>> initial = BuildShard(KeyRange{}, {});
  POPAN_CHECK(initial.ok()) << initial.status().ToString();
  popan::MutexLock lock(map_mu_);
  shards_.push_back(std::move(initial).value());
}

ShardRouter::~ShardRouter() = default;

StatusOr<std::unique_ptr<ShardRouter>> ShardRouter::Open(
    const std::string& dir, const geo::Box2& domain,
    const RouterOptions& options) {
  POPAN_CHECK(!dir.empty());
  std::unique_ptr<ShardRouter> router(
      new ShardRouter(domain, options, dir));
  popan::AssumeRole writer(router->writer_role_);

  StatusOr<Manifest> manifest = ReadManifest(dir);
  if (!manifest.ok() && manifest.status().code() != StatusCode::kNotFound) {
    return manifest.status();
  }

  if (!manifest.ok()) {
    // Fresh store: one full-range shard, committed immediately so a
    // crash right after Open still recovers an empty store.
    POPAN_ASSIGN_OR_RETURN(std::shared_ptr<Shard> initial,
                           router->BuildShard(KeyRange{}, {}));
    {
      popan::MutexLock lock(router->map_mu_);
      router->shards_.push_back(std::move(initial));
    }
    POPAN_RETURN_IF_ERROR(router->CommitShardMap());
    return router;
  }

  const Manifest& m = manifest.value();
  if (!(m.domain == domain) || m.options.capacity != options.tree.capacity ||
      m.options.max_depth != options.tree.max_depth) {
    return Status::FailedPrecondition(
        "shard store at " + dir +
        " was created with different domain/options");
  }
  router->next_file_id_ = m.next_file_id;

  std::vector<std::shared_ptr<Shard>> shards;
  uint64_t total_sequence = 0;
  size_t total_size = 0;
  for (const ManifestShard& entry : m.shards) {
    const std::string wal_path = JoinPath(dir, entry.wal_file);
    std::ifstream wal_in(wal_path, std::ios::binary);
    if (!wal_in.is_open()) {
      return Status::Internal("manifest names missing WAL file " +
                              entry.wal_file);
    }
    spatial::PrTree<2> recovered(domain, options.tree);
    uint64_t last_sequence = 0;
    uint64_t next_sequence = 1;
    size_t valid_bytes = 0;
    if (entry.snapshot_file.empty()) {
      POPAN_ASSIGN_OR_RETURN(spatial::WalRecovery rec,
                             spatial::ReplayWal(&wal_in));
      recovered = std::move(rec.tree);
      last_sequence = rec.last_sequence;
      next_sequence = rec.next_sequence;
      valid_bytes = rec.valid_bytes;
    } else {
      std::ifstream snap_in(JoinPath(dir, entry.snapshot_file),
                            std::ios::binary);
      if (!snap_in.is_open()) {
        return Status::Internal("manifest names missing snapshot file " +
                                entry.snapshot_file);
      }
      POPAN_ASSIGN_OR_RETURN(spatial::RecoverResult rec,
                             spatial::Recover(&snap_in, &wal_in));
      recovered = std::move(rec.tree);
      last_sequence = rec.last_sequence;
      next_sequence = rec.next_sequence;
      valid_bytes = rec.wal_valid_bytes;
    }
    wal_in.close();

    std::vector<geo::Point2> points = recovered.AllPoints();
    std::vector<uint64_t> keys = KeysOf(domain, points);
    for (uint64_t key : keys) {
      if (!entry.range.Contains(key)) {
        return Status::Internal("recovered point routes outside shard " +
                                entry.range.ToString());
      }
    }
    POPAN_CHECK(last_sequence >= points.size())
        << "recovered sequence smaller than the surviving point count";

    auto shard = std::make_shared<Shard>(entry.range, domain, options.tree,
                                         last_sequence - points.size(),
                                         options.epoch_readers);
    {
      spatial::CowPrQuadtree::WriteRun run(&shard->tree);
      for (const geo::Point2& p : points) {
        Status applied = shard->tree.Insert(p);
        POPAN_CHECK(applied.ok()) << applied.ToString();
      }
    }
    shard->wal_file = entry.wal_file;
    shard->snapshot_file = entry.snapshot_file;
    // Truncate any torn tail, then resume appending after the last
    // intact record.
    POPAN_ASSIGN_OR_RETURN(std::ofstream resumed,
                           spatial::ResumeWalFile(wal_path, valid_bytes));
    shard->wal_stream =
        std::make_unique<std::ofstream>(std::move(resumed));
    shard->wal = std::make_unique<spatial::WalWriter>(
        shard->wal_stream.get(), domain,
        spatial::WalWriter::ResumeAt{next_sequence});
    total_sequence += last_sequence;
    total_size += points.size();
    shards.push_back(std::move(shard));
  }

  {
    popan::MutexLock lock(router->map_mu_);
    router->shards_ = std::move(shards);
  }
  router->sequence_.store(total_sequence, std::memory_order_relaxed);
  router->size_.store(total_size, std::memory_order_relaxed);
  return router;
}

Status ShardRouter::Insert(const geo::Point2& p) {
  popan::AssumeRole writer(writer_role_);
  return Apply('I', p);
}

Status ShardRouter::Erase(const geo::Point2& p) {
  popan::AssumeRole writer(writer_role_);
  return Apply('E', p);
}

Status ShardRouter::Apply(char op, const geo::Point2& p) {
  if (poisoned_) return PoisonedStatus();
  if (!FinitePoint(p)) {
    return Status::InvalidArgument("non-finite coordinate");
  }
  if (!domain_.Contains(p)) {
    return Status::OutOfRange("point outside the store domain");
  }
  uint64_t key = ShardKeyOfPoint(domain_, p);
  {
    // The whole apply — tree publish, WAL append, clock bumps — sits
    // inside the cut boundary: a concurrent TrySnapshot holding map_mu_
    // sees either none of this operation or all of it, so a
    // MultiSnapshot is always an exact prefix of the operation stream.
    popan::MutexLock lock(map_mu_);
    const std::shared_ptr<Shard>& shard = shards_[ShardIndexForKey(key)];
    Status applied =
        op == 'I' ? shard->tree.Insert(p) : shard->tree.Erase(p);
    POPAN_RETURN_IF_ERROR(applied);
    uint64_t seq = shard->tree.sequence();
    if (shard->wal != nullptr) {
      StatusOr<uint64_t> logged =
          op == 'I' ? shard->wal->LogInsert(p) : shard->wal->LogErase(p);
      POPAN_CHECK(logged.ok() && logged.value() == seq)
          << "shard WAL fell out of step with its tree";
    }
    sequence_.fetch_add(1, std::memory_order_relaxed);
    if (op == 'I') {
      size_.fetch_add(1, std::memory_order_relaxed);
    } else {
      size_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  MaybeRebalance();
  return Status::OK();
}

size_t ShardRouter::ShardIndexForKey(uint64_t key) const {
  // Ranges tile the key space, ascending; the owner is the last range
  // starting at or below the key.
  size_t lo = 0;
  size_t hi = shards_.size();
  while (hi - lo > 1) {
    size_t mid = lo + (hi - lo) / 2;
    if (shards_[mid]->range.lo <= key) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  POPAN_DCHECK(shards_[lo]->range.Contains(key));
  return lo;
}

double ShardRouter::PredictedCost(const spatial::Census& census,
                                  size_t size) const {
  if (size == 0) return 0.0;
  core::QueryCostModel model =
      core::QueryCostModel::FromCensus(census, domain_);
  double qx = std::min(options_.rebalance.ref_qx, domain_.Extent(0));
  double qy = std::min(options_.rebalance.ref_qy, domain_.Extent(1));
  return model.PredictRange(qx, qy).nodes;
}

void ShardRouter::MaybeRebalance() {
  const RebalanceConfig& cfg = options_.rebalance;
  if (!cfg.enabled) return;
  if (++writes_since_check_ < cfg.check_interval) return;
  writes_since_check_ = 0;
  rebalance_checks_.fetch_add(1, std::memory_order_relaxed);

  std::vector<std::shared_ptr<Shard>> shards;
  {
    popan::MutexLock lock(map_mu_);
    shards = shards_;
  }
  std::vector<double> costs(shards.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    costs[i] = PredictedCost(shards[i]->tree.LiveCensus(),
                             shards[i]->tree.size());
  }

  // At most one split or merge per check, split taking priority — the
  // hysteresis band between the thresholds keeps the two from chasing
  // each other.
  size_t hottest = 0;
  for (size_t i = 1; i < shards.size(); ++i) {
    if (costs[i] > costs[hottest]) hottest = i;
  }
  if (!shards.empty() && costs[hottest] > cfg.split_cost &&
      shards.size() < cfg.max_shards) {
    Shard& shard = *shards[hottest];
    size_t population = shard.tree.size();
    if (population >= cfg.min_split_points &&
        population != shard.refused_split_at_size) {
      Status split = SplitShardLocked(hottest);
      if (split.code() == StatusCode::kFailedPrecondition) {
        // Unsplittable at this population; do not spin on it.
        shard.refused_split_at_size = population;
      }
      return;
    }
  }

  if (shards.size() > 1) {
    size_t coldest = 0;
    double coldest_cost = costs[0] + costs[1];
    for (size_t i = 1; i + 1 < shards.size(); ++i) {
      double combined = costs[i] + costs[i + 1];
      if (combined < coldest_cost) {
        coldest_cost = combined;
        coldest = i;
      }
    }
    if (coldest_cost < cfg.merge_cost) {
      Status merged = MergeShardsLocked(coldest);
      (void)merged;  // transient failures retry at the next check
    }
  }
}

bool ShardRouter::CrashPoint(std::string_view stage) {
  if (!options_.crash_hook) return false;
  if (!options_.crash_hook(stage)) return false;
  poisoned_ = true;
  return true;
}

Status ShardRouter::PoisonedStatus() const {
  return Status::FailedPrecondition(
      "shard router poisoned by injected crash");
}

StatusOr<std::shared_ptr<ShardRouter::Shard>> ShardRouter::BuildShard(
    const KeyRange& range, std::vector<geo::Point2> points) {
  auto shard = std::make_shared<Shard>(range, domain_, options_.tree,
                                       /*initial_sequence=*/0,
                                       options_.epoch_readers);
  if (durable()) {
    uint64_t file_id = next_file_id_++;
    shard->wal_file = WalFileName(file_id);
    shard->wal_stream = std::make_unique<std::ofstream>(
        JoinPath(dir_, shard->wal_file), std::ios::binary | std::ios::trunc);
    if (!shard->wal_stream->is_open()) {
      return Status::Internal("cannot create shard WAL " + shard->wal_file);
    }
    shard->wal = std::make_unique<spatial::WalWriter>(
        shard->wal_stream.get(), domain_, options_.tree, /*anchor=*/0);
  }
  // The WAL handoff: the fresh log IS the bulk load, one insert record
  // per surviving point in Morton order, so replaying it rebuilds this
  // exact tree (canonical PR decomposition) with matching sequences. One
  // write run: shared path copies, and one flush of the whole log.
  if (shard->wal != nullptr) shard->wal->BeginRun();
  {
    spatial::CowPrQuadtree::WriteRun run(&shard->tree);
    for (const geo::Point2& p : points) {
      Status applied = shard->tree.Insert(p);
      POPAN_CHECK(applied.ok()) << "handoff point rejected: "
                                << applied.ToString();
      if (shard->wal != nullptr) {
        StatusOr<uint64_t> logged = shard->wal->LogInsert(p);
        POPAN_CHECK(logged.ok() && logged.value() == shard->tree.sequence())
            << "handoff WAL fell out of step: " << logged.status().ToString();
      }
    }
  }
  if (shard->wal != nullptr) {
    Status flushed = shard->wal->EndRun();
    if (!flushed.ok()) {
      return Status::Internal("short write to shard WAL " + shard->wal_file +
                              ": " + flushed.message());
    }
  }
  return shard;
}

Status ShardRouter::CommitShardMap() {
  if (!durable()) return Status::OK();
  Manifest m;
  m.domain = domain_;
  m.options = options_.tree;
  m.next_file_id = next_file_id_;
  {
    popan::MutexLock lock(map_mu_);
    m.shards.reserve(shards_.size());
    for (const std::shared_ptr<Shard>& s : shards_) {
      m.shards.push_back(
          ManifestShard{s->range, s->wal_file, s->snapshot_file});
    }
  }
  return CommitManifest(dir_, m);
}

void ShardRouter::RemoveFile(const std::string& name) {
  if (name.empty()) return;
  std::remove(JoinPath(dir_, name).c_str());
}

Status ShardRouter::SplitShard(size_t index) {
  popan::AssumeRole writer(writer_role_);
  if (poisoned_) return PoisonedStatus();
  return SplitShardLocked(index);
}

Status ShardRouter::MergeShards(size_t index) {
  popan::AssumeRole writer(writer_role_);
  if (poisoned_) return PoisonedStatus();
  return MergeShardsLocked(index);
}

Status ShardRouter::SplitShardLocked(size_t index) {
  std::shared_ptr<Shard> shard;
  {
    popan::MutexLock lock(map_mu_);
    if (index >= shards_.size()) {
      return Status::InvalidArgument("no shard at index " +
                                     std::to_string(index));
    }
    shard = shards_[index];
  }
  if (shard->tree.size() < 2) {
    return Status::FailedPrecondition(
        "unsplittable cluster: fewer than two points");
  }
  // Writer-side views: readers holding every slot must not stall the
  // rebalance.
  const spatial::SnapshotView2 view = shard->tree.WriterSnapshot();
  POPAN_ASSIGN_OR_RETURN(uint64_t split_key,
                         CensusMedianSplitKey(domain_, view));
  POPAN_CHECK(shard->range.Contains(split_key) &&
              split_key != shard->range.lo)
      << "split key escaped the shard range";

  std::vector<geo::Point2> points = view.AllPoints();
  std::vector<uint64_t> keys = KeysOf(domain_, points);
  std::vector<geo::Point2> low_points;
  std::vector<geo::Point2> high_points;
  for (size_t i = 0; i < points.size(); ++i) {
    (keys[i] < split_key ? low_points : high_points).push_back(points[i]);
  }
  POPAN_CHECK(!low_points.empty() && !high_points.empty())
      << "census median produced an empty side";

  if (CrashPoint("split:before-wal")) return PoisonedStatus();
  POPAN_ASSIGN_OR_RETURN(
      std::shared_ptr<Shard> low,
      BuildShard(KeyRange{shard->range.lo, split_key},
                 std::move(low_points)));
  POPAN_ASSIGN_OR_RETURN(
      std::shared_ptr<Shard> high,
      BuildShard(KeyRange{split_key, shard->range.hi},
                 std::move(high_points)));
  if (CrashPoint("split:before-manifest")) return PoisonedStatus();

  {
    popan::MutexLock lock(map_mu_);
    shards_[index] = std::move(low);
    shards_.insert(shards_.begin() + index + 1, std::move(high));
  }
  Status committed = CommitShardMap();
  if (!committed.ok()) return committed;
  if (CrashPoint("split:after-manifest")) return PoisonedStatus();

  // The old shard's files are dead only once the new manifest is
  // durable; readers still pinning its tree keep it alive in memory via
  // their ownership shares.
  shard->wal.reset();
  shard->wal_stream.reset();
  RemoveFile(shard->wal_file);
  RemoveFile(shard->snapshot_file);
  splits_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status ShardRouter::MergeShardsLocked(size_t index) {
  std::shared_ptr<Shard> left;
  std::shared_ptr<Shard> right;
  {
    popan::MutexLock lock(map_mu_);
    if (index + 1 >= shards_.size()) {
      return Status::InvalidArgument("no adjacent pair at index " +
                                     std::to_string(index));
    }
    left = shards_[index];
    right = shards_[index + 1];
  }
  const spatial::SnapshotView2 left_view = left->tree.WriterSnapshot();
  const spatial::SnapshotView2 right_view = right->tree.WriterSnapshot();
  // Left shard keys all precede right shard keys, so concatenating the
  // Z-ordered walks keeps the merged load Morton-sorted.
  std::vector<geo::Point2> points = left_view.AllPoints();
  std::vector<geo::Point2> right_points = right_view.AllPoints();
  points.insert(points.end(), right_points.begin(), right_points.end());

  if (CrashPoint("merge:before-wal")) return PoisonedStatus();
  POPAN_ASSIGN_OR_RETURN(
      std::shared_ptr<Shard> merged,
      BuildShard(KeyRange{left->range.lo, right->range.hi},
                 std::move(points)));
  if (CrashPoint("merge:before-manifest")) return PoisonedStatus();

  {
    popan::MutexLock lock(map_mu_);
    shards_[index] = std::move(merged);
    shards_.erase(shards_.begin() + index + 1);
  }
  Status committed = CommitShardMap();
  if (!committed.ok()) return committed;
  if (CrashPoint("merge:after-manifest")) return PoisonedStatus();

  for (const std::shared_ptr<Shard>& dead : {left, right}) {
    dead->wal.reset();
    dead->wal_stream.reset();
    RemoveFile(dead->wal_file);
    RemoveFile(dead->snapshot_file);
  }
  merges_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status ShardRouter::CheckpointShard(size_t index) {
  popan::AssumeRole writer(writer_role_);
  if (poisoned_) return PoisonedStatus();
  if (!durable()) {
    return Status::FailedPrecondition(
        "checkpoint needs a durable (directory-backed) router");
  }
  std::shared_ptr<Shard> shard;
  {
    popan::MutexLock lock(map_mu_);
    if (index >= shards_.size()) {
      return Status::InvalidArgument("no shard at index " +
                                     std::to_string(index));
    }
    shard = shards_[index];
  }
  const spatial::SnapshotView2 view = shard->tree.WriterSnapshot();

  uint64_t file_id = next_file_id_++;
  std::string snap_name = SnapshotFileName(file_id);
  std::string wal_name = WalFileName(file_id);
  std::ofstream snap_out(JoinPath(dir_, snap_name),
                         std::ios::binary | std::ios::trunc);
  auto wal_stream = std::make_unique<std::ofstream>(
      JoinPath(dir_, wal_name), std::ios::binary | std::ios::trunc);
  if (!snap_out.is_open() || !wal_stream->is_open()) {
    return Status::Internal("cannot create checkpoint files for shard " +
                            shard->range.ToString());
  }
  POPAN_ASSIGN_OR_RETURN(
      spatial::WalWriter fresh_wal,
      spatial::Checkpoint(view, &snap_out, wal_stream.get()));
  snap_out.flush();
  wal_stream->flush();
  if (!snap_out.good() || !wal_stream->good()) {
    return Status::Internal("short write during shard checkpoint");
  }
  if (CrashPoint("checkpoint:before-manifest")) return PoisonedStatus();

  std::string old_wal = shard->wal_file;
  std::string old_snap = shard->snapshot_file;
  shard->snapshot_file = snap_name;
  shard->wal_file = wal_name;
  shard->wal_stream = std::move(wal_stream);
  shard->wal = std::make_unique<spatial::WalWriter>(std::move(fresh_wal));
  Status committed = CommitShardMap();
  if (!committed.ok()) return committed;
  if (CrashPoint("checkpoint:after-manifest")) return PoisonedStatus();
  RemoveFile(old_wal);
  RemoveFile(old_snap);
  return Status::OK();
}

void ShardRouter::FlushWals() {
  popan::AssumeRole writer(writer_role_);
  std::vector<std::shared_ptr<Shard>> shards;
  {
    popan::MutexLock lock(map_mu_);
    shards = shards_;
  }
  for (const std::shared_ptr<Shard>& s : shards) {
    if (s->wal_stream != nullptr) s->wal_stream->flush();
  }
}

std::vector<ShardInfo> ShardRouter::Shards() const {
  std::vector<std::shared_ptr<Shard>> shards;
  {
    popan::MutexLock lock(map_mu_);
    shards = shards_;
  }
  std::vector<ShardInfo> out;
  out.reserve(shards.size());
  for (const std::shared_ptr<Shard>& s : shards) {
    ShardInfo info;
    info.range = s->range;
    info.size = s->tree.size();
    info.sequence = s->tree.sequence();
    info.predicted_cost =
        PredictedCost(s->tree.LiveCensus(), s->tree.size());
    out.push_back(info);
  }
  return out;
}

StatusOr<MultiSnapshot> ShardRouter::TrySnapshot() const {
  MultiSnapshot snapshot;
  snapshot.domain_ = domain_;
  // Pin every shard under the cut boundary (see Apply): the writer
  // cannot land an operation between two pins, so the per-shard views
  // together form one consistent prefix stamped with sequence_. The
  // pins themselves are O(shard count) epoch acquisitions — queries run
  // after the lock is released.
  popan::MutexLock lock(map_mu_);
  snapshot.sequence_ = sequence_.load(std::memory_order_relaxed);
  snapshot.entries_.reserve(shards_.size());
  for (const std::shared_ptr<Shard>& s : shards_) {
    POPAN_ASSIGN_OR_RETURN(spatial::SnapshotView2 view,
                           s->tree.TrySnapshot());
    snapshot.entries_.push_back(MultiSnapshot::Entry{
        s->range, std::shared_ptr<const void>(s), std::move(view)});
  }
  return snapshot;
}

MultiSnapshot ShardRouter::Snapshot() const {
  StatusOr<MultiSnapshot> snapshot = TrySnapshot();
  POPAN_CHECK(snapshot.ok()) << snapshot.status().ToString();
  return std::move(snapshot).value();
}

size_t ShardRouter::shard_count() const {
  popan::MutexLock lock(map_mu_);
  return shards_.size();
}

}  // namespace popan::shard
