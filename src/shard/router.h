#ifndef POPAN_SHARD_ROUTER_H_
#define POPAN_SHARD_ROUTER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"
#include "query/query.h"
#include "shard/key_range.h"
#include "shard/manifest.h"
#include "spatial/census.h"
#include "spatial/epoch.h"
#include "spatial/pr_tree.h"
#include "spatial/snapshot_view.h"
#include "spatial/wal.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"

namespace popan::shard {

/// Census-driven load-balancing policy. The balancer never measures
/// queries: it evaluates core/query_model's block-incidence predictor on
/// each shard's O(1) LiveCensus() — the paper's population analysis as a
/// placement oracle — and compares the predicted cost of a reference
/// range query against two hysteresis thresholds.
struct RebalanceConfig {
  /// Master switch; everything below is inert when false.
  bool enabled = false;

  /// Reference query extents fed to PredictRange (clamped to the domain):
  /// the "unit of load" shards are balanced against.
  double ref_qx = 0.05;
  double ref_qy = 0.05;

  /// A shard whose predicted cost exceeds this splits at its
  /// census-predicted median key.
  double split_cost = 192.0;

  /// Adjacent shards whose combined predicted cost falls below this
  /// merge. Must be < split_cost (the hysteresis band): a shard produced
  /// by a split predicts roughly half its parent's cost, so a merge
  /// threshold at or above the split threshold would oscillate.
  double merge_cost = 48.0;

  /// Splitting below this population is pointless (the census is too
  /// coarse to predict anything).
  size_t min_split_points = 64;

  /// Hard cap on the shard count.
  size_t max_shards = 64;

  /// Writes between balance checks (each check does O(shards) census
  /// folds and at most one split or merge).
  size_t check_interval = 64;
};

/// Construction options for a ShardRouter.
struct RouterOptions {
  spatial::PrTreeOptions tree;

  /// Reader-slot count for each shard's epoch manager — size to the
  /// expected concurrent reader count (server connections).
  size_t epoch_readers = spatial::EpochManager::kMaxReaders;

  RebalanceConfig rebalance;

  /// Test-only fault injection for the durable mode: invoked at named
  /// stages of split / merge / checkpoint commits ("split:before-wal",
  /// "split:before-manifest", "split:after-manifest", and the merge:/
  /// checkpoint: equivalents). Returning true makes the
  /// router stop dead at that stage — every byte already written is on
  /// disk, nothing later is — and poisons the instance (further writes
  /// refuse), which is exactly the disk state a crash there would leave.
  /// The recovery tests reopen the directory and verify the shard map.
  std::function<bool(std::string_view stage)> crash_hook;
};

/// Introspection snapshot of one shard (writer thread).
struct ShardInfo {
  KeyRange range;
  size_t size = 0;
  uint64_t sequence = 0;
  double predicted_cost = 0.0;
};

class ShardRouter;

/// A consistent read view over every shard: one epoch-pinned
/// SnapshotView per shard plus the shard map at pin time. The whole pin
/// loop runs under the router's map mutex — the same lock every write
/// applies under — so the entries form an exact prefix of the operation
/// stream (a consistent cut, never shard A one op ahead of shard B).
/// Each entry owns shared ownership of its shard, which keeps a
/// split-away shard's tree alive until the last reader drops it.
/// Move-only.
class MultiSnapshot {
 public:
  struct Entry {
    KeyRange range;
    /// Ownership share declared BEFORE the view: the view (and its epoch
    /// pin) destructs first, then the shard it pins may be freed.
    std::shared_ptr<const void> owner;
    spatial::SnapshotView2 view;
  };

  const geo::Box2& domain() const { return domain_; }
  const std::vector<Entry>& entries() const { return entries_; }

  /// Sum of per-shard view sizes.
  size_t size() const;

  /// Sum of per-shard leaf counts.
  size_t LeafCount() const;

  /// The merged census of every pinned view, summed cell by cell from
  /// the versions' censuses in place — feeds the same cost model a
  /// single tree's census would.
  spatial::Census LiveCensus() const;

  /// The router's logical op clock at pin time.
  uint64_t sequence() const { return sequence_; }

 private:
  friend class ShardRouter;
  geo::Box2 domain_ = geo::Box2::UnitCube();
  std::vector<Entry> entries_;
  uint64_t sequence_ = 0;
};

/// Executes one query against a pinned MultiSnapshot, fanning out to the
/// shards whose key-range footprint can hold matches and merging through
/// the canonical ordering layer: range / partial-match results re-sort
/// into (x, y) order, k-NN candidates merge by the canonical
/// (distance², x, y) key. Result POINTS are bitwise identical to
/// executing the same spec on a single tree holding the same point set;
/// cost counters are the sum over queried shards (plus one
/// pruned_subtrees tick per shard skipped by the footprint test), which
/// legitimately differs from the single-tree traversal.
query::QueryResult Execute(const MultiSnapshot& snapshot,
                           const query::QuerySpec& spec);

/// The sharded spatial store: the domain's 62-bit Morton key space is
/// partitioned into contiguous ranges (key_range.h), one CowPrTree per
/// range — every tree over the SAME domain bounds, so codes, leaf paths,
/// and censuses agree across shards — with writes routed by shard key
/// and reads fanned out + canonically merged (Execute above).
///
/// Durability (optional, directory-based): each shard owns a WAL file
/// (and, after CheckpointShard, a checkpoint snapshot), with the shard
/// map committed through the manifest's atomic rename (manifest.h).
/// Split/merge rebuilds the affected trees by Morton-sorted bulk insert
/// and HANDS OFF the WAL: fresh per-shard logs containing one insert
/// record per surviving point are written and flushed BEFORE the
/// manifest commit, so recovery replays to the exact pre-crash shard map
/// and censuses no matter where in the rebalance the crash landed.
///
/// Threading contract (mirrors ServerCore): every mutating entry point
/// runs on the single writer thread — a ThreadRole capability guards the
/// writer state, so a stray cross-thread write fails the clang
/// -Wthread-safety build. TrySnapshot / Snapshot and the counters are
/// safe from any thread; a reader holding a MultiSnapshot keeps working
/// (and keeps its shards alive) across concurrent splits and merges.
class ShardRouter {
 public:
  /// In-memory router over `domain`, starting as one full-range shard.
  ShardRouter(const geo::Box2& domain, const RouterOptions& options);

  /// Durable router over store directory `dir` (which must exist).
  /// Fresh directory (no MANIFEST): creates a one-shard store and
  /// commits its first manifest. Existing MANIFEST: recovers every
  /// shard (checkpoint + WAL replay, torn tails truncated), verifies
  /// the recovered points route into their shard ranges, and resumes
  /// logging. The manifest's domain/options must match the arguments
  /// (FailedPrecondition otherwise).
  [[nodiscard]] static StatusOr<std::unique_ptr<ShardRouter>> Open(
      const std::string& dir, const geo::Box2& domain,
      const RouterOptions& options);

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;
  ~ShardRouter();

  // --- Writes (single writer thread) ---------------------------------

  /// Routes by shard key, applies to the owning tree, appends to its
  /// WAL (lockstep), then runs a rebalance check every
  /// RebalanceConfig::check_interval writes. Typed failures pass
  /// through from the tree (AlreadyExists, OutOfRange, ...); a failed
  /// write burns no sequence number and triggers no rebalance.
  [[nodiscard]] Status Insert(const geo::Point2& p);
  [[nodiscard]] Status Erase(const geo::Point2& p);

  /// Splits shard `index` at its census-predicted median key: walks the
  /// shard's leaves in Z (= key) order accumulating census occupancies
  /// and cuts at the first leaf boundary where the running count crosses
  /// half. FailedPrecondition when no interior boundary separates the
  /// points — an unsplittable cluster (every point in one max-depth
  /// Morton block); the caller must not retry until the population
  /// changes, and the balancer's guard does exactly that.
  [[nodiscard]] Status SplitShard(size_t index);

  /// Merges shards `index` and `index + 1` into one range.
  [[nodiscard]] Status MergeShards(size_t index);

  /// Durable mode: compacts shard `index` into a checkpoint snapshot +
  /// fresh WAL anchored at the snapshot sequence (checkpoint.h), then
  /// commits the manifest. FailedPrecondition for in-memory routers.
  [[nodiscard]] Status CheckpointShard(size_t index);

  /// Flushes every live WAL stream to the OS (durable mode; no-op
  /// otherwise).
  void FlushWals();

  /// Writer-side introspection: range, size, sequence, and predicted
  /// reference-query cost per shard, in key order.
  std::vector<ShardInfo> Shards() const;

  const geo::Box2& domain() const { return domain_; }
  const RouterOptions& options() const { return options_; }
  bool durable() const { return !dir_.empty(); }

  // --- Reads + counters (any thread) ---------------------------------

  /// Pins one snapshot per shard. ResourceExhausted when any shard's
  /// reader slots are all taken (pins acquired so far release).
  [[nodiscard]] StatusOr<MultiSnapshot> TrySnapshot() const;

  /// CHECK-ing form of TrySnapshot for bounded-reader harnesses.
  [[nodiscard]] MultiSnapshot Snapshot() const;

  size_t shard_count() const;

  /// Logical op clock: successful writes since construction; recovery
  /// restores it to the total replayed record count (compaction resets
  /// per-shard WAL sequences, so this counts what is on disk, not
  /// lifetime ops).
  uint64_t sequence() const {
    return sequence_.load(std::memory_order_relaxed);
  }
  size_t size() const { return size_.load(std::memory_order_relaxed); }
  uint64_t splits() const { return splits_.load(std::memory_order_relaxed); }
  uint64_t merges() const { return merges_.load(std::memory_order_relaxed); }
  uint64_t rebalance_checks() const {
    return rebalance_checks_.load(std::memory_order_relaxed);
  }

 private:
  /// One shard: a key range, its tree, and (durable mode) its log.
  /// Shared ownership with MultiSnapshot entries keeps a replaced
  /// shard's tree alive until the last pinned reader drops it.
  struct Shard {
    Shard(const KeyRange& r, const geo::Box2& domain,
          const spatial::PrTreeOptions& tree_options,
          uint64_t initial_sequence, size_t epoch_readers)
        : range(r),
          tree(domain, tree_options, initial_sequence, epoch_readers) {}

    KeyRange range;
    spatial::CowPrQuadtree tree;
    std::string wal_file;       ///< manifest filename ("" in-memory)
    std::string snapshot_file;  ///< checkpoint snapshot ("" = none)
    std::unique_ptr<std::ofstream> wal_stream;
    std::unique_ptr<spatial::WalWriter> wal;
    /// Unsplittable guard: the size at which a split last refused;
    /// the balancer retries only once the population changes.
    size_t refused_split_at_size = static_cast<size_t>(-1);
  };

  ShardRouter(const geo::Box2& domain, const RouterOptions& options,
              std::string dir);

  [[nodiscard]] Status Apply(char op, const geo::Point2& p)
      REQUIRES(writer_role_);
  size_t ShardIndexForKey(uint64_t key) const
      REQUIRES(writer_role_, map_mu_);
  void MaybeRebalance() REQUIRES(writer_role_);
  [[nodiscard]] Status SplitShardLocked(size_t index)
      REQUIRES(writer_role_);
  [[nodiscard]] Status MergeShardsLocked(size_t index)
      REQUIRES(writer_role_);
  double PredictedCost(const spatial::Census& census, size_t size) const;

  /// True when the crash hook fired: the router stops dead (poisons) so
  /// the on-disk state stays exactly as a crash would leave it.
  [[nodiscard]] bool CrashPoint(std::string_view stage)
      REQUIRES(writer_role_);
  [[nodiscard]] Status PoisonedStatus() const;

  /// Builds a fresh Shard holding `points` (Morton-sorted bulk insert;
  /// the PR decomposition is canonical, so census and structure equal
  /// any insertion order). Durable mode: also writes + flushes its
  /// handoff WAL (header + one insert per point) under a new file id.
  [[nodiscard]] StatusOr<std::shared_ptr<Shard>> BuildShard(
      const KeyRange& range, std::vector<geo::Point2> points)
      REQUIRES(writer_role_);

  /// Commits the current shard list to the manifest (durable mode).
  [[nodiscard]] Status CommitShardMap() REQUIRES(writer_role_);

  void RemoveFile(const std::string& name) REQUIRES(writer_role_);

  geo::Box2 domain_;
  RouterOptions options_;
  std::string dir_;  ///< empty = in-memory

  /// Writer affinity capability (see threading contract).
  popan::ThreadRole writer_role_;
  /// Guards the shard map vector AND serves as the consistent-cut
  /// boundary: the writer applies each operation (tree publish, WAL
  /// append, clock bumps) entirely under it, and TrySnapshot holds it
  /// across the whole pin loop, so a MultiSnapshot is always an exact
  /// prefix of the operation stream — never a torn cut with shard A
  /// one op ahead of shard B. Queries against an already-pinned view
  /// need no lock: CowPrTree's single-writer/epoch protocol covers
  /// them.
  mutable popan::Mutex map_mu_;
  std::vector<std::shared_ptr<Shard>> shards_ GUARDED_BY(map_mu_);

  bool poisoned_ GUARDED_BY(writer_role_) = false;
  uint64_t next_file_id_ GUARDED_BY(writer_role_) = 0;
  size_t writes_since_check_ GUARDED_BY(writer_role_) = 0;

  std::atomic<uint64_t> sequence_{0};
  std::atomic<size_t> size_{0};
  std::atomic<uint64_t> splits_{0};
  std::atomic<uint64_t> merges_{0};
  std::atomic<uint64_t> rebalance_checks_{0};
};

}  // namespace popan::shard

#endif  // POPAN_SHARD_ROUTER_H_
