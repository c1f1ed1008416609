#ifndef POPAN_SERVER_COW_STORE_H_
#define POPAN_SERVER_COW_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"
#include "server/store.h"
#include "spatial/pr_tree.h"
#include "spatial/snapshot_view.h"
#include "spatial/wal.h"
#include "util/statusor.h"

namespace popan::server {

/// The single-tree storage engine: one CowPrQuadtree plus an optional
/// write-ahead log, sequence numbers advancing in lockstep. This is the
/// original ServerCore storage path extracted behind StoreBackend — its
/// responses are the byte-identity reference the sharded backend is
/// verified against.
class CowTreeBackend final : public StoreBackend {
 public:
  /// `wal` may be null (no durability); when provided it must already be
  /// positioned (fresh header or ResumeAt after recovery) and its
  /// next_sequence must equal `initial_sequence` + 1.
  ///
  /// `seed_points` pre-loads recovered state (WAL replay / checkpoint)
  /// without logging: the tree is constructed so that its sequence lands
  /// exactly on `initial_sequence` after seeding, keeping snapshot
  /// sequence numbers aligned with log sequence numbers across restarts.
  /// `initial_sequence` must be >= seed_points.size().
  CowTreeBackend(const geo::Box2& bounds,
                 const spatial::PrTreeOptions& options,
                 spatial::WalWriter* wal = nullptr,
                 uint64_t initial_sequence = 0,
                 const std::vector<geo::Point2>& seed_points = {});

  const geo::Box2& bounds() const override { return tree_.bounds(); }
  uint64_t sequence() const override { return tree_.sequence(); }
  size_t size() const override { return tree_.size(); }

  [[nodiscard]] StatusOr<uint64_t> ApplyInsert(
      const geo::Point2& p) override;
  [[nodiscard]] StatusOr<uint64_t> ApplyErase(
      const geo::Point2& p) override;
  /// A run shares path copies and publishes one version per
  /// CowPrTree::kMaxRunOps writes; its WAL records are flushed once, at
  /// EndWriteRun, which aborts the process if the flush fails.
  void BeginWriteRun() override;
  void EndWriteRun() override;
  [[nodiscard]] StatusOr<std::unique_ptr<const ReadView>> PrepareRead()
      const override;

  const spatial::CowPrQuadtree& tree() const { return tree_; }

 private:
  /// Logs the write the tree just stamped with `seq`; aborts the process
  /// when the log cannot take it, before any ack of it can leave.
  void Log(char op, const geo::Point2& p, uint64_t seq);

  spatial::CowPrQuadtree tree_;
  spatial::WalWriter* wal_;
};

}  // namespace popan::server

#endif  // POPAN_SERVER_COW_STORE_H_
