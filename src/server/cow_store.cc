#include "server/cow_store.h"

#include <utility>

#include "server/snapshot_read_view.h"
#include "util/check.h"

namespace popan::server {

CowTreeBackend::CowTreeBackend(const geo::Box2& bounds,
                               const spatial::PrTreeOptions& options,
                               spatial::WalWriter* wal,
                               uint64_t initial_sequence,
                               const std::vector<geo::Point2>& seed_points)
    : tree_(bounds, options, initial_sequence - seed_points.size()),
      wal_(wal) {
  POPAN_CHECK(initial_sequence >= seed_points.size())
      << "recovered sequence smaller than the recovered point count";
  {
    spatial::CowPrQuadtree::WriteRun run(&tree_);
    for (const geo::Point2& p : seed_points) {
      Status applied = tree_.Insert(p);
      POPAN_CHECK(applied.ok())
          << "seed point rejected: " << applied.ToString();
    }
  }
  POPAN_CHECK(tree_.sequence() == initial_sequence);
  if (wal_ != nullptr) {
    POPAN_CHECK(wal_->next_sequence() == initial_sequence + 1)
        << "WAL and tree sequences out of step at startup";
  }
}

StatusOr<uint64_t> CowTreeBackend::ApplyInsert(const geo::Point2& p) {
  POPAN_RETURN_IF_ERROR(tree_.Insert(p));
  Log('I', p, tree_.sequence());
  return tree_.sequence();
}

StatusOr<uint64_t> CowTreeBackend::ApplyErase(const geo::Point2& p) {
  POPAN_RETURN_IF_ERROR(tree_.Erase(p));
  Log('E', p, tree_.sequence());
  return tree_.sequence();
}

void CowTreeBackend::Log(char op, const geo::Point2& p, uint64_t seq) {
  if (wal_ == nullptr) return;
  StatusOr<uint64_t> logged =
      op == 'I' ? wal_->LogInsert(p) : wal_->LogErase(p);
  POPAN_CHECK(logged.ok()) << "WAL append failed: "
                           << logged.status().ToString();
  POPAN_CHECK(logged.value() == seq) << "WAL fell out of step with the tree";
}

void CowTreeBackend::BeginWriteRun() {
  tree_.BeginRun();
  if (wal_ != nullptr) wal_->BeginRun();
}

void CowTreeBackend::EndWriteRun() {
  if (wal_ != nullptr) {
    Status flushed = wal_->EndRun();
    POPAN_CHECK(flushed.ok()) << "WAL flush failed: " << flushed.ToString();
  }
  tree_.EndRun();
}

StatusOr<std::unique_ptr<const ReadView>> CowTreeBackend::PrepareRead()
    const {
  POPAN_ASSIGN_OR_RETURN(spatial::SnapshotView2 snapshot,
                         tree_.TrySnapshot());
  return std::unique_ptr<const ReadView>(
      std::make_unique<SnapshotReadView<spatial::SnapshotView2>>(
          std::move(snapshot), tree_.bounds()));
}

}  // namespace popan::server
