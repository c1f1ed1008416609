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
  for (const geo::Point2& p : seed_points) {
    Status applied = tree_.Insert(p);
    POPAN_CHECK(applied.ok())
        << "seed point rejected: " << applied.ToString();
  }
  POPAN_CHECK(tree_.sequence() == initial_sequence);
  if (wal_ != nullptr) {
    POPAN_CHECK(wal_->next_sequence() == initial_sequence + 1)
        << "WAL and tree sequences out of step at startup";
  }
}

StatusOr<uint64_t> CowTreeBackend::ApplyInsert(const geo::Point2& p) {
  POPAN_RETURN_IF_ERROR(tree_.Insert(p));
  uint64_t seq = tree_.sequence();
  if (wal_ != nullptr) {
    StatusOr<uint64_t> logged = wal_->LogInsert(p);
    POPAN_CHECK(logged.ok() && logged.value() == seq)
        << "WAL fell out of step with the tree";
  }
  return seq;
}

StatusOr<uint64_t> CowTreeBackend::ApplyErase(const geo::Point2& p) {
  POPAN_RETURN_IF_ERROR(tree_.Erase(p));
  uint64_t seq = tree_.sequence();
  if (wal_ != nullptr) {
    StatusOr<uint64_t> logged = wal_->LogErase(p);
    POPAN_CHECK(logged.ok() && logged.value() == seq)
        << "WAL fell out of step with the tree";
  }
  return seq;
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
