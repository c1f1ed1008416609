#include "server/shard_store.h"

#include <utility>

#include "server/snapshot_read_view.h"
#include "util/check.h"

namespace popan::server {

ShardStoreBackend::ShardStoreBackend(
    std::unique_ptr<shard::ShardRouter> router)
    : router_(std::move(router)) {
  POPAN_CHECK(router_ != nullptr);
}

StatusOr<uint64_t> ShardStoreBackend::ApplyInsert(const geo::Point2& p) {
  POPAN_RETURN_IF_ERROR(router_->Insert(p));
  return router_->sequence();
}

StatusOr<uint64_t> ShardStoreBackend::ApplyErase(const geo::Point2& p) {
  POPAN_RETURN_IF_ERROR(router_->Erase(p));
  return router_->sequence();
}

StatusOr<std::unique_ptr<const ReadView>> ShardStoreBackend::PrepareRead()
    const {
  POPAN_ASSIGN_OR_RETURN(shard::MultiSnapshot snapshot,
                         router_->TrySnapshot());
  return std::unique_ptr<const ReadView>(
      std::make_unique<SnapshotReadView<shard::MultiSnapshot>>(
          std::move(snapshot), router_->domain()));
}

}  // namespace popan::server
