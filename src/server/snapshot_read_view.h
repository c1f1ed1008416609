#ifndef POPAN_SERVER_SNAPSHOT_READ_VIEW_H_
#define POPAN_SERVER_SNAPSHOT_READ_VIEW_H_

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <utility>

#include "core/query_model.h"
#include "geometry/box.h"
#include "query/query.h"
#include "server/protocol.h"
#include "server/store.h"
#include "spatial/census.h"

namespace popan::server {

/// The ReadView both store backends hand out: one pinned snapshot — a
/// spatial::SnapshotView2 for CowTreeBackend, a shard::MultiSnapshot for
/// ShardStoreBackend. Complete is a pure function of (snapshot, request),
/// so a client cannot tell the backends apart except through the cost
/// counters. `domain` is the root block the snapshot covers (the model's
/// normalisation). `Execute(snapshot, spec)` resolves by argument-dependent
/// lookup: query::Execute for a SnapshotView2, shard::Execute (fan-out +
/// canonical merge) for a MultiSnapshot. One view serves a whole read run,
/// completed concurrently by the read pool, so the cost model its answers
/// carry is built once per view, on first use.
template <typename Snapshot>
class SnapshotReadView final : public ReadView {
 public:
  SnapshotReadView(Snapshot snapshot, const geo::Box2& domain)
      : snapshot_(std::move(snapshot)), domain_(domain) {}

  Response Complete(const Request& request) const override {
    Response response;
    response.type = ResponseTypeFor(request.type);
    response.sequence = snapshot_.sequence();
    if (request.type == MsgType::kCensus) {
      const spatial::Census& census = snapshot_.LiveCensus();
      response.size = snapshot_.size();
      response.leaf_count = snapshot_.LeafCount();
      response.max_depth = static_cast<uint32_t>(census.MaxDepth());
      response.average_occupancy = census.AverageOccupancy();
      return response;
    }
    query::QuerySpec spec;
    switch (request.type) {
      case MsgType::kRange:
        spec = query::QuerySpec::Range(request.box);
        break;
      case MsgType::kPartialMatch:
        spec = query::QuerySpec::PartialMatch(request.axis, request.value);
        break;
      default:
        spec = query::QuerySpec::NearestK(request.point, request.k);
        break;
    }
    query::QueryResult result = Execute(snapshot_, spec);
    response.cost = result.cost;
    response.points = std::move(result.points);
    // The serving-time cost estimate rides along with every query
    // answer: the same census-driven model the offline analysis uses,
    // evaluated on the pinned version, so a client can compare predicted
    // against measured work per request.
    if (request.type != MsgType::kNearestK && snapshot_.size() > 0) {
      const core::QueryCostModel& model = Model();
      if (request.type == MsgType::kRange) {
        double qx = std::min(request.box.Extent(0), domain_.Extent(0));
        double qy = std::min(request.box.Extent(1), domain_.Extent(1));
        response.predicted_nodes = model.PredictRange(qx, qy).nodes;
      } else {
        response.predicted_nodes = model.PredictPartialMatch().nodes;
      }
    }
    return response;
  }

  uint64_t sequence() const override { return snapshot_.sequence(); }

 private:
  /// The census-driven model of the pinned version. Complete runs on
  /// several read workers at once, hence call_once.
  const core::QueryCostModel& Model() const {
    std::call_once(model_once_, [this] {
      model_ = core::QueryCostModel::FromCensus(snapshot_.LiveCensus(),
                                                domain_);
    });
    return model_;
  }

  Snapshot snapshot_;
  geo::Box2 domain_;
  mutable std::once_flag model_once_;
  mutable core::QueryCostModel model_;
};

}  // namespace popan::server

#endif  // POPAN_SERVER_SNAPSHOT_READ_VIEW_H_
