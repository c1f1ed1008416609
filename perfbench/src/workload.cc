#include "workload.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/check.h"

namespace popan::perfbench {

namespace {

/// Set-up and request streams are independent Pcg32 streams keyed by
/// (seed, stream id).
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  SplitMix64 mix(seed ^ (stream * 0x9e3779b97f4a7c15ULL));
  return mix.Next();
}

constexpr uint64_t kPreloadStream = 1;
constexpr uint64_t kOpStreamBase = 100;
constexpr uint64_t kSubscriptionStreamBase = 300;

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> all;

    WorkloadSpec ingest;
    ingest.name = "ingest_wal";
    ingest.wal = true;
    ingest.preload = size_t{1} << 18;
    ingest.connections = 2;
    ingest.window = 32;
    all.push_back(ingest);

    WorkloadSpec scan;
    scan.name = "range_scan";
    scan.preload = size_t{1} << 20;
    scan.connections = 3;
    scan.window = 16;
    all.push_back(scan);

    WorkloadSpec mixed;
    mixed.name = "mixed_sharded";
    mixed.sharded = true;
    mixed.max_shards = 256;
    mixed.split_cost = 24.0;
    mixed.merge_cost = 6.0;
    mixed.clustered = true;
    mixed.preload = size_t{1} << 17;
    mixed.connections = 4;
    mixed.subscriptions_per_connection = 4;
    all.push_back(mixed);
    return all;
  }();
  return specs;
}

geo::Point2 ClampToUnit(double x, double y) {
  constexpr double kTop = 1.0 - 0x1.0p-40;
  return geo::Point2(std::clamp(x, 0.0, kTop), std::clamp(y, 0.0, kTop));
}

geo::Box2 BoxAround(double cx, double cy, double side) {
  geo::Point2 lo = ClampToUnit(cx - side / 2, cy - side / 2);
  geo::Point2 hi = ClampToUnit(cx + side / 2, cy + side / 2);
  return geo::Box2(lo, hi);
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> ServerFlags(const WorkloadSpec& spec,
                                     const std::string& tmp_dir) {
  std::vector<std::string> flags;
  if (spec.wal) {
    flags.push_back("--wal");
    flags.push_back(tmp_dir + "/popan.wal");
  }
  if (spec.sharded) {
    flags.push_back("--shards");
    flags.push_back(std::to_string(spec.max_shards));
    flags.push_back("--split-cost");
    flags.push_back(std::to_string(spec.split_cost));
    flags.push_back("--merge-cost");
    flags.push_back(std::to_string(spec.merge_cost));
  }
  return flags;
}

std::vector<geo::Point2> ClusterCentres() {
  // A fixed ring, neighbours 0.23 apart (about 8 sigma): the clusters
  // never overlap, so the store's shape does not change from seed to
  // seed; the seed drives only the draws around the centres.
  std::vector<geo::Point2> centres;
  for (size_t i = 0; i < kClusters; ++i) {
    double angle = 2.0 * M_PI * static_cast<double>(i) / kClusters;
    centres.emplace_back(0.5 + 0.3 * std::cos(angle),
                         0.5 + 0.3 * std::sin(angle));
  }
  return centres;
}

double TagCoord(double x, uint32_t owner, uint32_t serial) {
  POPAN_CHECK(owner < 16 && serial < (1u << 24)) << "tag out of range";
  constexpr uint64_t kMask = (uint64_t{1} << 28) - 1;
  uint64_t bits = std::bit_cast<uint64_t>(x);
  bits = (bits & ~kMask) | (uint64_t{owner} << 24) | serial;
  return std::bit_cast<double>(bits);
}

std::vector<geo::Point2> PreloadPoints(const WorkloadSpec& spec,
                                       uint64_t seed) {
  Pcg32 rng(StreamSeed(seed, kPreloadStream));
  std::vector<geo::Point2> centres = ClusterCentres();
  std::vector<geo::Point2> points;
  points.reserve(spec.preload);
  for (uint32_t i = 0; points.size() < spec.preload; ++i) {
    double x = 0.0;
    double y = 0.0;
    if (spec.clustered) {
      const geo::Point2& c = centres[rng.NextBounded(kClusters)];
      x = rng.NextGaussian(c.x(), kClusterSigma);
      y = rng.NextGaussian(c.y(), kClusterSigma);
      if (x < 0.0 || x >= 1.0 || y < 0.0 || y >= 1.0) continue;
    } else {
      x = rng.NextDouble();
      y = rng.NextDouble();
    }
    points.emplace_back(TagCoord(x, kPreloadTag, i), y);
  }
  return points;
}

std::vector<geo::Box2> SubscriptionBoxes(const WorkloadSpec& spec,
                                         uint64_t seed, size_t conn) {
  std::vector<geo::Point2> centres = ClusterCentres();
  Pcg32 rng(StreamSeed(seed, kSubscriptionStreamBase + conn));
  std::vector<geo::Box2> boxes;
  for (size_t j = 0; j < spec.subscriptions_per_connection; ++j) {
    const geo::Point2& c = centres[(2 * conn + j) % kClusters];
    boxes.push_back(BoxAround(c.x(), c.y(), rng.NextDouble(0.03, 0.05)));
  }
  return boxes;
}

OpStream::OpStream(const WorkloadSpec& spec, uint64_t seed, size_t conn,
                   std::deque<geo::Point2> owned)
    : spec_(spec),
      conn_(conn),
      rng_(StreamSeed(seed, kOpStreamBase + conn)),
      centres_(ClusterCentres()),
      owned_(std::move(owned)),
      target_owned_(owned_.size()) {}

geo::Point2 OpStream::FreshPoint() {
  double x = rng_.NextDouble();
  double y = rng_.NextDouble();
  return geo::Point2(TagCoord(x, static_cast<uint32_t>(conn_), serial_++), y);
}

geo::Point2 OpStream::NearCluster(size_t cluster) {
  const geo::Point2& c = centres_[cluster];
  for (;;) {
    double x = rng_.NextGaussian(c.x(), kClusterSigma);
    double y = rng_.NextGaussian(c.y(), kClusterSigma);
    if (x >= 0.0 && x < 1.0 && y >= 0.0 && y < 1.0) return geo::Point2(x, y);
  }
}

server::Request OpStream::Next(std::deque<geo::Point2>* unacked) {
  using server::MsgType;
  server::Request request;
  double u = rng_.NextDouble();
  if (spec_.name == "ingest_wal") {
    // Single insert 33.5%, batch of 32 1%, erase 65.5%: the expected
    // points inserted equal the points erased. A drift guard keeps the
    // owned set within 0.5% of its starting size.
    double size = static_cast<double>(owned_.size());
    double target = static_cast<double>(target_owned_);
    bool force_erase = size > target * 1.005;
    bool force_insert = size < target * 0.995 || owned_.empty();
    if (force_erase || (!force_insert && u >= 0.345)) {
      request.type = MsgType::kErase;
      request.point = owned_.front();
      owned_.pop_front();
    } else if (!force_insert && u < 0.01) {
      request.type = MsgType::kInsertBatch;
      for (int i = 0; i < 32; ++i) {
        request.batch.push_back(FreshPoint());
        unacked->push_back(request.batch.back());
      }
    } else {
      request.type = MsgType::kInsert;
      request.point = FreshPoint();
      unacked->push_back(request.point);
    }
    return request;
  }
  if (spec_.name == "range_scan") {
    if (u < 0.80) {
      // Side log-uniform in [0.001, 0.03]: range-search cost spreads
      // widely with query size.
      double side = std::exp(rng_.NextDouble(std::log(0.001), std::log(0.03)));
      double lx = rng_.NextDouble(0.0, 1.0 - side);
      double ly = rng_.NextDouble(0.0, 1.0 - side);
      request.type = MsgType::kRange;
      request.box = geo::Box2(geo::Point2(lx, ly),
                              geo::Point2(lx + side, ly + side));
    } else if (u < 0.95) {
      request.type = MsgType::kNearestK;
      request.point = geo::Point2(rng_.NextDouble(), rng_.NextDouble());
      request.k = 1 + rng_.NextBounded(32);
    } else {
      request.type = MsgType::kPartialMatch;
      request.axis = static_cast<uint8_t>(rng_.NextBounded(2));
      request.value = rng_.NextDouble();
    }
    return request;
  }
  // mixed_sharded: 55% small range, 10% 8-NN, 25% insert, 10% erase,
  // all near the clusters. Half the inserts go to a hot cluster, so its
  // shards keep growing and the balancer splits them while measured.
  if (u < 0.55) {
    geo::Point2 c = NearCluster(rng_.NextBounded(kClusters));
    request.type = MsgType::kRange;
    request.box = BoxAround(c.x(), c.y(), rng_.NextDouble(0.005, 0.02));
  } else if (u < 0.65) {
    request.type = MsgType::kNearestK;
    request.point = NearCluster(rng_.NextBounded(kClusters));
    request.k = 8;
  } else if (u < 0.90 || owned_.empty()) {
    bool hot = rng_.NextDouble() < 0.5;
    geo::Point2 c = NearCluster(hot ? kHotCluster : rng_.NextBounded(kClusters));
    request.type = MsgType::kInsert;
    request.point = geo::Point2(
        TagCoord(c.x(), static_cast<uint32_t>(conn_), serial_++), c.y());
    unacked->push_back(request.point);
  } else {
    request.type = MsgType::kErase;
    request.point = owned_.front();
    owned_.pop_front();
  }
  return request;
}

}  // namespace popan::perfbench
