#ifndef POPAN_PERFBENCH_WORKLOAD_H_
#define POPAN_PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"
#include "server/protocol.h"
#include "util/random.h"

namespace popan::perfbench {

enum class Loop { kClosed, kOpen };

/// One traffic mix. Every constant that shapes the load lives here and is
/// copied into each result record.
struct WorkloadSpec {
  std::string name;
  bool wal = false;       ///< single tree with --wal <tmp>/popan.wal
  bool sharded = false;   ///< --shards / --split-cost / --merge-cost
  size_t max_shards = 0;
  double split_cost = 0.0;
  double merge_cost = 0.0;
  bool clustered = false;  ///< Gaussian clusters instead of uniform data
  size_t preload = 0;      ///< points inserted by kInsertBatch in set-up
  size_t connections = 1;
  Loop loop = Loop::kClosed;
  size_t window = 1;       ///< closed loop: requests in flight per connection
  double rate_rps = 0.0;   ///< open loop: Poisson arrivals, all connections
  size_t subscriptions_per_connection = 0;
};

/// The three mixes, by name; null when unknown.
const WorkloadSpec* FindWorkload(std::string_view name);

/// Server flags for `spec` (after --port 0); `tmp_dir` holds the WAL.
std::vector<std::string> ServerFlags(const WorkloadSpec& spec,
                                     const std::string& tmp_dir);

/// Cluster geometry shared by the clustered mix.
inline constexpr size_t kClusters = 8;
inline constexpr double kClusterSigma = 0.03;
inline constexpr size_t kHotCluster = 0;
std::vector<geo::Point2> ClusterCentres();

/// Connection index used to tag preload points (see TagCoord).
inline constexpr uint32_t kPreloadTag = 15;

/// Replaces the low 28 mantissa bits of `x` (in [0, 1)) with
/// (owner << 24 | serial): the value stays in its binade, so inside the
/// unit square, and two tagged coordinates are equal only when their
/// tags are. That makes every generated point distinct, so no insert is
/// ever a duplicate and no erase ever misses.
double TagCoord(double x, uint32_t owner, uint32_t serial);

/// The seeded preload point set of `spec`.
std::vector<geo::Point2> PreloadPoints(const WorkloadSpec& spec,
                                       uint64_t seed);

/// The kSubscribe boxes connection `conn` registers before the load.
std::vector<geo::Box2> SubscriptionBoxes(const WorkloadSpec& spec,
                                         uint64_t seed, size_t conn);

/// One connection's request stream. Depends only on (seed, connection):
/// the erase target is the connection's oldest acknowledged point, and
/// acknowledgements arrive in request order, so the stream is the same
/// however the server's timing falls.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, uint64_t seed, size_t conn,
           std::deque<geo::Point2> owned);

  /// The next request. Insert points are appended to `*unacked`.
  server::Request Next(std::deque<geo::Point2>* unacked);

  /// Points the server acknowledged as inserted join the erasable set.
  void Acked(const geo::Point2& p) { owned_.push_back(p); }

 private:
  geo::Point2 FreshPoint();
  geo::Point2 NearCluster(size_t cluster);

  const WorkloadSpec& spec_;
  size_t conn_;
  Pcg32 rng_;
  std::vector<geo::Point2> centres_;
  std::deque<geo::Point2> owned_;
  size_t target_owned_;
  uint32_t serial_ = 0;
};

}  // namespace popan::perfbench

#endif  // POPAN_PERFBENCH_WORKLOAD_H_
