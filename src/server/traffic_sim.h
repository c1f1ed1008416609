#ifndef POPAN_SERVER_TRAFFIC_SIM_H_
#define POPAN_SERVER_TRAFFIC_SIM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/box.h"

namespace popan::server {

/// Multi-client traffic generator for the query server. Client c's
/// operation stream is a counter-based RNG stream that depends only on
/// (seed, c), never on interleaving. Every request is sent as bytes
/// through ServerCore::ConsumeBytes, the path popan_server runs, and is
/// answered before the next one is issued: a read sees every earlier
/// write and no later one, as in the server, so per-client transcripts
/// are a pure function of the config.
struct TrafficConfig {
  geo::Box2 bounds = geo::Box2::UnitCube();
  size_t clients = 4;
  size_t steps = 64;        ///< requests issued per client
  size_t capacity = 4;      ///< tree leaf capacity
  size_t max_depth = 16;    ///< tree depth limit
  size_t k_max = 8;         ///< k-NN draws k in [1, k_max]
  size_t max_subs_per_client = 4;
  uint64_t seed = 0;
};

/// One client's account of its session, as chained FNV-1a checksums over
/// raw frame bytes: requests in issue order, responses in request order,
/// notifications in delivery order. Equal transcripts mean equal wire
/// traffic, byte for byte.
struct ClientTranscript {
  uint64_t request_checksum = 0;
  uint64_t response_checksum = 0;
  uint64_t notification_checksum = 0;
  uint64_t requests = 0;
  uint64_t responses_ok = 0;
  uint64_t responses_error = 0;
  uint64_t notifications = 0;
};

struct TrafficResult {
  std::vector<ClientTranscript> transcripts;
  /// Folds every transcript plus the final tree state — the single
  /// integer the bench reference gates on.
  uint64_t combined_checksum = 0;
  uint64_t total_requests = 0;
  uint64_t total_notifications = 0;
  uint64_t final_size = 0;
  uint64_t final_sequence = 0;
};

/// Runs the simulated session. Deterministic: two runs with the same
/// config produce identical TrafficResults.
TrafficResult RunTraffic(const TrafficConfig& config);

}  // namespace popan::server

#endif  // POPAN_SERVER_TRAFFIC_SIM_H_
