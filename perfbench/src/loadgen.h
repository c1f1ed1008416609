#ifndef POPAN_PERFBENCH_LOADGEN_H_
#define POPAN_PERFBENCH_LOADGEN_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"
#include "server/protocol.h"
#include "workload.h"

namespace popan::perfbench {

/// At most this many load-generator threads; connections are dealt to
/// them round-robin, each thread polling its own.
inline constexpr size_t kMaxLoadThreads = 2;

/// Latency and throughput are summarised per slice of the window this
/// long, then as the interquartile mean over the slices.
inline constexpr int64_t kSliceNs = 500'000'000;

struct LoadOptions {
  double warmup_s = 1.0;
  double seconds = 10.0;
  /// Keep what the traced run's replays need: request frames, a sample
  /// of decoded responses, and the joins of writes (by sequence) and
  /// reads (by ReadKey) to request ids.
  bool record = false;
  /// Self-test: SIGSTOP `pause_pid` at `pause_at_s` after load start for
  /// `pause_ms`, then SIGCONT.
  pid_t pause_pid = 0;
  double pause_at_s = 0.0;
  double pause_ms = 0.0;
  /// Told the measured window [start, end) before the load starts.
  std::function<void(int64_t, int64_t)> on_window;
};

/// A read request and the response it got.
struct ReadSample {
  server::Request request;
  server::Response response;
};

struct LoadResult {
  /// Every load request sent, and those answered with an error, never
  /// answered, or lost with their connection.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Successful responses that arrived inside the measured window.
  uint64_t ok_in_window = 0;
  double window_s = 0.0;
  /// Per successful in-window response: latency from the intended send
  /// time (open loop) or the send time (closed loop); from the send
  /// time; and, open loop only, how late the generator sent.
  std::vector<int64_t> latency_ns;
  std::vector<uint32_t> latency_slice;  ///< kSliceNs slice of each sample
  std::vector<int64_t> send_latency_ns;
  std::vector<int64_t> late_ns;
  /// Bytes received, point writes acknowledged and notifications
  /// received inside the window.
  uint64_t bytes_in_window = 0;
  uint64_t point_writes_in_window = 0;
  uint64_t notifications_in_window = 0;
  /// Read responses inside the window and their QueryCost sums;
  /// `model_*` covers the reads that carry a predicted node count.
  uint64_t reads = 0;
  double nodes = 0.0;
  double results = 0.0;
  double scanned = 0.0;
  double model_nodes = 0.0;
  double predicted_nodes = 0.0;
  /// Points acknowledged as inserted / erased over the whole run.
  uint64_t inserted_points = 0;
  uint64_t erased_points = 0;
  /// Write-to-notification delays, in window.
  std::vector<int64_t> delivery_ns;
  /// Correctness violations; any entry makes the run incorrect.
  std::vector<std::string> violations;
  /// The first error responses, for the log.
  std::vector<std::string> errors;
  std::vector<ReadSample> oracle;
  double loadgen_cpu_s = 0.0;
  uint64_t final_size = 0;

  // Recordings (LoadOptions::record).
  std::vector<std::vector<std::string>> frames;
  std::vector<server::Response> responses;
  std::vector<std::vector<geo::Box2>> boxes;
  std::vector<std::pair<uint64_t, uint64_t>> write_ids;  ///< seq -> id
  std::vector<std::pair<uint64_t, uint64_t>> read_ids;   ///< key -> id
};

/// A key that identifies a read request by its parameters (generated
/// coordinates are distinct), used to join server-side read spans to
/// client requests.
uint64_t ReadKey(const server::Request& request);

/// Request ids: connection in the high bits, per-connection number below.
inline uint64_t RequestId(size_t conn, uint64_t index) {
  return (uint64_t{conn} << 40) | index;
}

/// Opens `spec.connections` connections to 127.0.0.1:`port`, registers
/// the subscriptions, runs the mix for warmup + measured window, drains,
/// and checks the answers: response order, per-connection sequence
/// order, notification contents and the final census size (which must
/// equal `preload` + inserted - erased). `owned[c]` is connection c's
/// share of the preload, the points it may erase.
LoadResult RunLoad(const WorkloadSpec& spec, uint64_t seed, uint16_t port,
                   size_t preload, std::vector<std::deque<geo::Point2>> owned,
                   const LoadOptions& options);

/// Preloads `points` over one connection with kInsertBatch frames and
/// checks every point was inserted. Returns false with a message on
/// failure.
bool Preload(uint16_t port, const std::vector<geo::Point2>& points,
             int64_t deadline_ns, std::string* error);

/// Deals the preload points to the connections round-robin.
std::vector<std::deque<geo::Point2>> DealPreload(
    const std::vector<geo::Point2>& points, size_t connections);

}  // namespace popan::perfbench

#endif  // POPAN_PERFBENCH_LOADGEN_H_
