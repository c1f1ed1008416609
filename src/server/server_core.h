#ifndef POPAN_SERVER_SERVER_CORE_H_
#define POPAN_SERVER_SERVER_CORE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "geometry/point.h"
#include "server/protocol.h"
#include "server/store.h"
#include "server/subscriptions.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace popan::sim {
class ThreadPool;
}  // namespace popan::sim

namespace popan::server {

/// The transport-agnostic query server: a StoreBackend (single
/// CowPrQuadtree or Morton-range sharded map — see store.h), a
/// SubscriptionIndex, and per-client frame outboxes. Requests enter only
/// as bytes, through ConsumeBytes.
///
/// Threading contract: every member function runs on the single command
/// thread (the socket poll loop, or the simulator's issuing loop). The
/// read pool's workers are the only other threads; they touch nothing but
/// one pinned ReadView, inside the ConsumeBytes call that started them.
/// The contract is expressed as a ThreadRole capability: all mutable
/// state is GUARDED_BY(command_role_), every entry point opens an
/// AssumeRole scope, and internal helpers carry REQUIRES(command_role_) —
/// so under clang -Wthread-safety a new code path that touches server
/// state without declaring its affinity fails the build.
///
/// Reads: ConsumeBytes answers each run of consecutive read-kind frames
/// from ONE store pin. One pin is exact because no write can land between
/// two frames of one ConsumeBytes call (the command thread is busy
/// decoding them). A run of two or more reads on a core with
/// `read_threads` completes on the pool's workers plus the command thread
/// itself; any other run completes serially on the same view. Each read
/// encodes its response into its own slot and the slots are appended in
/// request order, so the bytes are the same at any thread count. The pin
/// is released before ConsumeBytes returns, so reads never overlap
/// writes. The pool is spawned on the first run of two or more reads, so
/// a core that only ever sees writes and single reads starts no thread.
///
/// Write path ordering: validate -> apply to the backend (structure,
/// then its WAL in lockstep) -> match subscriptions -> enqueue
/// notifications. Validation (finite, in-bounds) happens before apply so
/// a durability append cannot fail after the structure changed; the
/// response carries the backend's shared sequence.
///
/// Write runs: ConsumeBytes applies each run of consecutive write frames
/// (insert / erase / insert-batch) between one StoreBackend
/// BeginWriteRun/EndWriteRun pair, so the backend can share path copies,
/// publish one version and flush its WAL once for the run. Each write is
/// still validated, applied, matched and answered in request order with
/// its own sequence, so the output bytes equal the per-write path's. Any
/// other frame, a malformed payload or the end of the call ends the run
/// first; EndWriteRun, and with it the run's WAL flush, always happens
/// before ConsumeBytes returns, so no ack of the run reaches a socket
/// ahead of its records.
class ServerCore {
 public:
  /// Serves an externally constructed storage engine (see store.h).
  /// `read_threads` pool workers help complete pipelined read runs (see
  /// the class comment); 0 completes every read on the command thread.
  explicit ServerCore(std::unique_ptr<StoreBackend> store,
                      size_t read_threads = 0);

  /// Joins the read threads, if any were started.
  ~ServerCore();

  ServerCore(const ServerCore&) = delete;
  ServerCore& operator=(const ServerCore&) = delete;

  /// Registers a connection; returns its client id (monotone from 1).
  uint64_t OpenClient();

  /// Drops a connection and every subscription it owns.
  [[nodiscard]] Status CloseClient(uint64_t client_id);

  /// Feeds raw transport bytes from a client. Every complete frame in the
  /// stream is decoded and handled (pipelining: a burst of frames is
  /// answered in order, runs of reads from one pin — see the class
  /// comment); a trailing partial frame is buffered. Returns an
  /// error only for unrecoverable stream corruption (oversized length
  /// prefix, unknown client) — the caller must drop the connection.
  /// Malformed request *payloads* stay recoverable: they produce an error
  /// response and the stream continues.
  [[nodiscard]] Status ConsumeBytes(uint64_t client_id,
                                    std::string_view bytes);

  /// Moves out everything queued for `client_id` (responses and
  /// notifications, in enqueue order). Empty string when nothing pending
  /// or the client is unknown.
  std::string TakeOutput(uint64_t client_id);

  /// Clients with bytes queued, ascending. The poll loop uses this to
  /// arm POLLOUT only where needed.
  std::vector<uint64_t> ClientsWithOutput() const;

  uint64_t sequence() const {
    popan::AssumeRole command(command_role_);
    return store_->sequence();
  }
  size_t size() const {
    popan::AssumeRole command(command_role_);
    return store_->size();
  }
  const StoreBackend& store() const {
    popan::AssumeRole command(command_role_);
    return *store_;
  }
  const SubscriptionIndex& subscriptions() const {
    popan::AssumeRole command(command_role_);
    return subs_;
  }
  uint64_t notifications_sent() const {
    popan::AssumeRole command(command_role_);
    return notifications_sent_;
  }

 private:
  struct ClientState {
    std::string inbox;    ///< undecoded transport bytes (partial frame)
    std::string outbox;   ///< encoded frames awaiting the transport
    std::vector<uint64_t> sub_ids;  ///< subscriptions this client owns
  };

  /// Answers the buffered read run (read_run_) in request order into
  /// `outbox` and empties it (see the class comment).
  void FlushReadRun(std::string* outbox) REQUIRES(command_role_);
  Response HandleWrite(const Request& request) REQUIRES(command_role_);
  /// Ends the store's open write run, if any (see ConsumeBytes).
  void EndWriteRun() REQUIRES(command_role_);
  /// Answers a subscribe, unsubscribe or ping.
  Response HandleControl(uint64_t client_id, const Request& request)
      REQUIRES(command_role_);
  /// Appends one notification frame per subscription matching `p` (in
  /// ascending subscription-id order) to the owning clients' outboxes.
  void NotifyWrite(char op, const geo::Point2& p, uint64_t sequence)
      REQUIRES(command_role_);

  /// The command thread's affinity capability (see threading contract).
  popan::ThreadRole command_role_;
  /// Declared before subs_: the subscription index is constructed from
  /// the backend's bounds.
  std::unique_ptr<StoreBackend> store_ GUARDED_BY(command_role_);
  SubscriptionIndex subs_ GUARDED_BY(command_role_);
  // Ordered: deterministic scans.
  std::map<uint64_t, ClientState> clients_ GUARDED_BY(command_role_);
  // Subscription id -> client id.
  std::map<uint64_t, uint64_t> sub_owner_ GUARDED_BY(command_role_);
  uint64_t next_client_id_ GUARDED_BY(command_role_) = 1;
  uint64_t notifications_sent_ GUARDED_BY(command_role_) = 0;
  std::vector<uint64_t> match_scratch_ GUARDED_BY(command_role_);
  /// Consecutive read-kind requests decoded by ConsumeBytes, not yet
  /// answered (see FlushReadRun).
  std::vector<Request> read_run_ GUARDED_BY(command_role_);
  /// True between the store's BeginWriteRun and EndWriteRun, which one
  /// ConsumeBytes call brackets around each run of consecutive writes.
  bool write_run_open_ GUARDED_BY(command_role_) = false;
  const size_t read_threads_;
  /// Created on the first read run of two or more requests. Declared
  /// last so its workers are joined before anything else is destroyed.
  std::unique_ptr<sim::ThreadPool> read_pool_ GUARDED_BY(command_role_);
};

}  // namespace popan::server

#endif  // POPAN_SERVER_SERVER_CORE_H_
