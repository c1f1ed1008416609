#ifndef POPAN_SERVER_SERVER_CORE_H_
#define POPAN_SERVER_SERVER_CORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
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
/// read pool's workers are the only other threads; each completes reads
/// of one pooled run (its pinned ReadView and its own answer slot), and
/// the worker that completes a run's last read publishes the run and
/// calls the reads-done callback. The contract is expressed as a
/// ThreadRole capability: all mutable state the workers do not share is
/// GUARDED_BY(command_role_), every entry point opens an AssumeRole
/// scope, and internal helpers carry REQUIRES(command_role_) — so under
/// clang -Wthread-safety a new code path that touches server state
/// without declaring its affinity fails the build.
///
/// Reads: ConsumeBytes answers each run of consecutive read-kind frames
/// from ONE store pin, taken where the run ends (at the next other frame
/// or the end of the call), so the run sees every write before it and no
/// write after it, from this client or any other. On a core with
/// `read_threads`, a run of two or more reads, or any read from a client
/// that still has a run in flight, goes to the pool as one task per read
/// and keeps completing after ConsumeBytes returns; a lone read from a
/// client with nothing in flight completes inline on the same view, as
/// every read does at 0 read threads. A client's output is its ready
/// bytes followed by its runs in flight, oldest first, each with the
/// bytes queued after it (write acks, control and error answers,
/// notifications), so TakeOutput hands out only the ready prefix, in
/// request order, and never blocks: each client's byte stream equals the
/// 0-thread core's. A run's pin is released when its last read completes;
/// WaitForReads blocks until no run is in flight. When no reader slot is
/// free while runs of this core are in flight, the core waits for them
/// and pins again; a run is shed with ResourceExhausted only when none of
/// its own runs holds a pin. The pool is spawned on the first pooled run,
/// so a core that only ever sees writes and lone reads starts no thread.
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
  /// `read_threads` pool workers complete pipelined read runs (see the
  /// class comment); 0 completes every read on the command thread.
  explicit ServerCore(std::unique_ptr<StoreBackend> store,
                      size_t read_threads = 0);

  /// Lets the runs in flight complete, then joins the read threads, if
  /// any were started.
  ~ServerCore();

  ServerCore(const ServerCore&) = delete;
  ServerCore& operator=(const ServerCore&) = delete;

  /// Registers a connection; returns its client id (monotone from 1).
  uint64_t OpenClient();

  /// Drops a connection and every subscription it owns. Its runs in
  /// flight still complete and release their pins; their answers are
  /// dropped.
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

  /// Moves out the bytes ready for `client_id` (responses and
  /// notifications, in enqueue order): everything queued ahead of its
  /// oldest run still in flight. Never blocks. Empty string when nothing
  /// is ready or the client is unknown.
  std::string TakeOutput(uint64_t client_id);

  /// Clients for which TakeOutput would return bytes now, ascending.
  std::vector<uint64_t> ClientsWithOutput() const;

  /// Blocks until no pooled read run is in flight; their answers are then
  /// ready for TakeOutput and their pins released.
  void WaitForReads();

  /// Registers `callback`, which a read worker calls on its own thread
  /// each time it completes a run; an empty callback unregisters. The
  /// callback must not call into the core. Waits for the runs in flight
  /// first, so once this returns the previous callback is neither running
  /// nor called again.
  void SetReadsDoneCallback(std::function<void()> callback);

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
  /// A read run handed to the pool, and the client's output queued
  /// behind it. Each worker writes only its own read's frame; the one that
  /// completes the last read joins the frames into `bytes`, releases the
  /// pin and sets `done`. Only the command thread touches `after`, and
  /// the rest once `done` is set.
  struct PooledRun {
    std::unique_ptr<const ReadView> view;
    std::vector<Request> requests;
    std::vector<std::string> frames;
    std::string bytes;
    std::atomic<size_t> reads_left{0};
    std::atomic<bool> done{false};
    std::string after;
  };

  struct ClientState {
    std::string inbox;   ///< undecoded transport bytes (partial frame)
    std::string outbox;  ///< encoded frames ready for the transport
    /// Runs in flight, oldest first.
    std::deque<std::shared_ptr<PooledRun>> runs;
    std::vector<uint64_t> sub_ids;  ///< subscriptions this client owns
  };

  /// Where the next byte queued for `client` goes: behind its newest run
  /// in flight, or ready when it has none.
  static std::string& Out(ClientState* client) {
    return client->runs.empty() ? client->outbox : client->runs.back()->after;
  }
  /// Moves the client's completed runs at the head of its queue, and the
  /// bytes queued behind them, into its outbox.
  static void CollectRuns(ClientState* client);

  /// Answers the buffered read run (read_run_) for `client`, inline or on
  /// the pool, and empties it (see the class comment).
  void FlushReadRun(ClientState* client) REQUIRES(command_role_);
  /// Hands the buffered read run, pinned on `view`, to the pool.
  void StartRun(ClientState* client, std::unique_ptr<const ReadView> view)
      REQUIRES(command_role_);
  /// Read worker: completes read `i` of `run`; the last one publishes it.
  void CompleteRead(PooledRun* run, size_t i);
  Response HandleWrite(const Request& request) REQUIRES(command_role_);
  /// Ends the store's open write run, if any (see ConsumeBytes).
  void EndWriteRun() REQUIRES(command_role_);
  static void Answer(ClientState* client, const Response& response);
  /// Answers a subscribe, unsubscribe or ping.
  Response HandleControl(uint64_t client_id, const Request& request)
      REQUIRES(command_role_);
  /// Appends one notification frame per subscription matching `p` (in
  /// ascending subscription-id order) to the owning clients' queues.
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
  /// Read by the workers; set only while no run is in flight, and the
  /// pool's queue orders that write before their reads.
  std::function<void()> reads_done_;
  /// Created on the first pooled run. Declared last so its workers finish
  /// the queued reads and are joined before anything else is destroyed.
  std::unique_ptr<sim::ThreadPool> read_pool_ GUARDED_BY(command_role_);
};

}  // namespace popan::server

#endif  // POPAN_SERVER_SERVER_CORE_H_
