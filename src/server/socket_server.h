#ifndef POPAN_SERVER_SOCKET_SERVER_H_
#define POPAN_SERVER_SOCKET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "server/server_core.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"

namespace popan::server {

/// TCP transport for ServerCore: a single-threaded poll() loop on
/// loopback. One thread keeps the command path serial (the ServerCore
/// contract) and owns every socket. Concurrency comes from inside the
/// core: each read of a socket is handed to ServerCore::ConsumeBytes,
/// which may leave a pipelined run of reads completing on its read
/// threads after it returns. The core keeps each client's output in
/// request order and hands out only what is ready; a worker that
/// completes a run wakes the poll loop through the self-pipe, and the
/// loop then sends every connection's ready bytes. Connections map 1:1
/// to ServerCore clients; a framing violation or peer hangup closes the
/// connection and drops its subscriptions.
///
/// Thread affinity is expressed as a capability: everything the command
/// thread owns is GUARDED_BY(command_role_), so under clang
/// -Wthread-safety a new method touching the connection table without
/// declaring the affinity fails the build. The only any-thread entry
/// points are RequestStop() (atomic flag + self-pipe, async-signal-safe),
/// the read workers' completion wake (the same, coalesced) and the
/// destructor of an already-stopped server.
class SocketServer {
 public:
  /// Queued-output ceiling per connection. A subscriber that never drains
  /// its socket would otherwise grow pending_out without bound; past the
  /// cap the connection is dropped (and its subscriptions with it), which
  /// is the backpressure policy a slow consumer signed up for.
  static constexpr size_t kDefaultMaxPendingOut = 4 * 1024 * 1024;

  /// `core` must outlive the server. `max_pending_out` overrides the
  /// per-connection output cap (tests use a small one).
  explicit SocketServer(ServerCore* core,
                        size_t max_pending_out = kDefaultMaxPendingOut);
  /// Waits for the core's runs in flight and unregisters the completion
  /// wake, so no read worker calls into a destroyed transport.
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds and listens on 127.0.0.1:`port` (0 = ephemeral); returns the
  /// actual port, and from then on read workers wake the poll loop as
  /// they complete runs. Command thread.
  [[nodiscard]] StatusOr<uint16_t> Listen(uint16_t port);

  /// Runs the poll loop until RequestStop() is called (from any thread)
  /// or an unrecoverable listener error occurs. After a stop it accepts
  /// and reads nothing more, but lets the runs in flight complete and
  /// sends the output queued to every peer still reading it before
  /// returning. Command thread.
  [[nodiscard]] Status Serve();

  /// Wakes the poll loop and makes Serve() return. Safe from any thread
  /// and from a signal handler (an atomic store plus one write() to a
  /// self-pipe).
  void RequestStop();

  /// Command thread (reads the connection table).
  size_t connection_count() const {
    popan::AssumeRole command(command_role_);
    return connections_.size();
  }

 private:
  struct Connection {
    int fd = -1;
    uint64_t client_id = 0;
    std::string pending_out;  ///< bytes the socket would not yet take
  };

  /// Any thread: one byte into the self-pipe wakes the poll loop.
  void WriteWakeByte();
  /// A read worker completed a run: wakes the poll loop unless a wake is
  /// already pending (see reads_woken_).
  void WakeForReads();
  void AcceptNew() REQUIRES(command_role_);
  /// Reads what is available; returns false when the connection is done
  /// (EOF, error, or protocol poison) and must be closed.
  bool ReadFrom(Connection* conn) REQUIRES(command_role_);
  /// Moves the core's ready output for `conn` behind its pending_out.
  void TakeCoreOutput(Connection* conn) REQUIRES(command_role_);
  /// Flushes queued output; returns false on a dead socket or when the
  /// queue exceeded max_pending_out_.
  bool FlushTo(Connection* conn) REQUIRES(command_role_);
  /// Serve's stop path: flushes every connection's queued output, polling
  /// for writability until all is sent or no peer takes bytes within
  /// kDrainPollMs.
  void DrainOutput() REQUIRES(command_role_);
  void CloseConnection(int fd) REQUIRES(command_role_);

  ServerCore* core_;  // set once in the ctor, never reseated
  const size_t max_pending_out_;
  /// The poll-loop thread's affinity capability (see class comment).
  popan::ThreadRole command_role_;
  int listen_fd_ GUARDED_BY(command_role_) = -1;
  /// [0] is drained by the command thread; [1] is written by RequestStop
  /// and the read workers from any thread. Both ends are set once in
  /// Listen (before Serve can run, and before the workers' wake is
  /// registered) and closed only in the destructor, after it is
  /// unregistered, so the fds themselves need no guard.
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> stop_requested_{false};  // any thread, explicit orders
  /// Set by the completion that writes a wake byte; later completions
  /// ride on that byte until the loop clears the flag (after the drain,
  /// before it collects output; see Serve).
  std::atomic<bool> reads_woken_{false};
  // Keyed by fd; ordered scans.
  std::map<int, Connection> connections_ GUARDED_BY(command_role_);
};

}  // namespace popan::server

#endif  // POPAN_SERVER_SOCKET_SERVER_H_
