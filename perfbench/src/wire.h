#ifndef POPAN_PERFBENCH_WIRE_H_
#define POPAN_PERFBENCH_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "server/protocol.h"
#include "util/status.h"
#include "util/statusor.h"

namespace popan::perfbench {

/// One request the client has sent and not yet seen answered.
struct Pending {
  server::MsgType type = server::MsgType::kPing;
  int64_t intended_ns = 0;  ///< open loop: due time; else the send time
  int64_t sent_ns = 0;
  uint32_t insert_points = 0;  ///< points this request asks to insert
  bool in_window = false;      ///< sent inside the measured window
  uint64_t index = 0;          ///< per-connection request number
};

/// What a received frame is, relative to the oldest outstanding request.
enum class FrameKind {
  kResponse,      ///< answers the oldest outstanding request
  kNotification,  ///< a region-subscription notification
  kUnexpected,    ///< a response out of request order, or unsolicited
};

/// The server answers each connection's requests in order, so a response
/// must carry the response type of the oldest outstanding request;
/// anything else is a protocol violation the benchmark fails on.
FrameKind Classify(std::string_view payload,
                   const std::deque<Pending>& pending);

/// A non-blocking loopback TCP connection with its send and receive
/// buffers and the FIFO of outstanding requests. Owns the socket.
class Connection {
 public:
  explicit Connection(int fd) : fd_(fd) {}
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Connects to 127.0.0.1:`port`.
  [[nodiscard]] static StatusOr<int> ConnectLoopback(uint16_t port);

  int fd() const { return fd_; }
  bool wants_write() const { return out_offset_ < out_.size(); }
  std::deque<Pending>& pending() { return pending_; }
  uint64_t bytes_in() const { return bytes_in_; }

  /// Appends an encoded frame to the send buffer and `pending` to the
  /// outstanding FIFO. Nothing is sent until Flush.
  void Queue(const std::string& frame, const Pending& pending);

  /// Sends what the socket takes; false on a dead socket.
  bool Flush();

  /// Reads everything available; false on EOF or a dead socket.
  bool ReadAvailable();

  /// Appends raw bytes as if read from the socket (self-test).
  void Inject(std::string_view bytes) { in_.append(bytes); }

  /// Pops the next complete frame payload into `*payload` (valid until
  /// the next call). False when no complete frame is buffered; `*error`
  /// is set when the stream is poisoned.
  bool NextPayload(std::string_view* payload, Status* error);

 private:
  int fd_;
  std::string out_;
  size_t out_offset_ = 0;
  std::string in_;
  size_t in_offset_ = 0;
  uint64_t bytes_in_ = 0;
  std::deque<Pending> pending_;
};

/// Set-up exchange on an idle connection: sends `frames` with at most
/// `window` in flight and returns the responses in order, skipping
/// notifications. Fails on an error response, a dead connection or the
/// deadline.
[[nodiscard]] StatusOr<std::vector<server::Response>> Exchange(
    Connection* conn, const std::vector<std::string>& frames, size_t window,
    int64_t deadline_ns);

}  // namespace popan::perfbench

#endif  // POPAN_PERFBENCH_WIRE_H_
