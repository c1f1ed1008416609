#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fcntl.h>

#include "stats.h"

namespace popan::perfbench {

using server::MsgType;

FrameKind Classify(std::string_view payload,
                   const std::deque<Pending>& pending) {
  if (payload.empty()) return FrameKind::kUnexpected;
  uint8_t type = static_cast<uint8_t>(payload[0]);
  if (type == static_cast<uint8_t>(MsgType::kNotification)) {
    return FrameKind::kNotification;
  }
  if (pending.empty() ||
      type != server::ResponseTypeFor(pending.front().type)) {
    return FrameKind::kUnexpected;
  }
  return FrameKind::kResponse;
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<int> Connection::ConnectLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(std::string("socket: ") + strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = Status::Internal(std::string("connect: ") + strerror(errno));
    ::close(fd);
    return status;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    ::close(fd);
    return Status::Internal("cannot make the socket non-blocking");
  }
  return fd;
}

void Connection::Queue(const std::string& frame, const Pending& pending) {
  if (out_offset_ == out_.size()) {
    out_.clear();
    out_offset_ = 0;
  }
  out_ += frame;
  pending_.push_back(pending);
}

bool Connection::Flush() {
  while (out_offset_ < out_.size()) {
    ssize_t n = ::send(fd_, out_.data() + out_offset_,
                       out_.size() - out_offset_, MSG_NOSIGNAL);
    if (n > 0) {
      out_offset_ += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  out_.clear();
  out_offset_ = 0;
  return true;
}

bool Connection::ReadAvailable() {
  if (in_offset_ > 0 && in_offset_ >= in_.size() / 2) {
    in_.erase(0, in_offset_);
    in_offset_ = 0;
  }
  // popan_server leaves Nagle on, so a response queued behind a
  // notification the client has not acknowledged yet waits for that ACK.
  // Acknowledging at once (quick-ACK is one-shot in Linux and must be
  // re-armed) bounds the wait by a loopback round trip instead of the
  // delayed-ACK timer, which would otherwise dominate the latencies.
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
  char buffer[64 * 1024];
  for (;;) {
    ssize_t n = ::read(fd_, buffer, sizeof(buffer));
    if (n > 0) {
      in_.append(buffer, static_cast<size_t>(n));
      bytes_in_ += static_cast<uint64_t>(n);
      continue;
    }
    if (n == 0) return false;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
}

bool Connection::NextPayload(std::string_view* payload, Status* error) {
  return server::NextFrame(in_, &in_offset_, payload, error);
}

StatusOr<std::vector<server::Response>> Exchange(
    Connection* conn, const std::vector<std::string>& frames, size_t window,
    int64_t deadline_ns) {
  std::vector<server::Response> responses;
  responses.reserve(frames.size());
  size_t next = 0;
  while (responses.size() < frames.size()) {
    while (next < frames.size() && conn->pending().size() < window) {
      Pending pending;
      pending.type = static_cast<MsgType>(static_cast<uint8_t>(frames[next][4]));
      pending.sent_ns = NowNs();
      conn->Queue(frames[next], pending);
      ++next;
    }
    if (!conn->Flush()) return Status::Internal("connection dropped");
    int64_t now = NowNs();
    if (now > deadline_ns) return Status::Internal("set-up timed out");
    pollfd pfd{conn->fd(), static_cast<short>(POLLIN |
                                              (conn->wants_write() ? POLLOUT : 0)),
               0};
    int timeout_ms = static_cast<int>((deadline_ns - now) / 1000000) + 1;
    if (::poll(&pfd, 1, timeout_ms) < 0 && errno != EINTR) {
      return Status::Internal("poll failed");
    }
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    bool alive = conn->ReadAvailable();
    std::string_view payload;
    Status frame_error;
    while (conn->NextPayload(&payload, &frame_error)) {
      FrameKind kind = Classify(payload, conn->pending());
      if (kind == FrameKind::kNotification) continue;
      if (kind == FrameKind::kUnexpected) {
        return Status::Internal("set-up response out of request order");
      }
      conn->pending().pop_front();
      StatusOr<server::Response> response =
          server::DecodeResponsePayload(payload);
      if (!response.ok()) return response.status();
      if (response.value().status != 0) {
        return Status::Internal("set-up request failed: " +
                                response.value().message);
      }
      responses.push_back(std::move(response).value());
    }
    if (!frame_error.ok()) return frame_error;
    if (!alive && responses.size() < frames.size()) {
      return Status::Internal("server closed the connection");
    }
  }
  return responses;
}

}  // namespace popan::perfbench
