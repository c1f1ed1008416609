#include "server/socket_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "util/check.h"

namespace popan::server {

namespace {

constexpr size_t kReadChunk = 64 * 1024;

/// A stopping server keeps sending queued output while some peer takes
/// bytes at least this often; a peer that takes nothing for this long is
/// not reading and is abandoned.
constexpr int kDrainPollMs = 1000;

[[nodiscard]] Status ErrnoStatus(const char* what) {
  return Status::Internal(std::string(what) + ": " +
                          std::strerror(errno));
}

bool SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

SocketServer::SocketServer(ServerCore* core, size_t max_pending_out)
    : core_(core), max_pending_out_(max_pending_out) {
  POPAN_CHECK(core != nullptr);
  POPAN_CHECK(max_pending_out > 0);
}

SocketServer::~SocketServer() {
  // Destruction implies Serve() has returned; the command role is free.
  popan::AssumeRole command(command_role_);
  core_->SetReadsDoneCallback(nullptr);
  for (auto& [fd, conn] : connections_) {
    ::close(fd);
    (void)conn;
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

StatusOr<uint16_t> SocketServer::Listen(uint16_t port) {
  popan::AssumeRole command(command_role_);
  POPAN_CHECK(listen_fd_ < 0) << "Listen called twice";
  if (::pipe(wake_pipe_) != 0) return ErrnoStatus("pipe");
  // Neither end may block: the poll loop drains until empty, and a
  // writer that finds the pipe full has a wake pending already.
  if (!SetNonBlocking(wake_pipe_[0]) || !SetNonBlocking(wake_pipe_[1])) {
    return ErrnoStatus("pipe fcntl");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return ErrnoStatus("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return ErrnoStatus("bind");
  }
  if (::listen(listen_fd_, 64) != 0) return ErrnoStatus("listen");
  if (!SetNonBlocking(listen_fd_)) return ErrnoStatus("listen fcntl");
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &len) != 0) {
    return ErrnoStatus("getsockname");
  }
  core_->SetReadsDoneCallback([this] { WakeForReads(); });
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

Status SocketServer::Serve() {
  popan::AssumeRole command(command_role_);
  POPAN_CHECK(listen_fd_ >= 0) << "Serve before Listen";
  while (!stop_requested_.load(std::memory_order_acquire)) {
    std::vector<pollfd> fds;
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    for (auto& [fd, conn] : connections_) {
      short events = POLLIN;
      if (!conn.pending_out.empty()) events |= POLLOUT;
      fds.push_back(pollfd{fd, events, 0});
    }
    int ready = ::poll(fds.data(), fds.size(), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("poll");
    }
    if ((fds[1].revents & POLLIN) != 0) {
      char buf[16];
      while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
      }
      // After the drain, never before: a run that completes from here on
      // writes a fresh byte, and one that completed earlier is collected
      // below. Cleared first, a run completing between the drain and the
      // collection would find the flag set, write nothing, and stall its
      // client until some other event woke the loop.
      reads_woken_.exchange(false, std::memory_order_acq_rel);
    }
    if ((fds[0].revents & POLLIN) != 0) AcceptNew();
    std::vector<int> dead;
    for (size_t i = 2; i < fds.size(); ++i) {
      auto it = connections_.find(fds[i].fd);
      if (it == connections_.end()) continue;
      Connection* conn = &it->second;
      bool alive = true;
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        alive = ReadFrom(conn);
      }
      if (alive) {
        TakeCoreOutput(conn);
        alive = FlushTo(conn);
      }
      if (!alive) dead.push_back(fds[i].fd);
    }
    // Writes by one connection can queue notifications for another whose
    // socket is idle this round, and read runs complete off this thread;
    // push those out too.
    for (auto& [fd, conn] : connections_) {
      TakeCoreOutput(&conn);
      if (!conn.pending_out.empty() && !FlushTo(&conn)) {
        dead.push_back(fd);
      }
    }
    for (int fd : dead) CloseConnection(fd);
  }
  DrainOutput();
  return Status::OK();
}

void SocketServer::DrainOutput() {
  core_->WaitForReads();
  for (;;) {
    std::vector<pollfd> fds;
    std::vector<int> dead;
    for (auto& [fd, conn] : connections_) {
      TakeCoreOutput(&conn);
      if (!FlushTo(&conn)) {
        dead.push_back(fd);
      } else if (!conn.pending_out.empty()) {
        fds.push_back(pollfd{fd, POLLOUT, 0});
      }
    }
    for (int fd : dead) CloseConnection(fd);
    if (fds.empty() || ::poll(fds.data(), fds.size(), kDrainPollMs) <= 0) {
      return;
    }
  }
}

void SocketServer::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
  WriteWakeByte();
}

void SocketServer::WriteWakeByte() {
  if (wake_pipe_[1] >= 0) {
    char byte = 'w';
    // A full pipe already guarantees a pending wakeup.
    // popan-lint: allow(status-unchecked-value)
    ssize_t ignored = ::write(wake_pipe_[1], &byte, 1);
    (void)ignored;
  }
}

void SocketServer::WakeForReads() {
  if (!reads_woken_.exchange(true, std::memory_order_acq_rel)) {
    WriteWakeByte();
  }
}

void SocketServer::AcceptNew() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: try next round
    if (!SetNonBlocking(fd)) {
      ::close(fd);
      continue;
    }
    Connection conn;
    conn.fd = fd;
    conn.client_id = core_->OpenClient();
    connections_.emplace(fd, std::move(conn));
  }
}

bool SocketServer::ReadFrom(Connection* conn) {
  char buffer[kReadChunk];
  for (;;) {
    ssize_t n = ::read(conn->fd, buffer, sizeof(buffer));
    if (n > 0) {
      Status consumed = core_->ConsumeBytes(
          conn->client_id, std::string_view(buffer, static_cast<size_t>(n)));
      if (!consumed.ok()) return false;  // poisoned framing: drop
      continue;
    }
    if (n == 0) return false;  // orderly EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
}

void SocketServer::TakeCoreOutput(Connection* conn) {
  std::string ready = core_->TakeOutput(conn->client_id);
  // Most rounds find nothing queued: take the core's buffer as it is
  // rather than copy it.
  if (conn->pending_out.empty()) {
    conn->pending_out.swap(ready);
  } else {
    conn->pending_out += ready;
  }
}

bool SocketServer::FlushTo(Connection* conn) {
  // Backpressure: a consumer that let this much queue up is not draining;
  // drop it rather than buffer without bound.
  if (conn->pending_out.size() > max_pending_out_) return false;
  while (!conn->pending_out.empty()) {
    // MSG_NOSIGNAL: a peer that disconnected mid-flush must surface as
    // EPIPE on this connection, not as a process-killing SIGPIPE.
    ssize_t n = ::send(conn->fd, conn->pending_out.data(),
                       conn->pending_out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn->pending_out.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void SocketServer::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Status closed = core_->CloseClient(it->second.client_id);
  POPAN_CHECK(closed.ok()) << closed.ToString();
  ::close(fd);
  connections_.erase(it);
}

}  // namespace popan::server
