#include "server_child.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "stats.h"

namespace popan::perfbench {

namespace {

constexpr size_t kMaxChildren = 8;
std::atomic<pid_t> g_children[kMaxChildren];

void Register(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
}

void Unregister(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

}  // namespace

void KillAllServerChildren() {
  for (auto& slot : g_children) {
    pid_t pid = slot.load();
    if (pid > 0) ::kill(pid, SIGKILL);
  }
}

StatusOr<std::unique_ptr<ServerChild>> ServerChild::Spawn(
    const std::string& binary, const std::vector<std::string>& flags,
    int64_t deadline_ns) {
  int out[2];
  if (::pipe(out) != 0) return Status::Internal("pipe failed");
  std::vector<std::string> args = {binary, "--port", "0"};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  pid_t parent = ::getpid();
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out[0]);
    ::close(out[1]);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(out[1], STDOUT_FILENO);
    ::close(out[0]);
    ::close(out[1]);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  Register(pid);
  ::close(out[1]);
  std::unique_ptr<ServerChild> child(new ServerChild(pid, 0));

  // The server prints "popan_server listening on 127.0.0.1:<port>" once
  // it is ready to accept.
  std::string line;
  while (line.find('\n') == std::string::npos) {
    int64_t left_ms = (deadline_ns - NowNs()) / 1000000;
    if (left_ms <= 0) {
      ::close(out[0]);
      return Status::Internal("server did not start in time");
    }
    pollfd pfd{out[0], POLLIN, 0};
    int ready = ::poll(&pfd, 1, static_cast<int>(left_ms));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    char buffer[256];
    ssize_t n = ::read(out[0], buffer, sizeof(buffer));
    if (n <= 0) {
      ::close(out[0]);
      return Status::Internal("server exited before listening");
    }
    line.append(buffer, static_cast<size_t>(n));
  }
  ::close(out[0]);
  size_t colon = line.rfind(':');
  if (line.find("listening on") == std::string::npos ||
      colon == std::string::npos) {
    return Status::Internal("unexpected server banner: " + line);
  }
  int port = std::atoi(line.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    return Status::Internal("bad port in server banner: " + line);
  }
  child->port_ = static_cast<uint16_t>(port);
  return child;
}

ServerChild::~ServerChild() { Kill(); }

bool ServerChild::Alive() {
  if (reaped_) return false;
  int status = 0;
  pid_t done = ::waitpid(pid_, &status, WNOHANG);
  if (done == pid_) {
    reaped_ = true;
    Unregister(pid_);
    return false;
  }
  return true;
}

void ServerChild::Kill() {
  if (reaped_) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  reaped_ = true;
  Unregister(pid_);
}

StatusOr<ProcSample> ReadProc(pid_t pid) {
  ProcSample sample;
  std::string base = "/proc/" + std::to_string(pid);
  std::ifstream io(base + "/io");
  std::ifstream status(base + "/status");
  std::ifstream stat(base + "/stat");
  if (!io || !status || !stat) {
    return Status::Internal("cannot read " + base);
  }
  std::string key;
  uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "syscr:" || key == "syscw:") sample.syscalls += value;
  }
  std::string line;
  while (std::getline(status, line)) {
    std::istringstream fields(line);
    fields >> key;
    if (key == "VmHWM:") {
      fields >> value;
      sample.peak_rss_mb = static_cast<double>(value) / 1024.0;
    } else if (key == "voluntary_ctxt_switches:") {
      fields >> sample.voluntary_switches;
    }
  }
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  std::istringstream rest(text.substr(text.rfind(')') + 2));
  std::string field;
  uint64_t utime = 0;
  uint64_t stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  sample.cpu_s = static_cast<double>(utime + stime) /
                 static_cast<double>(::sysconf(_SC_CLK_TCK));
  return sample;
}

}  // namespace popan::perfbench
