#ifndef POPAN_PERFBENCH_SERVER_CHILD_H_
#define POPAN_PERFBENCH_SERVER_CHILD_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/statusor.h"

namespace popan::perfbench {

/// The real popan_server binary as a child process, started with
/// `--port 0` and the workload's flags; the port is read from the line
/// the server prints once it listens. The child is killed (SIGKILL) and
/// reaped when this object is destroyed, and also if the benchmark
/// process dies first (PR_SET_PDEATHSIG), so no exit path leaves it
/// running.
class ServerChild {
 public:
  [[nodiscard]] static StatusOr<std::unique_ptr<ServerChild>> Spawn(
      const std::string& binary, const std::vector<std::string>& flags,
      int64_t deadline_ns);

  ~ServerChild();
  ServerChild(const ServerChild&) = delete;
  ServerChild& operator=(const ServerChild&) = delete;

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

  /// True while the process has not exited.
  bool Alive();

  /// SIGKILL and reap; idempotent.
  void Kill();

 private:
  ServerChild(pid_t pid, uint16_t port) : pid_(pid), port_(port) {}

  pid_t pid_;
  uint16_t port_;
  bool reaped_ = false;
};

/// Kills every live ServerChild; safe in a signal handler.
void KillAllServerChildren();

/// Per-process counters from /proc/<pid>.
struct ProcSample {
  uint64_t syscalls = 0;           ///< syscr + syscw (/proc/<pid>/io)
  uint64_t voluntary_switches = 0; ///< voluntary_ctxt_switches
  double cpu_s = 0.0;              ///< utime + stime
  double peak_rss_mb = 0.0;        ///< VmHWM
};
[[nodiscard]] StatusOr<ProcSample> ReadProc(pid_t pid);

}  // namespace popan::perfbench

#endif  // POPAN_PERFBENCH_SERVER_CHILD_H_
