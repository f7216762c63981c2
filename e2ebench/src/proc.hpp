// The daemon under test as a child process, what /proc says about it
// and about the host, and a probe of the host's speed.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

// One spawned epserved.  The destructor SIGTERMs and reaps it, so every
// exit path of the benchmark, a failed check included, leaves no stray
// daemon behind; the child also gets SIGTERM if the benchmark dies.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // cpus: the CPUs the daemon may run on (empty = inherit).
  bool spawn(const std::string& path, const std::vector<std::string>& args,
             const std::vector<int>& cpus, std::string* error);
  // Block until the daemon prints its listening line; parses the port.
  bool waitListening(int timeoutMs, std::string* error);
  // SIGTERM, drain its output, reap.  Returns true when it exited 0;
  // exitStatus() then describes how it ended.
  bool stop();
  [[nodiscard]] const std::string& exitStatus() const { return exit_; }

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int out_ = -1;  // the daemon's stdout
  std::uint16_t port_ = 0;
  std::string text_;
  std::string exit_;
};

// CPU time of every thread of `pid` (sum of /proc/<pid>/task/*/schedstat
// run times), in seconds.
[[nodiscard]] double processCpuSeconds(pid_t pid);
// VmHWM of `pid` in MiB.
[[nodiscard]] double peakRssMb(pid_t pid);

// Aggregate jiffies from the first line of /proc/stat.
struct HostCpu {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
[[nodiscard]] HostCpu readHostCpu();
[[nodiscard]] std::string loadAverage();

// The host's current speed: thread CPU time, in ms, of a fixed amount of
// compute work, the median of three repetitions (after one untimed) on
// each of `cpus` (empty = where the caller runs), averaged.  On a shared
// host the same work takes longer while the host is busy; steal does not
// count, as thread CPU time leaves it out.
[[nodiscard]] double hostProbeMs(const std::vector<int>& cpus);

// The CPUs this process may run on.
[[nodiscard]] std::vector<int> allowedCpus();
// Restrict the calling thread (and what it forks) to `cpus`.
bool pinTo(const std::vector<int>& cpus);

}  // namespace e2e
