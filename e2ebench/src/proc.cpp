#include "proc.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "client.hpp"

namespace e2e {

std::vector<int> allowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out.push_back(c);
  }
  return out;
}

bool pinTo(const std::vector<int>& cpus) {
  if (cpus.empty()) return true;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return ::sched_setaffinity(0, sizeof set, &set) == 0;
}

bool Daemon::spawn(const std::string& path,
                   const std::vector<std::string>& args,
                   const std::vector<int>& cpus, std::string* error) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(path.c_str()));
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(127);
    pinTo(cpus);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv(path.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  pid_ = pid;
  out_ = fds[0];
  return true;
}

bool Daemon::waitListening(int timeoutMs, std::string* error) {
  const std::string marker = "listening on 127.0.0.1:";
  const std::uint64_t limit =
      monotonicNs() + static_cast<std::uint64_t>(timeoutMs) * 1000000ULL;
  char buf[4096];
  while (true) {
    const std::size_t at = text_.find(marker);
    if (at != std::string::npos && text_.find('\n', at) != std::string::npos) {
      port_ = static_cast<std::uint16_t>(
          std::atoi(text_.c_str() + at + marker.size()));
      return port_ != 0;
    }
    const std::uint64_t now = monotonicNs();
    if (now >= limit) break;
    pollfd pfd{out_, POLLIN, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>((limit - now) / 1000000 + 1));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) break;
    const ssize_t n = ::read(out_, buf, sizeof buf);
    if (n <= 0) break;
    text_.append(buf, static_cast<std::size_t>(n));
  }
  *error = "epserved did not start listening: " + text_;
  return false;
}

bool Daemon::stop() {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  // Keep reading its output (the final metrics) so it never blocks on a
  // full pipe while draining; give it 10 s before SIGKILL.
  const std::uint64_t limit = monotonicNs() + 10000000000ULL;
  int status = 0;
  bool reaped = false;
  char buf[4096];
  while (!reaped && monotonicNs() < limit) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      reaped = true;
    } else if (r < 0 && errno != EINTR) {
      break;
    } else if (out_ >= 0) {
      pollfd pfd{out_, POLLIN, 0};
      if (::poll(&pfd, 1, 10) > 0 && ::read(out_, buf, sizeof buf) <= 0) {
        ::close(out_);
        out_ = -1;
      }
    } else {
      ::usleep(1000);
    }
  }
  if (!reaped) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    exit_ = "killed after 10 s without exiting";
  } else if (WIFSIGNALED(status)) {
    exit_ = "ended by signal " + std::to_string(WTERMSIG(status));
  } else {
    exit_ = "exit code " + std::to_string(WEXITSTATUS(status));
  }
  if (out_ >= 0) ::close(out_);
  out_ = -1;
  pid_ = -1;
  return reaped && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

double processCpuSeconds(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0.0;
  std::uint64_t ns = 0;
  while (dirent* e = ::readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream f(dir + "/" + e->d_name + "/schedstat");
    std::uint64_t run = 0;
    if (f >> run) ns += run;
  }
  ::closedir(d);
  return static_cast<double>(ns) * 1e-9;
}

double peakRssMb(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

HostCpu readHostCpu() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  HostCpu h;
  f >> cpu;
  for (int i = 0; i < 10; ++i) {
    std::uint64_t v = 0;
    if (!(f >> v)) break;
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already inside user/nice.
    if (i < 8) h.total += v;
    if (i == 7) h.steal = v;
  }
  return h;
}

namespace {

// One probe's work: integer hashing and floating-point math over an
// L2-resident table.  A dependent walk through memory beyond the caches
// was tried too; as the host got busier it moved about three times as
// much as the daemon's CPU cost per request did, so it is left out.
double probeOnceMs() {
  static std::vector<std::uint64_t> table(std::size_t{1} << 15);
  const double t0 = threadCpuSeconds();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  double acc = 0.0;
  for (int i = 0; i < 150000; ++i) {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    table[z & (table.size() - 1)] += z;
    acc += std::sqrt(static_cast<double>(z >> 11) + acc * 1e-9);
  }
  table[0] += static_cast<std::uint64_t>(acc);
  return (threadCpuSeconds() - t0) * 1e3;
}

}  // namespace

double hostProbeMs(const std::vector<int>& cpus) {
  const std::vector<int> home = allowedCpus();
  const std::vector<int> where = cpus.empty() ? home : cpus;
  double sum = 0.0;
  for (int cpu : where) {
    if (!cpus.empty()) pinTo({cpu});
    probeOnceMs();  // brings the table into this CPU's caches
    double reps[3];
    for (double& ms : reps) ms = probeOnceMs();
    std::sort(reps, reps + 3);
    sum += reps[1];
  }
  pinTo(home);
  return sum / static_cast<double>(where.size());
}

std::string loadAverage() {
  std::ifstream f("/proc/loadavg");
  std::string a;
  std::string b;
  std::string c;
  f >> a >> b >> c;
  return a + " " + b + " " + c;
}

}  // namespace e2e
