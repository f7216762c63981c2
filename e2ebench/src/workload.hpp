// Seeded request streams for the e2ebench workloads.
//
// Everything a run sends is generated here from --seed before any
// timing starts: the key sets, the warm-up set and one cycled request
// stream per connection.  This file depends on nothing in the program
// under test; the wire encodings it produces are the pinned line-JSON
// and EPB1 protocols.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

// splitmix64: the benchmark's only source of randomness.
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  // Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound);
  // Uniform in [0, 1).
  double unit();

 private:
  std::uint64_t state_;
};

std::uint64_t mix64(std::uint64_t a, std::uint64_t b);

// Degradation budgets a tune request draws from.
inline constexpr double kBudgets[] = {0.05, 0.11, 0.20};
inline constexpr const char* kBudgetText[] = {"0.05", "0.11", "0.2"};
inline constexpr int kBudgetCount = 3;

inline constexpr const char* kDeviceNames[] = {"p100", "k40c"};

struct Request {
  bool study = false;
  int device = 0;  // 0 = P100, 1 = K40c (the EPB1 device byte)
  int n = 0;       // tune: workload size; study: nBegin
  int nEnd = 0;    // study only
  int nStep = 0;   // study only
  int budget = 0;  // tune only: index into kBudgets
};

struct Workload {
  std::string name;
  int connections = 1;
  int window = 1;  // outstanding requests per connection
  // Daemon spawns per timed run; each measures set-up, then drives its
  // share of the run's seconds.
  int slices = 1;
  int daemonThreads = 1;
  int cache = 0;   // 0 = the daemon's default
  bool meter = false;
  std::uint64_t daemonSeed = 0;
  // Tune workloads: every distinct (device, n) the streams draw from.
  // Study workload: the requests whose answers are compared field by
  // field with the in-process reference.
  std::vector<Request> verify;
  // Sent as one pipelined write on connection 0 before timing; empty
  // means the warm-up is a single metrics op.
  std::vector<Request> warmup;
  // One request stream per connection, cycled when a run outlasts it.
  std::vector<std::vector<Request>> streams;

  [[nodiscard]] std::vector<std::string> daemonArgs() const;
};

[[nodiscard]] const std::vector<std::string>& workloadNames();

// False for an unknown name.  nproc sets the daemon's thread budget:
// its busy threads plus the one client thread stay within nproc.
bool makeWorkload(const std::string& name, std::uint64_t seed, int nproc,
                  Workload* out);

// The trace id a request carries on the wire; the daemon echoes it.
[[nodiscard]] std::string traceIdFor(int conn, std::size_t index);

// One request as one line-JSON line.  Every request asks for the
// energy-attribution report.
[[nodiscard]] std::string encodeRequest(const Request& r,
                                        const std::string& traceId);
// A tune request as the bare EPB1 kOpTune body / JSON text without
// framing (the traced run replays both codecs on these).
[[nodiscard]] std::string epb1TuneBody(const Request& r,
                                       const std::string& traceId);
[[nodiscard]] std::string jsonRequestText(const Request& r,
                                          const std::string& traceId);

// The control op {"op":"metrics","format":"prometheus"} as one line.
[[nodiscard]] std::string encodeMetricsRequest();

}  // namespace e2e
