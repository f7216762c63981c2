// The closed-loop client and the correctness gate.
//
// One client thread drives every connection through one epoll set.
// Each connection keeps a fixed number of requests outstanding and
// sends the next one from its pre-encoded stream as soon as an answer
// arrives, because callers of a tuning service wait for their
// recommendation.  Every answer is parsed, its status and trace id
// checked, and its recommendation compared with the in-process
// reference; its energy-attribution ledger is summed so the totals can
// be reconciled with the daemon's counters.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "histogram.hpp"
#include "workload.hpp"

namespace e2e {

struct TuneExpect {
  std::string recommended;
  double timeS = 0.0;
  double energyJ = 0.0;
  double savings = 0.0;
  double degradation = 0.0;
  std::string performanceOptimal;
  std::string energyOptimal;
  std::string knee;
  std::uint64_t frontSize = 0;
};

struct StudyExpect {
  std::uint64_t workloads = 0;
  double avgGlobalFrontSize = 0.0;
  std::uint64_t maxGlobalFrontSize = 0;
  double avgLocalFrontSize = 0.0;
  std::uint64_t maxLocalFrontSize = 0;
  double maxGlobalSavings = 0.0;
  double degradationAtMaxGlobalSavings = 0.0;
  double maxLocalSavings = 0.0;
  double degradationAtMaxLocalSavings = 0.0;
  std::uint64_t windows = 0;
  std::uint64_t studies = 0;
};

// Reference answers, one tab-separated line each (doubles in %a, so
// they round-trip exactly):
//   T device n budget recommended timeS energyJ savings degradation
//     performanceOptimal energyOptimal knee frontSize
//   S device nBegin nEnd nStep workloads avgGlobal maxGlobal avgLocal
//     maxLocal maxGlobalSavings degAtMaxGlobal maxLocalSavings
//     degAtMaxLocal windows studies
class Expected {
 public:
  [[nodiscard]] static std::string formatTune(const Request& r,
                                              const TuneExpect& e);
  [[nodiscard]] static std::string formatStudy(const Request& r,
                                               const StudyExpect& e);
  bool parse(const std::string& text, std::string* error);

  [[nodiscard]] const TuneExpect* tune(const Request& r) const;
  [[nodiscard]] const StudyExpect* study(const Request& r) const;
  [[nodiscard]] std::size_t size() const {
    return tunes_.size() + studies_.size();
  }

 private:
  static std::uint64_t tuneKey(const Request& r);
  std::unordered_map<std::uint64_t, TuneExpect> tunes_;
  std::map<std::tuple<int, int, int, int>, StudyExpect> studies_;
};

// Outcome counts and ledger sums over the answers of one phase.
struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t verified = 0;  // compared field by field with the reference
  std::uint64_t cacheHits = 0;
  std::uint64_t studiesExecuted = 0;
  std::uint64_t windows = 0;
  std::vector<std::string> errors;  // the first few, for the run record

  void fail(std::string message);
  void add(const Tally& other);
};

class Checker {
 public:
  explicit Checker(const Expected& expected) : expected_(expected) {}

  // Each returns true when the answer is correct, and counts it.
  bool tuneJson(const Request& req, std::string_view trace,
                std::string_view line, Tally* t) const;
  bool studyJson(const Request& req, std::string_view trace,
                 std::string_view line, Tally* t) const;

 private:
  const Expected& expected_;
};

// Counter totals from the daemon's Prometheus exposition.
using Counters = std::map<std::string, double>;

// Reconcile one phase's answers with the daemon's counters scraped
// before and after it (after the drain).  Empty when everything agrees:
// every request sent was accepted and every ok answer completed; the
// answers' ledgers sum to the daemon's studies and windows; and
// accepted == completed + failed + rejected.
[[nodiscard]] std::vector<std::string> reconcile(const Tally& phase,
                                                 const Counters& before,
                                                 const Counters& after);
// Sum of every ep_serve rejection counter.
[[nodiscard]] double rejectedTotal(const Counters& c);

struct PhaseResult {
  Tally tally;
  LogHistogram latency;  // write to complete answer, ns
  double wallS = 0.0;
  double clientCpuS = 0.0;
};

class ClosedLoopClient {
 public:
  ClosedLoopClient(const Workload& workload, const Expected& expected);
  ~ClosedLoopClient();
  ClosedLoopClient(const ClosedLoopClient&) = delete;
  ClosedLoopClient& operator=(const ClosedLoopClient&) = delete;

  bool connect(std::uint16_t port, std::string* error);
  // The warm-up set as one pipelined write on connection 0; returns once
  // every answer is in.
  bool warmup(Tally* tally, std::string* error);
  // One control op on connection 0; *json receives the response object.
  bool control(const std::string& request, std::string* json,
               std::string* error);
  // Closed loop for `seconds`, each connection starting at stream
  // position `offset`; stops sending at the deadline and drains.
  PhaseResult run(double seconds, std::size_t offset);

 private:
  struct Pending {
    const Request* req = nullptr;
    const std::string* trace = nullptr;
    std::uint64_t sentNs = 0;
  };
  struct Conn {
    int fd = -1;
    std::string bytes;                  // every stream request, encoded
    // Request i is bytes [offsets[i], offsets[i + 1]).
    std::vector<std::size_t> offsets;
    std::vector<std::string> traces;
    std::size_t next = 0;               // next stream position to send
    std::string rbuf;
    std::size_t rpos = 0;
    std::vector<Pending> ring;
    std::size_t head = 0;
    std::size_t pending = 0;
  };

  bool sendStream(Conn& c, std::size_t count, std::uint64_t nowNs);
  bool writeAll(int fd, const char* p, std::size_t n);
  // Read what is available; false on EOF or error.
  bool readAvailable(Conn& c);
  // The next complete answer line in c.rbuf, without its newline.
  bool nextAnswer(Conn& c, std::string_view* line);
  bool checkAnswer(const Pending& p, std::string_view line, Tally* t) const;
  bool waitReadable(int fd, int timeoutMs);

  const Workload& w_;
  Checker checker_;
  std::vector<Conn> conns_;
  std::vector<std::string> warmTraces_;
  int epfd_ = -1;
};

[[nodiscard]] std::uint64_t monotonicNs();
[[nodiscard]] double threadCpuSeconds();

}  // namespace e2e
