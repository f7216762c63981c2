// Client retry with deterministic exponential backoff + jitter, and the
// retry budget that keeps a retrying client from amplifying an outage.
//
// RetryPolicy is stateless: the delay for (stream, request, attempt) is
// a pure function of the seed, drawn from its own forked Rng stream.
// Two workers replaying the same (request, attempt) pairs therefore
// produce bitwise-identical schedules whether they run serially or in
// parallel — the property test_chaos's RetryPolicy cases pin.
//
// RetryBudget is the classic token bucket from SRE practice: every
// first attempt earns `ratio` tokens, every retry spends one.  Under a
// full outage a client retries at most ratio * offered-load — it can
// never multiply traffic into a struggling fleet, no matter how many
// coalesced callers share a key.
#pragma once

#include <atomic>
#include <cstdint>

namespace ep::chaos {

struct RetryPolicy {
  int maxRetries = 0;        // total attempts = 1 + maxRetries
  double baseDelayMs = 1.0;  // delay before retry k grows as 2^k
  double maxDelayMs = 250.0;
  // Fraction of the exponential delay randomized away: the delay is
  // uniform in [(1 - jitter) * d, d], decorrelating synchronized
  // retry waves without ever exceeding the exponential envelope.
  double jitter = 0.5;
  std::uint64_t seed = 0xC4A05EEDULL;

  // Backoff before attempt `attempt` (1-based: the first *retry*) of
  // request `requestIndex` on client stream `stream`.  Pure function.
  [[nodiscard]] double delayMs(std::uint64_t stream,
                               std::uint64_t requestIndex,
                               int attempt) const;
};

class RetryBudget {
 public:
  // Every first attempt earns `ratio` tokens (capped at `maxTokens`);
  // a retry spends one whole token.  `initialTokens` lets short runs
  // retry at all before any budget accrues.
  explicit RetryBudget(double ratio = 0.2, double maxTokens = 64.0,
                       double initialTokens = 4.0);

  void onAttempt();           // a first attempt: accrue budget
  [[nodiscard]] bool tryRetry();  // spend one token; false = exhausted

  [[nodiscard]] std::uint64_t granted() const {
    return granted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t denied() const {
    return denied_.load(std::memory_order_relaxed);
  }

 private:
  // Token count in fixed-point millitokens so accrual/spend are single
  // atomic RMWs shared safely by every worker thread of a client.
  static constexpr std::int64_t kScale = 1000;
  double ratio_;
  std::int64_t maxScaled_;
  std::atomic<std::int64_t> tokensScaled_;
  std::atomic<std::uint64_t> granted_{0};
  std::atomic<std::uint64_t> denied_{0};
};

}  // namespace ep::chaos
