#include "chaos/retry.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "fault/fault.hpp"

namespace ep::chaos {

namespace {
constexpr std::uint64_t kRetrySalt = 0x4E7B0FFULL;
}  // namespace

double RetryPolicy::delayMs(std::uint64_t stream, std::uint64_t requestIndex,
                            int attempt) const {
  if (attempt <= 0) return 0.0;
  // Doubling is exact, so the envelope is base * 2^(attempt - 1), capped.
  const double envelope =
      std::min(std::ldexp(baseDelayMs, attempt - 1), maxDelayMs);
  // One fork per (stream, request, attempt): the draw depends on the
  // identity of the retry, never on scheduling order.
  const double u =
      fault::forkDecision(Rng(seed), {kRetrySalt, stream, requestIndex,
                                      static_cast<std::uint64_t>(attempt)})
          .uniform(0.0, 1.0);
  return envelope * (1.0 - jitter * u);
}

RetryBudget::RetryBudget(double ratio, double maxTokens, double initialTokens)
    : ratio_(ratio),
      maxScaled_(static_cast<std::int64_t>(maxTokens * kScale)),
      tokensScaled_(static_cast<std::int64_t>(
          std::min(initialTokens, maxTokens) * kScale)) {}

void RetryBudget::onAttempt() {
  const auto earn = static_cast<std::int64_t>(ratio_ * kScale);
  std::int64_t cur = tokensScaled_.load(std::memory_order_relaxed);
  while (true) {
    const std::int64_t next = std::min(cur + earn, maxScaled_);
    if (tokensScaled_.compare_exchange_weak(cur, next,
                                            std::memory_order_relaxed)) {
      return;
    }
  }
}

bool RetryBudget::tryRetry() {
  std::int64_t cur = tokensScaled_.load(std::memory_order_relaxed);
  while (cur >= kScale) {
    if (tokensScaled_.compare_exchange_weak(cur, cur - kScale,
                                            std::memory_order_relaxed)) {
      granted_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  denied_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

}  // namespace ep::chaos
