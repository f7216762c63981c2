// Per-engine circuit breaker for the epserve broker.
//
// A broken engine (every evaluation throwing — a miscalibrated model, a
// fault campaign with the meter unplugged) must not keep burning worker
// time and queue slots on requests that are going to fail.  The breaker
// implements the classic three-state machine:
//
//   Closed    — normal operation; consecutive failures are counted and
//               `failureThreshold` of them trip the breaker.
//   Open      — for `openMs` every admission is rejected outright
//               (fail fast; the broker serves stale results instead
//               when it has them).
//   HalfOpen  — after openMs, up to `halfOpenProbes` requests are let
//               through as probes; a probe success closes the breaker,
//               a probe failure re-opens it for another openMs.
//
// Time is passed in (steady-clock time_points), never read internally,
// so tests drive the state machine without sleeping.  The breaker has
// its own leaf mutex: callers may hold broker locks around any call.
#pragma once

#include <cstdint>
#include <mutex>

#include "common/error.hpp"
#include "serve/request.hpp"

namespace ep::serve {

// Thrown by the broker's study path when the breaker rejects admission
// and no stale result is available; mapped to Status::CircuitOpen.
class BreakerOpenError : public EpError {
 public:
  using EpError::EpError;
};

struct CircuitBreakerOptions {
  // Consecutive failures that trip the breaker; 0 disables it (the
  // default — the breaker is opt-in, existing deployments see no
  // behaviour change).
  std::size_t failureThreshold = 0;
  double openMs = 1000.0;          // how long Open rejects outright
  std::size_t halfOpenProbes = 1;  // probes admitted while HalfOpen
};

class CircuitBreaker {
 public:
  // Enumerator values are the exported gauge (0 closed, 1 half-open,
  // 2 open).
  enum class State { Closed, HalfOpen, Open };

  explicit CircuitBreaker(CircuitBreakerOptions options = {});

  // Admission decision for a request about to run.  Mutating: while
  // half-open it claims one of the probe slots, so every allow() == true
  // must be balanced by exactly one onSuccess()/onFailure().
  [[nodiscard]] bool allow(Clock::time_point now);

  // Non-mutating preview of allow() for the submission fast path:
  // rejecting before queueing keeps a fail-fast breaker from eating
  // queue capacity.  Never claims a probe slot.
  [[nodiscard]] bool wouldReject(Clock::time_point now) const;

  void onSuccess();
  void onFailure(Clock::time_point now);

  [[nodiscard]] State state(Clock::time_point now) const;
  // Open transitions (including half-open probe failures re-opening).
  [[nodiscard]] std::uint64_t opens() const;

  [[nodiscard]] const CircuitBreakerOptions& options() const {
    return options_;
  }

 private:
  [[nodiscard]] bool enabled() const {
    return options_.failureThreshold > 0;
  }
  [[nodiscard]] bool openElapsed(Clock::time_point now) const;

  CircuitBreakerOptions options_;
  mutable std::mutex mu_;
  bool open_ = false;
  Clock::time_point openedAt_{};
  std::size_t consecutiveFailures_ = 0;
  std::size_t probes_ = 0;  // half-open probe slots claimed
  std::uint64_t opens_ = 0;
};

[[nodiscard]] const char* breakerStateName(CircuitBreaker::State s);

}  // namespace ep::serve
