// Adaptive overload control for the broker's admission path.
//
// Two mechanisms, both cheap enough to sit under the admission lock:
//
//   * Adaptive concurrency limit (AIMD): the number of *queued* studies
//     allowed in the service at once adapts to observed completion
//     latency against the SLO target — additive increase while
//     completions land inside the target, multiplicative decrease the
//     moment they do not.  This is the gradient trick of classic
//     congestion control applied to a serving queue: the limit hunts
//     the knee where queueing delay starts to grow, so overload is
//     shed *before* the queue collapses into a wall of
//     deadline-exceeded work.  Rejections are instant and explicit
//     (Status::Overloaded) — a clean fast-fail the client can back off
//     and retry, instead of a slow timeout that burned pool time.
//
//   * Deadline-aware shedding: an uncached request whose remaining
//     deadline budget cannot cover the EWMA cold-study cost is refused
//     at admission.  Running it would spend a whole study's energy to
//     produce an answer nobody can use — the worst possible trade
//     under energy nonproportionality.
//
// Cache hits, coalesced joins and stale serves never consume a slot:
// they cost microseconds and no pool time, so the limit only meters
// the expensive path.  Like CircuitBreaker, this is a leaf class with
// its own mutex, safe to call with the broker lock held.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>

namespace ep::serve {

struct AdmissionOptions {
  // The latency SLO target (ms) the limit adapts against — typically
  // the same target the SloEngine burns on.  0 turns admission control
  // off.
  double targetLatencyMs = 0.0;
  std::size_t initialLimit = 16;
  std::size_t minLimit = 1;
  std::size_t maxLimit = 256;
  [[nodiscard]] bool enabled() const { return targetLatencyMs > 0.0; }
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options = {});

  [[nodiscard]] bool enabled() const { return options_.enabled(); }

  // Claim a concurrency slot for a queued request.  False = shed
  // (caller rejects with Status::Overloaded).  Never blocks.
  [[nodiscard]] bool tryAcquire();

  // Release the slot of a completed/failed queued request.
  // `observedLatencyMs` drives AIMD: in-target completions grow the
  // limit fractionally, over-target ones halve it; pass a negative
  // value to release without a latency observation (rejects, shutdown).
  void release(double observedLatencyMs);

  // Deadline-aware shedding: can a cold study still finish inside
  // `remainingMs`?  Optimistic until the first cost sample lands.
  [[nodiscard]] bool deadlineFeasible(double remainingMs) const;
  void observeColdStudyMs(double ms);

  [[nodiscard]] std::size_t limit() const;
  [[nodiscard]] std::size_t inFlight() const;

 private:
  static constexpr double kIncrease = 1.0;   // slots per in-target completion
  static constexpr double kDecrease = 0.5;   // limit *= this on an over-target one
  // EWMA smoothing for the cold-study cost estimate feeding
  // deadline-aware shedding.
  static constexpr double kCostAlpha = 0.3;

  AdmissionOptions options_;
  mutable std::mutex mu_;
  double limit_ = 0.0;       // fractional: additive increase accumulates
  std::size_t inFlight_ = 0;
  double ewmaColdMs_ = 0.0;  // 0 = no sample yet
};

}  // namespace ep::serve
