#include "serve/admission.hpp"

#include <algorithm>

namespace ep::serve {

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options) {
  options_.minLimit = std::max<std::size_t>(options_.minLimit, 1);
  options_.maxLimit = std::max(options_.maxLimit, options_.minLimit);
  limit_ = static_cast<double>(
      std::clamp(options_.initialLimit, options_.minLimit, options_.maxLimit));
}

bool AdmissionController::tryAcquire() {
  if (!enabled()) return true;
  std::lock_guard<std::mutex> lk(mu_);
  if (inFlight_ >= static_cast<std::size_t>(limit_)) return false;
  ++inFlight_;
  return true;
}

void AdmissionController::release(double observedLatencyMs) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lk(mu_);
  if (inFlight_ > 0) --inFlight_;
  if (observedLatencyMs < 0.0) return;
  if (observedLatencyMs <= options_.targetLatencyMs) {
    // Additive increase, spread over the current window so the limit
    // grows by ~kIncrease slots per limit's-worth of completions.
    limit_ += kIncrease / std::max(limit_, 1.0);
  } else {
    limit_ *= kDecrease;
  }
  limit_ = std::clamp(limit_, static_cast<double>(options_.minLimit),
                      static_cast<double>(options_.maxLimit));
}

bool AdmissionController::deadlineFeasible(double remainingMs) const {
  if (!enabled()) return true;
  std::lock_guard<std::mutex> lk(mu_);
  if (ewmaColdMs_ <= 0.0) return true;  // optimistic before any sample
  return remainingMs >= ewmaColdMs_;
}

void AdmissionController::observeColdStudyMs(double ms) {
  if (!enabled() || ms < 0.0) return;
  std::lock_guard<std::mutex> lk(mu_);
  ewmaColdMs_ = ewmaColdMs_ <= 0.0
                    ? ms
                    : kCostAlpha * ms + (1.0 - kCostAlpha) * ewmaColdMs_;
}

std::size_t AdmissionController::limit() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<std::size_t>(limit_);
}

std::size_t AdmissionController::inFlight() const {
  std::lock_guard<std::mutex> lk(mu_);
  return inFlight_;
}

}  // namespace ep::serve
