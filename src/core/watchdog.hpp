// Power-anomaly watchdog: always-on, online detection of the
// pathologies the paper only finds offline.
//
// The key example is Fig 6's constant ~58 W component: total energy of
// a compound workload exceeds the sum of its parts by a constant power
// draw — an energy-expensive component switching on.  Offline, the
// paper detects it by decomposing measured energy against the additive
// model.  This watchdog does the same decomposition per accepted
// measurement window, online: the window's observed energy minus the
// profile's expected energy (base power + workload model, as the meter
// can see it: Meter::visibleEnergy, so the 1 Hz meter's own lag on a
// short window is not mistaken for a component) leaves a residual;
// divided by the window length it is the residual *power* component.  A rolling median of residual watts per scope that sits
// at or above the threshold raises a ConstantComponent anomaly — a
// single spiked window does not (the median absorbs it), which is
// exactly the step-vs-noise distinction Fig 6 needs.
//
// Two more budget checks ride on the same event stream:
//   * CiDegraded — a measurement protocol finishing non-converged with
//     a precision worse than the configured limit.
//   * ErrorBudget — the serve layer feeds request outcomes; when the
//     error+stale fraction of the rolling request window exceeds the
//     budget, the scope is flagged.
//
// Events land in an obs::FlightRecorder (lock-free ring), drainable
// via epserved's {"op":"events"} and rendered by `epctl watch`.
// Raised anomalies stay "active" until the signal clears (hysteresis),
// so `epctl watch --check` can gate deploys/scripts on a calm system.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "power/observer.hpp"

namespace ep::core {

struct WatchdogOptions {
  // ConstantComponent: rolling median of residual watts >= this raises.
  double constantComponentWatts = 25.0;
  std::size_t rollingWindows = 8;  // residuals kept per scope
  std::size_t minWindows = 4;      // needed before judging
  // Hysteresis: an active alert clears when the median falls below
  // threshold * clearFraction.
  double clearFraction = 0.5;
  // CiDegraded: a non-converged protocol with achieved precision worse
  // than this raises.
  double ciPrecisionLimit = 0.10;
  // ErrorBudget: error+stale fraction of the rolling request window.
  double errorBudget = 0.10;
  std::size_t requestWindow = 64;  // outcomes kept per scope
  std::size_t minRequests = 16;    // needed before judging
};

enum class AnomalyKind { ConstantComponent, CiDegraded, ErrorBudget };
[[nodiscard]] const char* anomalyKindName(AnomalyKind k);

class PowerAnomalyWatchdog final : public power::MeasureObserver {
 public:
  explicit PowerAnomalyWatchdog(WatchdogOptions options = {});

  // power::MeasureObserver — called from measuring threads.
  void onMeasureWindow(const power::MeasureWindowObservation& obs) override;
  void onMeasurementResult(const char* scope, bool converged,
                           double precision) override;

  // Serve outcome feed (one call per finished request).  `error` means
  // the request failed outright; `stale` that a stale result was
  // served.  Healthy requests are neither.
  void observeRequestOutcome(const std::string& device, bool error,
                             bool stale);

  // Raised-and-not-yet-cleared anomalies.
  [[nodiscard]] std::size_t activeAlerts() const;
  // Ring drain: events with seq > sinceSeq, oldest first.
  [[nodiscard]] std::vector<obs::FlightEvent> events(
      std::uint64_t sinceSeq = 0) const {
    return recorder_.snapshot(sinceSeq);
  }
  [[nodiscard]] const obs::FlightRecorder& recorder() const {
    return recorder_;
  }
  [[nodiscard]] const WatchdogOptions& options() const { return options_; }

 private:
  struct ScopeState {
    std::deque<double> residualW;  // rolling residual power components
    double lastAdditivityError = 0.0;
    bool constantActive = false;
    bool ciActive = false;
    std::deque<unsigned char> outcomes;  // 1 = error/stale, 0 = healthy
    bool budgetActive = false;
  };

  void raise(AnomalyKind kind, const std::string& scope, double value,
             double threshold, std::uint64_t traceId, const char* message);
  void clearAlert(AnomalyKind kind, const std::string& scope, double value);

  WatchdogOptions options_;
  static constexpr std::size_t kEventCapacity = 256;  // recorder slots
  obs::FlightRecorder recorder_;
  mutable std::mutex mu_;
  std::map<std::string, ScopeState> scopes_;
  std::size_t active_ = 0;
  obs::Counter& eventsCounter_;
  obs::Gauge& activeGauge_;
};

}  // namespace ep::core
