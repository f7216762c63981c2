#include "core/watchdog.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "energymodel/additivity.hpp"
#include "obs/trace.hpp"

namespace ep::core {

namespace {

double medianOfDeque(const std::deque<double>& d) {
  std::vector<double> scratch(d.begin(), d.end());
  const std::size_t mid = scratch.size() / 2;
  std::nth_element(scratch.begin(),
                   scratch.begin() + static_cast<std::ptrdiff_t>(mid),
                   scratch.end());
  double m = scratch[mid];
  if (scratch.size() % 2 == 0) {
    const auto lo = std::max_element(
        scratch.begin(), scratch.begin() + static_cast<std::ptrdiff_t>(mid));
    m = 0.5 * (m + *lo);
  }
  return m;
}

}  // namespace

const char* anomalyKindName(AnomalyKind k) {
  switch (k) {
    case AnomalyKind::ConstantComponent:
      return "constant_component";
    case AnomalyKind::CiDegraded:
      return "ci_degraded";
    case AnomalyKind::ErrorBudget:
      return "error_budget";
  }
  return "unknown";
}

PowerAnomalyWatchdog::PowerAnomalyWatchdog(WatchdogOptions options)
    : options_(options),
      recorder_(kEventCapacity),
      eventsCounter_(obs::Registry::global().counter(
          "ep_watchdog_events_total",
          "Anomaly events raised by the power watchdog")),
      activeGauge_(obs::Registry::global().gauge(
          "ep_watchdog_active_alerts",
          "Watchdog anomalies raised and not yet cleared")) {}

void PowerAnomalyWatchdog::raise(AnomalyKind kind, const std::string& scope,
                                 double value, double threshold,
                                 std::uint64_t traceId, const char* message) {
  obs::FlightEvent e;
  e.timeNs = obs::Tracer::global().nowNs();
  e.traceId = traceId;
  e.value = value;
  e.threshold = threshold;
  obs::setFlightField(e.kind, anomalyKindName(kind));
  obs::setFlightField(e.scope, scope.c_str());
  obs::setFlightField(e.message, message);
  recorder_.record(e);
  eventsCounter_.inc();
  ++active_;
  activeGauge_.add(1);
}

void PowerAnomalyWatchdog::clearAlert(AnomalyKind kind,
                                      const std::string& scope,
                                      double value) {
  char msg[96];
  std::snprintf(msg, sizeof msg, "cleared: %s back in budget (%.3g)",
                anomalyKindName(kind), value);
  obs::FlightEvent e;
  e.timeNs = obs::Tracer::global().nowNs();
  e.value = value;
  obs::setFlightField(e.kind, "cleared");
  obs::setFlightField(e.scope, scope.c_str());
  obs::setFlightField(e.message, msg);
  recorder_.record(e);
  if (active_ > 0) --active_;
  activeGauge_.sub(1);
}

void PowerAnomalyWatchdog::onMeasureWindow(
    const power::MeasureWindowObservation& obs) {
  if (!(obs.windowS > 0.0)) return;
  // Online decomposition: observed = base + workload + residual.  The
  // profile already encodes base + workload, so the residual power is
  // what no model term explains — a constant offset shows up here at
  // (almost exactly) its wattage, window after window.
  const double residualW = (obs.observedJ - obs.expectedJ) / obs.windowS;
  std::lock_guard lk(mu_);
  ScopeState& st = scopes_[obs.scope];
  st.residualW.push_back(residualW);
  while (st.residualW.size() > options_.rollingWindows) {
    st.residualW.pop_front();
  }
  st.lastAdditivityError = model::additivityError(
      obs.staticJ, obs.expectedJ - obs.staticJ, obs.observedJ);
  if (st.residualW.size() < options_.minWindows) return;
  const double median = medianOfDeque(st.residualW);
  if (!st.constantActive && median >= options_.constantComponentWatts) {
    st.constantActive = true;
    char msg[96];
    std::snprintf(msg, sizeof msg,
                  "constant +%.1f W component (additivity err %.1f%%)",
                  median, 100.0 * st.lastAdditivityError);
    raise(AnomalyKind::ConstantComponent, obs.scope, median,
          options_.constantComponentWatts, obs.traceId, msg);
  } else if (st.constantActive &&
             median <
                 options_.constantComponentWatts * options_.clearFraction) {
    st.constantActive = false;
    clearAlert(AnomalyKind::ConstantComponent, obs.scope, median);
  }
}

void PowerAnomalyWatchdog::onMeasurementResult(const char* scope,
                                               bool converged,
                                               double precision) {
  std::lock_guard lk(mu_);
  ScopeState& st = scopes_[scope];
  if (!converged && precision > options_.ciPrecisionLimit) {
    if (!st.ciActive) {
      st.ciActive = true;
      char msg[96];
      std::snprintf(msg, sizeof msg,
                    "CI did not converge: precision %.3g > limit %.3g",
                    precision, options_.ciPrecisionLimit);
      raise(AnomalyKind::CiDegraded, scope, precision,
            options_.ciPrecisionLimit, obs::currentContext().traceId, msg);
    }
  } else if (converged && st.ciActive) {
    st.ciActive = false;
    clearAlert(AnomalyKind::CiDegraded, scope, precision);
  }
}

void PowerAnomalyWatchdog::observeRequestOutcome(const std::string& device,
                                                 bool error, bool stale) {
  std::lock_guard lk(mu_);
  ScopeState& st = scopes_[device];
  st.outcomes.push_back(error || stale ? 1 : 0);
  while (st.outcomes.size() > options_.requestWindow) st.outcomes.pop_front();
  if (st.outcomes.size() < options_.minRequests) return;
  std::size_t bad = 0;
  for (unsigned char o : st.outcomes) bad += o;
  const double fraction =
      static_cast<double>(bad) / static_cast<double>(st.outcomes.size());
  if (!st.budgetActive && fraction > options_.errorBudget) {
    st.budgetActive = true;
    char msg[96];
    std::snprintf(msg, sizeof msg,
                  "error/stale rate %.1f%% burned the %.1f%% budget",
                  100.0 * fraction, 100.0 * options_.errorBudget);
    raise(AnomalyKind::ErrorBudget, device, fraction, options_.errorBudget,
          obs::currentContext().traceId, msg);
  } else if (st.budgetActive &&
             fraction <= options_.errorBudget * options_.clearFraction) {
    st.budgetActive = false;
    clearAlert(AnomalyKind::ErrorBudget, device, fraction);
  }
}

std::size_t PowerAnomalyWatchdog::activeAlerts() const {
  std::lock_guard lk(mu_);
  return active_;
}

}  // namespace ep::core
