#include "power/measurer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "power/observer.hpp"

namespace ep::power {

namespace {

struct MeasureCounters {
  obs::Counter& timeouts;
  obs::Counter& retries;
  obs::Counter& invalidTraces;
  obs::Counter& outliersRejected;
  obs::Counter& budgetExhausted;
  obs::Counter& samplesSanitized;
};

// Process-wide recovery accounting; the Prometheus exposition makes the
// campaign's fault handling visible next to the fault-injection counts.
MeasureCounters& measureCounters() {
  static MeasureCounters c{
      obs::Registry::global().counter("ep_measure_timeouts_total",
                                      "Whole-window meter timeouts observed"),
      obs::Registry::global().counter(
          "ep_measure_retries_total",
          "Re-recordings after a meter timeout (with virtual backoff)"),
      obs::Registry::global().counter(
          "ep_measure_invalid_traces_total",
          "Traces rejected by gap/NaN/stuck validation"),
      obs::Registry::global().counter(
          "ep_measure_outliers_rejected_total",
          "Observations rejected by MAD outlier screening"),
      obs::Registry::global().counter(
          "ep_measure_budget_exhausted_total",
          "Measurements abandoned after the re-measure budget ran out"),
      obs::Registry::global().counter(
          "ep_measure_samples_sanitized_total",
          "Impossible readings dropped from traces before integration")};
  return c;
}

// Median of a small scratch vector (mutates it).
double medianOf(std::vector<double>& v) {
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  double m = v[mid];
  if (v.size() % 2 == 0) {
    const auto lo = std::max_element(
        v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
    m = 0.5 * (m + *lo);
  }
  return m;
}

// MAD rejection judges an observation only once this many are accepted.
constexpr std::size_t kMinSamplesForMad = 6;

// Modified z-score outlier test of `x` against the accepted values.
bool isMadOutlier(const std::vector<double>& accepted, double x,
                  double threshold) {
  std::vector<double> scratch(accepted);
  const double med = medianOf(scratch);
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    scratch[i] = std::fabs(accepted[i] - med);
  }
  const double mad = medianOf(scratch);
  const double dev = std::fabs(x - med);
  if (mad <= 0.0) {
    // Degenerate spread (identical accepted values): fall back to a
    // relative tolerance so a genuinely different reading still trips.
    return dev > 1e-9 * std::max(1.0, std::fabs(med));
  }
  // 0.6745 scales MAD to the sigma of a normal distribution.
  return 0.6745 * dev / mad > threshold;
}

}  // namespace

std::string MeasurementFaultReport::summary() const {
  std::string s = "timeouts=" + std::to_string(timeouts) +
                  " retries=" + std::to_string(retries) +
                  " invalid_traces=" + std::to_string(invalidTraces) +
                  " outliers_rejected=" + std::to_string(outliersRejected) +
                  " samples_sanitized=" + std::to_string(samplesSanitized);
  char buf[48];
  std::snprintf(buf, sizeof buf, " virtual_backoff_s=%.3f", virtualBackoffS);
  return s + buf;
}

bool validateTrace(const PowerTrace& trace, const TraceValidation& options,
                   const char** reason) {
  auto fail = [&](const char* why) {
    if (reason != nullptr) *reason = why;
    return false;
  };
  if (trace.empty()) return fail("empty trace");
  const auto& samples = trace.samples();
  for (const auto& s : samples) {
    if (!std::isfinite(s.power.value())) return fail("non-finite reading");
  }
  if (samples.size() >= 3) {
    // Gap check against the trace's own median sampling interval, so
    // the validator needs no knowledge of the instrument's configured
    // rate (and tolerates the bracketing samples at the window edges).
    std::vector<double> gaps;
    gaps.reserve(samples.size() - 1);
    for (std::size_t i = 1; i < samples.size(); ++i) {
      gaps.push_back((samples[i].time - samples[i - 1].time).value());
    }
    std::vector<double> scratch(gaps);
    const double medianGap = medianOf(scratch);
    for (double g : gaps) {
      if (g > options.maxGapFactor * medianGap) {
        return fail("sampling gap");
      }
    }
  }
  if (options.stuckRunLength >= 2) {
    std::size_t run = 1;
    for (std::size_t i = 1; i < samples.size(); ++i) {
      run = (samples[i].power == samples[i - 1].power) ? run + 1 : 1;
      if (run >= options.stuckRunLength) return fail("stuck reading");
    }
  }
  if (reason != nullptr) *reason = "ok";
  return true;
}

std::size_t sanitizeTrace(PowerTrace& trace, double maxPlausibleWatts) {
  const auto good = [maxPlausibleWatts](const PowerSample& s) {
    return std::isfinite(s.power.value()) && s.power.value() > 0.0 &&
           s.power.value() <= maxPlausibleWatts;
  };
  const auto& samples = trace.samples();
  std::size_t bad = 0;
  for (const auto& s : samples) {
    if (!good(s)) ++bad;
  }
  if (bad == 0) return 0;  // the overwhelmingly common case: no copy
  if (bad == samples.size()) {
    trace.clear();  // nothing salvageable; the caller rejects empty traces
    return bad;
  }
  // Interior corruption is dropped (the trapezoid integration bridges
  // the gap); a corrupted *bracketing* sample is repaired by holding the
  // nearest good reading instead, because the energy integral needs the
  // window endpoints to stay covered.
  std::size_t first = 0;
  while (!good(samples[first])) ++first;
  std::size_t last = samples.size() - 1;
  while (!good(samples[last])) --last;
  std::vector<PowerSample> kept;
  kept.reserve(samples.size() - bad + 2);
  if (first > 0) kept.push_back({samples[0].time, samples[first].power});
  for (std::size_t i = first; i <= last; ++i) {
    if (good(samples[i])) kept.push_back(samples[i]);
  }
  if (last + 1 < samples.size()) {
    kept.push_back({samples[samples.size() - 1].time, samples[last].power});
  }
  trace.clear();
  for (const auto& s : kept) trace.append(s);
  return bad;
}

EnergyMeasurer::EnergyMeasurer(std::shared_ptr<const Meter> meter,
                               Watts calibratedBasePower)
    : meter_(std::move(meter)), basePower_(calibratedBasePower) {
  EP_REQUIRE(meter_ != nullptr, "measurer needs a meter");
  EP_REQUIRE(basePower_.value() >= 0.0, "base power must be non-negative");
}

EnergyMeasurer::EnergyMeasurer(WattsUpMeter meter, Watts calibratedBasePower)
    : EnergyMeasurer(std::make_shared<const WattsUpMeter>(std::move(meter)),
                     calibratedBasePower) {}

EnergyReading EnergyMeasurer::measureOnce(const ProfilePowerSource& profile,
                                          Seconds executionTime, Rng& rng,
                                          Seconds tailWindow) const {
  PowerTrace scratch;
  return measureOnceInto(profile, executionTime, rng, tailWindow, scratch);
}

EnergyReading EnergyMeasurer::measureOnceInto(
    const ProfilePowerSource& profile, Seconds executionTime, Rng& rng,
    Seconds tailWindow, PowerTrace& trace, const RobustnessOptions& robustness,
    std::uint64_t* sanitized) const {
  EP_REQUIRE(executionTime.value() > 0.0, "execution time must be positive");
  EP_REQUIRE(tailWindow.value() >= 0.0, "tail window must be >= 0");
  // The measurement window covers the execution plus any power tail; the
  // meter keeps recording until node power has returned to base, exactly
  // as HCLWattsUp does when it waits for the meter to settle.
  const Seconds window = executionTime + tailWindow;
  EnergyReading r;
  if (robustness.sanitizeSamples || robustness.validation.enabled) {
    meter_->recordInto(profile, window, rng, trace);
    if (robustness.sanitizeSamples) {
      const std::size_t dropped =
          sanitizeTrace(trace, robustness.maxPlausibleWatts);
      if (dropped > 0) {
        if (sanitized != nullptr) *sanitized += dropped;
        measureCounters().samplesSanitized.inc(dropped);
      }
    }
    EP_REQUIRE(!trace.empty(), "meter delivered an empty trace");
    r.totalEnergy = trace.energyBetween(Seconds{0.0}, window);
  } else {
    r.totalEnergy = meter_->recordEnergy(profile, window, rng, trace);
  }
  // Execution time is timed on-device (cudaEvent-style), not by the
  // meter; model its sub-millisecond jitter.
  const double tJitter = 1.0 + rng.normal(0.0, 5e-4);
  r.executionTime = Seconds{executionTime.value() * tJitter};
  r.staticEnergy = basePower_ * window;
  r.dynamicEnergy = r.totalEnergy - r.staticEnergy;
  if (r.dynamicEnergy.value() < 0.0) r.dynamicEnergy = Joules{0.0};
  return r;
}

MeasuredEnergy EnergyMeasurer::measure(
    const ProfilePowerSource& profile, Seconds executionTime, Rng& rng,
    Seconds tailWindow, const stats::MeasurementOptions& options,
    const RobustnessOptions& robustness) const {
  EP_REQUIRE(executionTime.value() > 0.0, "execution time must be positive");
  const stats::MeasurementProtocol protocol(options);
  std::vector<EnergyReading> readings;
  // Typical metered configs converge well before 4x the minimum; the
  // reserve avoids the first few reallocations, and the scratch trace
  // makes the per-repetition recording allocation-free after warm-up.
  readings.reserve(std::min(options.maxRepetitions,
                            options.minRepetitions * 4));
  PowerTrace scratch;
  MeasuredEnergy out;
  // Ground truth for the anomaly watchdog's online decomposition: what
  // the instrument can see of the profile over one window (the meter
  // adds noise and, under epfault, injected pathologies on top of
  // this).  Worked out on the first window an observer sees, so a
  // measurement nobody watches pays nothing for it.
  const Seconds windowLength = executionTime + tailWindow;
  std::optional<double> expectedWindowJ;
  MeasurementFaultReport& report = out.faults;
  std::vector<double> acceptedEnergies;
  std::size_t budgetSpent = 0;

  auto spendBudget = [&](const char* what) {
    if (budgetSpent >= robustness.remeasureBudget) {
      measureCounters().budgetExhausted.inc();
      throw MeasurementError(
          std::string("re-measure budget exhausted after ") + what + " (" +
              report.summary() + ")",
          report);
    }
    ++budgetSpent;
  };

  // One accepted observation: record (with bounded timeout retries),
  // validate the trace, screen the dynamic energy.  Rejections loop
  // back and re-measure from the shared budget.
  auto observeEnergy = [&]() {
    for (;;) {
      EnergyReading reading;
      for (std::size_t attempt = 0;;) {
        try {
          reading = measureOnceInto(profile, executionTime, rng, tailWindow,
                                    scratch, robustness,
                                    &report.samplesSanitized);
          break;
        } catch (const MeterTimeoutError& e) {
          ++report.timeouts;
          measureCounters().timeouts.inc();
          if (attempt >= robustness.timeoutRetries) {
            measureCounters().budgetExhausted.inc();
            throw MeasurementError(
                std::string("meter timeout persisted through ") +
                    std::to_string(robustness.timeoutRetries) +
                    " retries: " + e.what() + " (" + report.summary() + ")",
                report);
          }
          // Deterministic virtual-time exponential backoff: the
          // physical campaign would sleep; the simulation only accounts
          // for the time, keeping the run reproducible and fast.
          report.virtualBackoffS +=
              robustness.backoffBaseS * static_cast<double>(1ULL << attempt);
          ++attempt;
          ++report.retries;
          measureCounters().retries.inc();
        }
      }
      if (robustness.validation.enabled) {
        const char* reason = nullptr;
        if (!validateTrace(scratch, robustness.validation, &reason)) {
          ++report.invalidTraces;
          measureCounters().invalidTraces.inc();
          spendBudget(reason);
          continue;
        }
      }
      const double e = reading.dynamicEnergy.value();
      if (robustness.rejectOutliers) {
        const bool reject =
            !std::isfinite(e) ||
            (acceptedEnergies.size() >= kMinSamplesForMad &&
             isMadOutlier(acceptedEnergies, e, robustness.madThreshold));
        if (reject) {
          ++report.outliersRejected;
          measureCounters().outliersRejected.inc();
          spendBudget("outlier rejection");
          continue;
        }
        acceptedEnergies.push_back(e);
      }
      readings.push_back(reading);
      if (MeasureObserver* watcher = measureObserver()) {
        MeasureWindowObservation window;
        window.scope = MeasureScopeLabel::current();
        if (!expectedWindowJ) {
          expectedWindowJ =
              meter_->visibleEnergy(profile, windowLength).value();
        }
        window.observedJ = reading.totalEnergy.value();
        window.expectedJ = *expectedWindowJ;
        window.staticJ = reading.staticEnergy.value();
        window.windowS = windowLength.value();
        window.traceId = obs::currentContext().traceId;
        watcher->onMeasureWindow(window);
      }
      return e;
    }
  };
  {
    // The Student's-t repetition loop: repeats measureOnce until the
    // 95 % CI criterion is met — the dominant cost of a metered study.
    obs::Span ciSpan("stats/ci_loop");
    out.dynamicEnergyStats = protocol.runBestEffort(observeEnergy);
  }
  if (MeasureObserver* watcher = measureObserver()) {
    watcher->onMeasurementResult(MeasureScopeLabel::current(),
                                 out.dynamicEnergyStats.converged,
                                 out.dynamicEnergyStats.interval.precision());
  }
  // Reuse the recorded readings for the time statistics so both series
  // come from the same repetitions, as in the physical methodology.
  std::size_t idx = 0;
  auto observeTime = [&]() {
    return readings[idx++].executionTime.value();
  };
  stats::MeasurementOptions timeOpts = options;
  timeOpts.minRepetitions = std::min(options.minRepetitions, readings.size());
  timeOpts.maxRepetitions = readings.size();
  const stats::MeasurementProtocol timeProtocol(timeOpts);
  out.executionTimeStats = timeProtocol.runBestEffort(observeTime);

  out.mean.dynamicEnergy = Joules{out.dynamicEnergyStats.mean};
  // epprof energy profile: fold this protocol's attributed dynamic
  // joules — the exact quantity the study ledger sums per config — onto
  // the measuring thread's current stack, sliced by the request trace.
  // Once per protocol, so the energy flamegraph total reconciles with
  // RequestReport.attributedJoules.
  if (obs::profilerArmed() && std::isfinite(out.dynamicEnergyStats.mean)) {
    obs::Profiler::global().recordEnergySample(out.dynamicEnergyStats.mean,
                                               obs::currentContext().traceId);
  }
  out.mean.executionTime = Seconds{out.executionTimeStats.mean};
  const Seconds window = executionTime + tailWindow;
  out.mean.staticEnergy = basePower_ * window;
  out.mean.totalEnergy = out.mean.dynamicEnergy + out.mean.staticEnergy;
  return out;
}

}  // namespace ep::power
