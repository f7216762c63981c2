// HCLWattsUp-style energy measurement.
//
// Reproduces the methodology of the paper's tooling [34]: the node's
// base (idle) power is calibrated from an idle trace, an execution is
// recorded through the wall meter, and
//
//   total energy   = integral of sampled power over the execution window
//   static energy  = base power x execution time
//   dynamic energy = total energy - static energy
//
// measureOnce() gives a single (noisy) observation; measure() wraps it in
// the paper's Student's-t measurement protocol (epstats) and returns the
// accepted means.
//
// Robust mode (RobustnessOptions) hardens the CI loop against the
// instrument pathologies real campaigns fight (epfault injects them
// deterministically): every recorded trace is validated (sampling gaps,
// NaN readings, stuck runs), accepted observations pass MAD-based
// outlier rejection, and a whole-window meter timeout is retried with
// bounded, deterministic virtual-time exponential backoff.  Rejected
// observations are re-measured from a shared budget; only when the
// budget is exhausted does measure() raise MeasurementError carrying
// the structured fault report.  All knobs default to off, in which case
// the draw sequence is bit-identical to the pre-robustness measurer.
#pragma once

#include <limits>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "power/meter.hpp"
#include "power/profile.hpp"
#include "stats/ttest.hpp"

namespace ep::power {

struct EnergyReading {
  Seconds executionTime{0.0};
  Joules totalEnergy{0.0};
  Joules staticEnergy{0.0};
  Joules dynamicEnergy{0.0};
};

// What the robust measurement loop saw and did for one configuration.
struct MeasurementFaultReport {
  std::uint64_t timeouts = 0;         // MeterTimeoutError occurrences
  std::uint64_t retries = 0;          // re-recordings after a timeout
  std::uint64_t invalidTraces = 0;    // trace-validation rejections
  std::uint64_t outliersRejected = 0; // MAD rejections
  std::uint64_t samplesSanitized = 0; // impossible readings dropped
  // Total virtual back-off time the physical campaign would have slept.
  double virtualBackoffS = 0.0;

  [[nodiscard]] std::uint64_t recoveries() const {
    return retries + invalidTraces + outliersRejected;
  }
  [[nodiscard]] std::string summary() const;
};

// The robust loop exhausted its budget: the configuration cannot be
// measured.  Carries the structured report of everything that was
// tried, for the study layer to surface.
class MeasurementError : public EpError {
 public:
  MeasurementError(const std::string& what, MeasurementFaultReport report)
      : EpError(what), report_(report) {}

  [[nodiscard]] const MeasurementFaultReport& report() const {
    return report_;
  }

 private:
  MeasurementFaultReport report_;
};

struct TraceValidation {
  bool enabled = false;
  // A sampling gap larger than maxGapFactor x the trace's median
  // inter-sample interval marks the trace invalid (>= 2 consecutive
  // dropped samples at the default 2.6).
  double maxGapFactor = 2.6;
  // This many identical consecutive readings mark the instrument stuck.
  // Legitimate quantized traces repeat occasionally; five in a row is
  // vanishingly unlikely at the WattsUp noise floor.
  std::size_t stuckRunLength = 5;
};

struct RobustnessOptions {
  TraceValidation validation{};
  // Drop samples no wall meter can legitimately report — non-finite,
  // non-positive, or above the node's plausible peak draw (PSU rating;
  // instrument metadata a real campaign always has) — *before*
  // integrating the trace.  This is the per-sample recovery tier: at
  // realistic fault rates a long trace is almost never entirely clean,
  // so whole-trace rejection alone would burn the re-measure budget on
  // recoverable corruption.  Validation then judges only the structural
  // defects sanitization cannot repair (sampling gaps, stuck runs).
  bool sanitizeSamples = false;
  double maxPlausibleWatts = std::numeric_limits<double>::infinity();
  // MAD (modified z-score) outlier rejection over the accepted
  // dynamic-energy observations, once six are accepted; non-finite
  // observations are always rejected when enabled.
  bool rejectOutliers = false;
  double madThreshold = 4.0;
  // Shared re-measure budget for invalid traces + rejected outliers.
  std::size_t remeasureBudget = 32;
  // Bounded retry on MeterTimeoutError, per observation; the back-off
  // is virtual time (deterministic), doubling from backoffBaseS.
  std::size_t timeoutRetries = 4;
  double backoffBaseS = 0.5;

  [[nodiscard]] bool any() const {
    return validation.enabled || sanitizeSamples || rejectOutliers;
  }
};

// Validate one recorded trace against the instrument fault model; on
// rejection returns false and (if non-null) points *reason at a static
// description.  Exposed for tests.
[[nodiscard]] bool validateTrace(const PowerTrace& trace,
                                 const TraceValidation& options,
                                 const char** reason = nullptr);

// Remove physically impossible samples (non-finite, non-positive, or
// above `maxPlausibleWatts`) from `trace` in place; a corrupted
// bracketing sample is repaired (nearest good reading held) instead of
// dropped so the integration window stays covered.  Returns how many
// samples were corrupted.  A no-op on any trace a fault-free instrument
// can produce.  Exposed for tests.
std::size_t sanitizeTrace(
    PowerTrace& trace,
    double maxPlausibleWatts = std::numeric_limits<double>::infinity());

struct MeasuredEnergy {
  EnergyReading mean;
  stats::MeasurementResult dynamicEnergyStats;
  stats::MeasurementResult executionTimeStats;
  MeasurementFaultReport faults;  // zeroes on a clean run
};

class EnergyMeasurer {
 public:
  // Measure through any instrument (a WattsUpMeter, an epfault
  // FaultyMeter, ...).
  EnergyMeasurer(std::shared_ptr<const Meter> meter,
                 Watts calibratedBasePower);
  // Convenience: wrap a concrete WattsUpMeter by value.
  EnergyMeasurer(WattsUpMeter meter, Watts calibratedBasePower);

  // One noisy observation of an execution described by `profile` whose
  // activity spans [0, executionTime].  The recording window extends past
  // the execution end by `tailWindow` so post-execution power tails
  // (clock-boost hysteresis) are captured, as a wall meter would.
  [[nodiscard]] EnergyReading measureOnce(const ProfilePowerSource& profile,
                                          Seconds executionTime, Rng& rng,
                                          Seconds tailWindow = Seconds{
                                              0.0}) const;

  // Full paper protocol: repeat measureOnce until the dynamic-energy mean
  // satisfies the 95 % CI / 2.5 % precision criterion.  With robustness
  // enabled, each observation is validated/retried as described above;
  // throws MeasurementError once the budget is exhausted.
  [[nodiscard]] MeasuredEnergy measure(
      const ProfilePowerSource& profile, Seconds executionTime, Rng& rng,
      Seconds tailWindow = Seconds{0.0},
      const stats::MeasurementOptions& options = {},
      const RobustnessOptions& robustness = {}) const;

  [[nodiscard]] const Meter& meter() const { return *meter_; }

 private:
  // measureOnce with a caller-owned scratch trace, reused across the CI
  // repetitions.  When robustness sanitizes or validates, the window is
  // recorded into `scratch`; with sanitizeSamples, impossible samples are
  // dropped (and counted into *sanitized) before integration.  Otherwise
  // the meter integrates while sampling (Meter::recordEnergy) and keeps
  // no trace; both paths draw and add the same numbers.
  [[nodiscard]] EnergyReading measureOnceInto(
      const ProfilePowerSource& profile, Seconds executionTime, Rng& rng,
      Seconds tailWindow, PowerTrace& scratch,
      const RobustnessOptions& robustness = {},
      std::uint64_t* sanitized = nullptr) const;

  std::shared_ptr<const Meter> meter_;
  Watts basePower_;
};

}  // namespace ep::power
