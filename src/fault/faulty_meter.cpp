#include "fault/faulty_meter.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "obs/metrics.hpp"

namespace ep::fault {

namespace {

// Key of the fault streams forked off the measurement stream.
constexpr std::uint64_t kMeterSalt = 0xFA17ULL;

obs::Counter& injectedCounter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "ep_fault_injected_total", "Faults injected into meter recordings");
  return c;
}

}  // namespace

FaultyMeter::FaultyMeter(power::WattsUpMeter inner,
                         FaultInjectionOptions faults)
    : inner_(std::move(inner)), faults_(faults) {
  for (const double rate : {faults_.sampleFaultRate, faults_.timeoutRate,
                            faults_.gainDriftRate, faults_.offsetRate}) {
    EP_REQUIRE(rate >= 0.0 && rate <= 1.0, "fault rates must be in [0, 1]");
  }
  EP_REQUIRE(std::isfinite(faults_.offsetWatts),
             "offset watts must be finite");
  EP_REQUIRE(faults_.dropWeight >= 0.0 && faults_.stuckWeight >= 0.0 &&
                 faults_.spikeWeight >= 0.0 && faults_.nanWeight >= 0.0 &&
                 faults_.zeroWeight >= 0.0,
             "fault kind weights must be non-negative");
  sampleWeightSum_ = faults_.dropWeight + faults_.stuckWeight +
                     faults_.spikeWeight + faults_.nanWeight +
                     faults_.zeroWeight;
  EP_REQUIRE(faults_.sampleFaultRate == 0.0 || sampleWeightSum_ > 0.0,
             "sample faults enabled but every kind weight is zero");
}

void FaultyMeter::recordInto(const power::PowerSource& source,
                             Seconds duration, Rng& rng,
                             power::PowerTrace& out) const {
  if (!faults_.enabled()) {
    inner_.recordInto(source, duration, rng, out);
    return;
  }
  const auto inject = [this](FaultKind k) {
    counts_.add(k);
    injectedCounter().inc();
  };
  // The fault stream forks off the measurement stream keyed by window:
  // decisions are deterministic, do not perturb the inner meter's noise
  // draws, and differ between a timed-out window and its retry.
  const std::uint64_t window = ++window_;
  Rng f = forkDecision(rng, {0, kMeterSalt, window});

  // Whole-window timeout is decided before any recording: a stalled
  // serial link delivers nothing, and the inner meter must not consume
  // measurement draws for a window that never happened.
  if (faults_.timeoutRate > 0.0 &&
      f.uniform(0.0, 1.0) < faults_.timeoutRate) {
    inject(FaultKind::MeterTimeout);
    throw power::MeterTimeoutError("injected meter timeout (window " +
                                   std::to_string(window) + ")");
  }

  inner_.recordInto(source, duration, rng, scratch_);
  const auto& samples = scratch_.samples();

  double drift = 0.0;
  if (faults_.gainDriftRate > 0.0 &&
      f.uniform(0.0, 1.0) < faults_.gainDriftRate) {
    drift = f.uniform(-kGainDriftMax, kGainDriftMax);
    inject(FaultKind::GainDrift);
  }
  // Constant additive component over the whole window.  Drawn only when
  // configured so existing campaigns keep their draw sequences.
  double offset = 0.0;
  if (faults_.offsetRate > 0.0 &&
      f.uniform(0.0, 1.0) < faults_.offsetRate) {
    offset = faults_.offsetWatts;
    inject(FaultKind::ConstantOffset);
  }
  const double t0 = samples.empty() ? 0.0 : samples.front().time.value();
  const double span =
      samples.empty()
          ? 1.0
          : std::max(samples.back().time.value() - t0, 1e-12);

  out.clear();
  out.reserve(samples.size());
  // Drop, stuck, spike and NaN in pick order; the remainder is zero.
  const double kindWeights[] = {faults_.dropWeight, faults_.stuckWeight,
                                faults_.spikeWeight, faults_.nanWeight};
  int stuckRemaining = 0;
  double stuckValue = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    // The bracketing samples at the window edges are never dropped:
    // energy integration needs the window endpoints (they may still be
    // value-corrupted, which trace validation catches).
    const bool endpoint = i == 0 || i + 1 == samples.size();
    double p = samples[i].power.value();
    // Gain drift grows linearly over the window, reaching `drift` at
    // the last sample — a slow instrument calibration walk.
    p *= 1.0 + drift * ((samples[i].time.value() - t0) / span);
    const double u = f.uniform(0.0, 1.0);
    if (stuckRemaining > 0) {
      p = stuckValue;
      --stuckRemaining;
    } else if (faults_.sampleFaultRate > 0.0 &&
               u < faults_.sampleFaultRate) {
      // u < rate implies u/rate is itself uniform in [0, 1): one draw
      // decides both whether a sample faults and which kind it gets.
      switch (pickKind((u / faults_.sampleFaultRate) * sampleWeightSum_,
                       kindWeights)) {
        case 0:
          if (endpoint) break;
          inject(FaultKind::DroppedSample);
          continue;
        case 1:
          inject(FaultKind::StuckReading);
          stuckValue = p;
          stuckRemaining = kStuckRunLength - 1;
          break;
        case 2:
          inject(FaultKind::Spike);
          p *= kSpikeFactor;
          break;
        case 3:
          inject(FaultKind::NanReading);
          p = std::numeric_limits<double>::quiet_NaN();
          break;
        default:
          inject(FaultKind::ZeroReading);
          p = 0.0;
      }
    }
    out.append({samples[i].time, Watts{p + offset}});
  }
}

}  // namespace ep::fault
