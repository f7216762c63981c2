// epfault — deterministic fault injection for the measurement pipeline.
//
// Real measurement campaigns fight instruments that drop samples, stick
// at a reading, spike, return NaN/zero, drift, or time out for whole
// windows.  This library reproduces those pathologies *deterministically*:
// every fault decision is drawn from an ep::Rng stream forked off the
// measurement stream, so a campaign with a fixed seed is bit-for-bit
// reproducible at any thread-pool size — which is what lets the test
// suite assert that the robustness machinery (eppower's RobustnessOptions,
// the study failure policies, the serve circuit breaker) actually
// recovers the paper's results under a known fault load.
#pragma once

#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace ep::fault {

enum class FaultKind {
  DroppedSample,
  StuckReading,
  Spike,
  NanReading,
  ZeroReading,
  GainDrift,
  MeterTimeout,
  ConstantOffset,
};

[[nodiscard]] const char* faultKindName(FaultKind k);

// How a sweep reacts to a configuration whose measurement failed
// (budget exhausted, unlaunchable, ...).
enum class FailPolicy {
  FailFast,       // propagate the first failure (the historical behaviour)
  SkipAndRecord,  // drop the config from the results, surface the error
};

struct FaultInjectionOptions {
  bool enabled = false;

  // Per-sample corruption probability; an affected sample is assigned
  // one of the per-sample kinds below according to the relative weights.
  double sampleFaultRate = 0.0;
  double dropWeight = 0.30;
  double stuckWeight = 0.15;
  double spikeWeight = 0.25;
  double nanWeight = 0.10;
  double zeroWeight = 0.20;

  // Per-window faults.
  double timeoutRate = 0.0;    // whole-window meter timeout probability
  double gainDriftRate = 0.0;  // probability of a linear gain drift
  double gainDriftMax = 0.05;  // drift reaches +/- this at window end
  // Constant additive component: every sample of an affected window
  // reads offsetWatts high, modelling an energy-expensive component
  // switching on (the paper's Fig 6 ~58 W offset).  Unlike a spike it
  // survives sanitization and MAD screening — only a decomposition of
  // the trace against expected power (the anomaly watchdog) sees it.
  double offsetRate = 0.0;
  double offsetWatts = 0.0;

  int stuckRunLength = 4;    // samples held at the stuck value
  double spikeFactor = 4.0;  // multiplicative reading spike

  // Salt of the fault stream forked off the measurement stream; two
  // decorators over the same stream stay decorrelated with distinct
  // salts.
  std::uint64_t streamSalt = 0xFA17ULL;

  // The scripted campaign shape used by the tests and bench_fault_overhead:
  // `rate` is the per-sample corruption probability, with window-level
  // faults scaled down so a multi-sample window is not dominated by
  // timeouts.
  [[nodiscard]] static FaultInjectionOptions campaign(double rate);
};

// Injection tally of one FaultyMeter instance.
struct FaultCounts {
  std::uint64_t dropped = 0;
  std::uint64_t stuck = 0;
  std::uint64_t spikes = 0;
  std::uint64_t nans = 0;
  std::uint64_t zeros = 0;
  std::uint64_t gainDrifts = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t offsets = 0;

  [[nodiscard]] std::uint64_t total() const {
    return dropped + stuck + spikes + nans + zeros + gainDrifts + timeouts +
           offsets;
  }
  FaultCounts& operator+=(const FaultCounts& o);
  [[nodiscard]] std::string summary() const;
};

}  // namespace ep::fault
