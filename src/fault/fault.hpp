// epfault — deterministic fault injection for the measurement pipeline,
// and the fault plane epchaos shares with it.
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
//
// The decision kernel below is the one every injector calls, meter and
// serving alike (FaultyMeter here; FaultyTransport, NetChaos,
// ChaosEngine and RetryPolicy in epchaos): forkDecision() keys a
// decision stream, pickKind() maps a uniform draw onto weighted kinds,
// and FaultTally counts what fired, keyed by FaultKind.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace ep::fault {

// Forks the decision stream keyed by `path` off `base`: the first key
// seeds the fold h and each later key k is chained in as
// h = mix64(h, k); the stream is base.fork(h).
[[nodiscard]] Rng forkDecision(const Rng& base,
                               std::initializer_list<std::uint64_t> path);

// Index of the first weight the draw `u` falls under once every earlier
// weight is subtracted from it, or weights.size() when none does (the
// remainder).  For IEEE doubles (u - w) < 0 holds exactly when u < w,
// so callers may read the pick as a chain of "u < w, else u -= w".
[[nodiscard]] std::size_t pickKind(double u, std::span<const double> weights);

enum class FaultKind : std::uint8_t {
  // Measurement faults (FaultyMeter).
  DroppedSample,
  StuckReading,
  Spike,
  NanReading,
  ZeroReading,
  GainDrift,
  MeterTimeout,
  ConstantOffset,
  // Serving faults (epchaos).
  ConnectReset,
  TornFrame,
  CorruptFrame,
  Stall,
  AcceptDrop,
  InboundCorrupt,
  EngineFailure,
  EngineHang,
};

inline constexpr std::array<std::string_view, 16> kFaultKindNames = {
    "dropped_sample", "stuck_reading",  "spike",          "nan_reading",
    "zero_reading",   "gain_drift",     "meter_timeout",  "constant_offset",
    "connect_reset",  "torn_frame",     "corrupt_frame",  "stall",
    "accept_drop",    "inbound_corrupt", "engine_failure", "engine_hang",
};

// Injection tally keyed by kind.  Relaxed atomics: injectors that run on
// several threads (ChaosEngine, the NetChaos hooks) count without a lock.
class FaultTally {
 public:
  void add(FaultKind k) {
    counts_[static_cast<std::size_t>(k)].fetch_add(1,
                                                   std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t operator[](FaultKind k) const {
    return counts_[static_cast<std::size_t>(k)].load(
        std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total() const;
  // "kind=n ..." over the kinds that fired, then "total=n".
  [[nodiscard]] std::string summary() const;

 private:
  std::array<std::atomic<std::uint64_t>, kFaultKindNames.size()> counts_{};
};

// How a sweep reacts to a configuration whose measurement failed
// (budget exhausted, unlaunchable, ...).
enum class FailPolicy {
  FailFast,       // propagate the first failure (the historical behaviour)
  SkipAndRecord,  // drop the config from the results, surface the error
};

struct FaultInjectionOptions {
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
  // Constant additive component: every sample of an affected window
  // reads offsetWatts high, modelling an energy-expensive component
  // switching on (the paper's Fig 6 ~58 W offset).  Unlike a spike it
  // survives sanitization and MAD screening — only a decomposition of
  // the trace against expected power (the anomaly watchdog) sees it.
  double offsetRate = 0.0;
  double offsetWatts = 0.0;

  // A campaign is on when any fault can fire.
  [[nodiscard]] bool enabled() const {
    return sampleFaultRate > 0.0 || timeoutRate > 0.0 ||
           gainDriftRate > 0.0 || offsetRate > 0.0;
  }

  // The scripted campaign shape used by the tests and bench_fault_overhead:
  // `rate` is the per-sample corruption probability, with window-level
  // faults scaled down so a multi-sample window is not dominated by
  // timeouts.
  [[nodiscard]] static FaultInjectionOptions campaign(double rate);
};

// Chains every setting of `f` into the hash accumulator `h`: the one
// identity of a campaign, shared by the study journal guard and the
// serve engine's cache key.
[[nodiscard]] std::uint64_t mixOptions(std::uint64_t h,
                                       const FaultInjectionOptions& f);

}  // namespace ep::fault
