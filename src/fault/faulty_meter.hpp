// FaultyMeter: a fault-injecting decorator over any power::Meter.
//
// Wraps the instrument and corrupts its output according to
// FaultInjectionOptions: whole-window timeouts (thrown as
// power::MeterTimeoutError before any recording), window-level gain
// drift, and per-sample corruption (dropped / stuck-at / spike / NaN /
// zero readings).  The inner meter's noise stream is untouched — a
// faulted recording is exactly the clean recording plus corruption —
// and every fault decision draws from a stream forked off the
// measurement Rng with a per-window key, so:
//
//   * serial == parallel bitwise identity is preserved (each
//     configuration measures through its own forked stream, as
//     everywhere else in the pipeline), and
//   * a retry after a timeout sees a *new* fault stream (the window
//     counter advances), so bounded retries can actually recover.
//
// One FaultyMeter serves one measurement stream: recordInto mutates the
// window counter and the injection tally, so concurrent calls on a
// single instance are not supported (the apps construct one meter per
// configuration, which is exactly that shape).
#pragma once

#include "fault/fault.hpp"
#include "power/meter.hpp"

namespace ep::fault {

class FaultyMeter final : public power::Meter {
 public:
  // Gain drift reaches +/- this at the end of a drifting window.
  static constexpr double kGainDriftMax = 0.05;
  // Samples held at a stuck reading, the first one included.
  static constexpr int kStuckRunLength = 4;
  // A spiked sample reads this many times its clean value.
  static constexpr double kSpikeFactor = 4.0;

  FaultyMeter(power::WattsUpMeter inner, FaultInjectionOptions faults);

  void recordInto(const power::PowerSource& source, Seconds duration,
                  Rng& rng, power::PowerTrace& out) const override;
  // The clean instrument's: what the faults add is what the watchdog
  // looks for.
  [[nodiscard]] Joules visibleEnergy(const power::PowerSource& source,
                                     Seconds duration) const override {
    return inner_.visibleEnergy(source, duration);
  }

  // Injection tally since construction.
  [[nodiscard]] const FaultTally& counts() const { return counts_; }
  // Recording windows attempted (including timed-out ones).
  [[nodiscard]] std::uint64_t windows() const { return window_; }

 private:
  power::WattsUpMeter inner_;
  FaultInjectionOptions faults_;
  double sampleWeightSum_ = 0.0;
  // Per-instance recording state (one instrument = one measurement
  // stream; see header comment).
  mutable std::uint64_t window_ = 0;
  mutable FaultTally counts_;
  mutable power::PowerTrace scratch_;
};

}  // namespace ep::fault
