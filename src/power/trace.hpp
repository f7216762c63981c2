// Sampled wall-power traces.
//
// A PowerTrace is what a physical WattsUp Pro meter delivers: a sequence
// of (timestamp, watts) samples.  Energy is recovered by trapezoidal
// integration, exactly as wall-meter tooling (HCLWattsUp) does.
#pragma once

#include <span>
#include <vector>

#include "common/units.hpp"

namespace ep::power {

struct PowerSample {
  Seconds time{0.0};
  Watts power{0.0};
};

// Trapezoidal integration over samples fed in time order, starting at a
// first sample.  The one copy of the integration arithmetic: energyBetween
// runs it over a stored trace, WattsUpMeter::recordEnergy over the
// samples as the meter draws them.
class TrapezoidIntegral {
 public:
  explicit TrapezoidIntegral(PowerSample first) : prev_(first) {}

  void add(PowerSample s) {
    energy_ += 0.5 * (prev_.power.value() + s.power.value()) *
               (s.time - prev_.time).value();
    prev_ = s;
  }

  [[nodiscard]] Joules energy() const { return Joules{energy_}; }

 private:
  PowerSample prev_;
  double energy_ = 0.0;
};

class PowerTrace {
 public:
  PowerTrace() = default;
  explicit PowerTrace(std::vector<PowerSample> samples);

  void append(PowerSample s);
  // Append a block in order; every timestamp must exceed the one before.
  void append(std::span<const PowerSample> block);

  // Drop all samples but keep the capacity: lets the measurement loop
  // reuse one trace buffer across CI repetitions instead of allocating
  // a fresh vector per measureOnce.
  void clear() { samples_.clear(); }
  void reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] const std::vector<PowerSample>& samples() const {
    return samples_;
  }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }

  [[nodiscard]] Seconds startTime() const;
  [[nodiscard]] Seconds endTime() const;
  [[nodiscard]] Seconds duration() const;

  // Trapezoidal integral of power over the full trace.
  [[nodiscard]] Joules totalEnergy() const;

  // Trapezoidal integral restricted to [t0, t1]; samples are linearly
  // interpolated at the window edges.  Window must lie inside the trace.
  [[nodiscard]] Joules energyBetween(Seconds t0, Seconds t1) const;

  // Mean power over the full trace (total energy / duration).
  [[nodiscard]] Watts meanPower() const;

  // Interpolated power at time t (t inside the trace).
  [[nodiscard]] Watts powerAt(Seconds t) const;

 private:
  std::vector<PowerSample> samples_;  // strictly increasing timestamps
};

}  // namespace ep::power
