// Ground-truth node power as a function of time.
//
// Hardware models (ephw) describe an application run as a piecewise-
// constant power profile layered on top of the node's idle (static)
// power.  The simulated wall meter samples a PowerSource; the profile is
// the "physics", the meter is the "instrument".
#pragma once

#include <span>
#include <vector>

#include "common/units.hpp"

namespace ep::power {

// Abstract instantaneous node power.
class PowerSource {
 public:
  virtual ~PowerSource() = default;
  [[nodiscard]] virtual Watts powerAt(Seconds t) const = 0;
  // powerAt at each of `times`, into `out` (same size).  The meter
  // evaluates a block of samples per call; the default calls powerAt
  // per element, and an override must return the same bits.
  virtual void powerAtEach(std::span<const Seconds> times,
                           std::span<Watts> out) const;
  // Exact integral over [t0, t1]; default implementations may override
  // with closed forms.  Used for ground-truth validation in tests.
  [[nodiscard]] virtual Joules exactEnergy(Seconds t0, Seconds t1) const;
};

// One constant-power phase of an execution.
struct PowerSegment {
  Seconds start{0.0};
  Seconds duration{0.0};
  Watts power{0.0};  // additional power above the node's idle power
};

// Idle (base) power plus a set of possibly overlapping constant-power
// segments.  Overlaps add — e.g. an SM-activity segment and the uncore
// clock-boost segment of the Fig 6 analysis coexist.
class ProfilePowerSource final : public PowerSource {
 public:
  explicit ProfilePowerSource(Watts idlePower);

  void addSegment(PowerSegment seg);

  [[nodiscard]] Watts idlePower() const { return idle_; }
  [[nodiscard]] const std::vector<PowerSegment>& segments() const {
    return segments_;
  }

  [[nodiscard]] Watts powerAt(Seconds t) const override;
  // The additions of powerAt in its order (idle, then each active
  // segment), one segment at a time over the whole block.
  void powerAtEach(std::span<const Seconds> times,
                   std::span<Watts> out) const override;
  [[nodiscard]] Joules exactEnergy(Seconds t0, Seconds t1) const override;

 private:
  Watts idle_;
  std::vector<PowerSegment> segments_;
};

}  // namespace ep::power
