#include "power/profile.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace ep::power {

Joules PowerSource::exactEnergy(Seconds t0, Seconds t1) const {
  EP_REQUIRE(t0 <= t1, "inverted window");
  // Generic fallback: fine-grained midpoint rule.
  constexpr int kSteps = 10000;
  const double dt = (t1 - t0).value() / kSteps;
  double e = 0.0;
  for (int i = 0; i < kSteps; ++i) {
    const Seconds t{t0.value() + (i + 0.5) * dt};
    e += powerAt(t).value() * dt;
  }
  return Joules{e};
}

void PowerSource::powerAtEach(std::span<const Seconds> times,
                              std::span<Watts> out) const {
  EP_REQUIRE(times.size() == out.size(), "one output per time");
  for (std::size_t i = 0; i < times.size(); ++i) out[i] = powerAt(times[i]);
}

ProfilePowerSource::ProfilePowerSource(Watts idlePower) : idle_(idlePower) {
  EP_REQUIRE(idlePower.value() >= 0.0, "idle power must be non-negative");
}

void ProfilePowerSource::addSegment(PowerSegment seg) {
  EP_REQUIRE(seg.start.value() >= 0.0, "segment start must be >= 0");
  EP_REQUIRE(seg.duration.value() >= 0.0, "segment duration must be >= 0");
  EP_REQUIRE(seg.power.value() >= 0.0, "segment power must be >= 0");
  segments_.push_back(seg);
}

Watts ProfilePowerSource::powerAt(Seconds t) const {
  double p = idle_.value();
  for (const auto& s : segments_) {
    if (t >= s.start && t < s.start + s.duration) p += s.power.value();
  }
  return Watts{p};
}

void ProfilePowerSource::powerAtEach(std::span<const Seconds> times,
                                     std::span<Watts> out) const {
  EP_REQUIRE(times.size() == out.size(), "one output per time");
  std::fill(out.begin(), out.end(), idle_);
  for (const auto& s : segments_) {
    const double start = s.start.value();
    const double stop = (s.start + s.duration).value();
    const double p = s.power.value();
    // x + -0.0 == x for every double x, so an inactive sample keeps its
    // bits; selecting the addend, unlike branching, vectorizes.
    const double none = -0.0;
    for (std::size_t i = 0; i < times.size(); ++i) {
      const double t = times[i].value();
      const double add = (t >= start) & (t < stop) ? p : none;
      out[i] += Watts{add};
    }
  }
}

Joules ProfilePowerSource::exactEnergy(Seconds t0, Seconds t1) const {
  EP_REQUIRE(t0 <= t1, "inverted window");
  double e = idle_.value() * (t1 - t0).value();
  for (const auto& s : segments_) {
    const double lo = std::max(t0.value(), s.start.value());
    const double hi =
        std::min(t1.value(), (s.start + s.duration).value());
    if (hi > lo) e += s.power.value() * (hi - lo);
  }
  return Joules{e};
}

}  // namespace ep::power
