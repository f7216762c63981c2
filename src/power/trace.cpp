#include "power/trace.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace ep::power {

PowerTrace::PowerTrace(std::vector<PowerSample> samples)
    : samples_(std::move(samples)) {
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    EP_REQUIRE(samples_[i - 1].time < samples_[i].time,
               "trace timestamps must be strictly increasing");
  }
}

void PowerTrace::append(PowerSample s) {
  append(std::span<const PowerSample>(&s, 1));
}

void PowerTrace::append(std::span<const PowerSample> block) {
  const PowerSample* prev = samples_.empty() ? nullptr : &samples_.back();
  for (const PowerSample& s : block) {
    EP_REQUIRE(prev == nullptr || prev->time < s.time,
               "trace timestamps must be strictly increasing");
    prev = &s;
  }
  samples_.insert(samples_.end(), block.begin(), block.end());
}

Seconds PowerTrace::startTime() const {
  EP_REQUIRE(!samples_.empty(), "empty trace");
  return samples_.front().time;
}

Seconds PowerTrace::endTime() const {
  EP_REQUIRE(!samples_.empty(), "empty trace");
  return samples_.back().time;
}

Seconds PowerTrace::duration() const { return endTime() - startTime(); }

Joules PowerTrace::totalEnergy() const {
  EP_REQUIRE(!samples_.empty(), "empty trace");
  return energyBetween(startTime(), endTime());
}

Watts PowerTrace::powerAt(Seconds t) const {
  EP_REQUIRE(!samples_.empty(), "empty trace");
  EP_REQUIRE(t >= startTime() && t <= endTime(), "time outside trace");
  const auto it = std::lower_bound(
      samples_.begin(), samples_.end(), t,
      [](const PowerSample& s, Seconds tt) { return s.time < tt; });
  if (it == samples_.begin()) return it->power;
  if (it == samples_.end()) return samples_.back().power;
  const PowerSample& hi = *it;
  const PowerSample& lo = *(it - 1);
  if (hi.time == t) return hi.power;
  const double frac = (t - lo.time) / (hi.time - lo.time);
  return Watts{lo.power.value() +
               frac * (hi.power.value() - lo.power.value())};
}

Joules PowerTrace::energyBetween(Seconds t0, Seconds t1) const {
  EP_REQUIRE(!samples_.empty(), "empty trace");
  EP_REQUIRE(t0 <= t1, "inverted window");
  EP_REQUIRE(t0 >= startTime() && t1 <= endTime(), "window outside trace");
  if (t0 == t1) return Joules{0.0};

  TrapezoidIntegral integral({t0, powerAt(t0)});
  for (const auto& s : samples_) {
    if (s.time <= t0) continue;
    if (s.time >= t1) break;
    integral.add(s);
  }
  integral.add({t1, powerAt(t1)});
  return integral.energy();
}

Watts PowerTrace::meanPower() const {
  const Seconds d = duration();
  EP_REQUIRE(d.value() > 0.0, "trace too short for mean power");
  return totalEnergy() / d;
}

}  // namespace ep::power
