#include "fault/fault.hpp"

#include <bit>

namespace ep::fault {

Rng forkDecision(const Rng& base, std::initializer_list<std::uint64_t> path) {
  EP_REQUIRE(path.size() > 0, "a decision stream needs a key");
  const std::uint64_t* key = path.begin();
  std::uint64_t h = *key;
  while (++key != path.end()) h = mix64(h, *key);
  return base.fork(h);
}

std::size_t pickKind(double u, std::span<const double> weights) {
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if ((u -= weights[i]) < 0.0) return i;
  }
  return weights.size();
}

std::uint64_t FaultTally::total() const {
  std::uint64_t n = 0;
  for (const auto& c : counts_) n += c.load(std::memory_order_relaxed);
  return n;
}

std::string FaultTally::summary() const {
  std::string out;
  for (std::size_t k = 0; k < counts_.size(); ++k) {
    if (const auto n = counts_[k].load(std::memory_order_relaxed)) {
      out.append(kFaultKindNames[k]).append("=").append(std::to_string(n));
      out += ' ';
    }
  }
  return out + "total=" + std::to_string(total());
}

FaultInjectionOptions FaultInjectionOptions::campaign(double rate) {
  EP_REQUIRE(rate >= 0.0 && rate <= 1.0, "fault rate must be in [0, 1]");
  FaultInjectionOptions o;
  o.sampleFaultRate = rate;
  // Window-level faults scale down: one window holds many samples, so
  // equal per-window rates would drown the campaign in timeouts.
  o.timeoutRate = rate / 4.0;
  o.gainDriftRate = rate / 2.0;
  return o;
}

std::uint64_t mixOptions(std::uint64_t h, const FaultInjectionOptions& f) {
  // Binding every member by name: a field added to the campaign stops
  // the build here instead of falling out of the hash.
  const auto& [sampleFaultRate, dropWeight, stuckWeight, spikeWeight,
               nanWeight, zeroWeight, timeoutRate, gainDriftRate, offsetRate,
               offsetWatts] = f;
  for (const double v :
       {sampleFaultRate, dropWeight, stuckWeight, spikeWeight, nanWeight,
        zeroWeight, timeoutRate, gainDriftRate, offsetRate, offsetWatts}) {
    h = mix64(h, std::bit_cast<std::uint64_t>(v));
  }
  return h;
}

}  // namespace ep::fault
