#include "power/meter.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/error.hpp"

namespace ep::power {

WattsUpMeter::WattsUpMeter(MeterOptions options) : options_(options) {
  EP_REQUIRE(options_.sampleInterval.value() > 0.0,
             "sample interval must be positive");
  EP_REQUIRE(options_.quantization.value() >= 0.0,
             "quantization must be non-negative");
}

void WattsUpMeter::recordInto(const PowerSource& source, Seconds duration,
                              Rng& rng, PowerTrace& trace) const {
  EP_REQUIRE(duration.value() > 0.0, "record duration must be positive");
  EP_REQUIRE(std::isfinite(duration.value()), "record duration must be finite");
  const double dt = options_.sampleInterval.value();
  const double end = duration.value();
  double t = options_.randomPhase ? rng.uniform(0.0, dt) : 0.0;
  trace.clear();
  trace.reserve(static_cast<std::size_t>(end / dt) + 2);
  // Sample times are queued a block at a time, and each block draws its
  // noise in one standardNormals call: gain then additive for each
  // sample in turn, the order of two normal() calls per sample, so every
  // trace is bit-identical to drawing them one at a time.  normal(0, s)
  // is z * s + 0.0; the 0.0 only turns -0 into +0, which neither 1 + g
  // nor the final max(0, p) can tell apart.
  constexpr std::size_t kBlock = 128;
  double times[kBlock]{};
  double noise[2 * kBlock]{};
  std::size_t queued = 0;
  const auto flush = [&] {
    rng.standardNormals(noise, 2 * queued);
    for (std::size_t i = 0; i < queued; ++i) {
      // The instrument internally averages over its sampling window; we
      // approximate with the midpoint of the trailing interval.
      const double mid = std::max(0.0, times[i] - 0.5 * dt);
      double p = source.powerAt(Seconds{mid}).value();
      p *= 1.0 + noise[2 * i] * options_.gainNoiseSigma;
      p += noise[2 * i + 1] * options_.additiveNoiseSigma.value();
      if (options_.quantization.value() > 0.0) {
        const double q = options_.quantization.value();
        p = std::round(p / q) * q;
      }
      trace.append({Seconds{times[i]}, Watts{std::max(0.0, p)}});
    }
    queued = 0;
  };
  double last = 0.0;  // end > 0, so an empty trace still gets the end sample
  const auto sampleAt = [&](double time) {
    times[queued++] = time;
    last = time;
    if (queued == kBlock) flush();
  };
  // Always bracket the window with a sample at t=0 and t=duration so
  // integration windows inside [0, duration] are well defined.
  if (t > 0.0) sampleAt(0.0);
  while (t < end) {
    sampleAt(t);
    t += dt;
  }
  if (last < end) sampleAt(end);
  flush();
}

}  // namespace ep::power
