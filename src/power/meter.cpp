#include "power/meter.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <span>

#include "common/error.hpp"

namespace ep::power {

WattsUpMeter::WattsUpMeter(MeterOptions options) : options_(options) {
  EP_REQUIRE(options_.sampleInterval.value() > 0.0,
             "sample interval must be positive");
  EP_REQUIRE(options_.quantization.value() >= 0.0,
             "quantization must be non-negative");
}

namespace {

void requireWindow(Seconds duration) {
  EP_REQUIRE(duration.value() > 0.0, "record duration must be positive");
  EP_REQUIRE(std::isfinite(duration.value()), "record duration must be finite");
}

// std::round(v), round half away from zero, for every double, in plain
// double adds, compares and sign-bit operations, so the sample pass
// calls no libm round and vectorizes on baseline x86-64.  For |v| <
// 2^52, |v| + 2^52 lands where the ulp is 1, so adding and subtracting
// 2^52 rounds |v| to an integer, ties to even; a tie rounded down is
// then moved up.  Larger |v| are integers already, and they, +-inf and
// NaN pass through unchanged.
double roundHalfAway(double v) {
  constexpr double kTwo52 = 0x1p52;
  const double a = std::fabs(v);
  double r = (a + kTwo52) - kTwo52;
  r += (a - r == 0.5) ? 1.0 : 0.0;
  return a < kTwo52 ? std::copysign(r, v) : v;
}

// The one sampling loop of WattsUpMeter: sample times, power, noise and
// quantization, handed to `sink` a block of up to kBlock samples at a
// time.  Each block evaluates the source once and draws its noise in one
// standardNormals call: gain then additive for each sample in turn, the
// order of two normal() calls per sample, so every sample is
// bit-identical to drawing them one at a time.  normal(0, s) is
// z * s + 0.0; the 0.0 only turns -0 into +0, which neither 1 + g nor
// the final max(0, p) can tell apart.  The noise, quantization and
// clamp pass over a block calls no library function, so it runs as
// vector code.
template <class Sink>
void sampleWindow(const MeterOptions& options, const PowerSource& source,
                  Seconds duration, Rng& rng, Sink&& sink) {
  const double dt = options.sampleInterval.value();
  const double end = duration.value();
  const double gain = options.gainNoiseSigma;
  const double additive = options.additiveNoiseSigma.value();
  const double q = options.quantization.value();
  double t = options.randomPhase ? rng.uniform(0.0, dt) : 0.0;
  constexpr std::size_t kBlock = 128;
  PowerSample block[kBlock];
  Seconds mids[kBlock];
  Watts power[kBlock];
  double noise[2 * kBlock]{};
  std::size_t queued = 0;
  const auto flush = [&] {
    if (queued == 0) return;
    // The instrument internally averages over its sampling window; we
    // approximate with the midpoint of the trailing interval.
    for (std::size_t i = 0; i < queued; ++i) {
      mids[i] = Seconds{std::max(0.0, block[i].time.value() - 0.5 * dt)};
    }
    source.powerAtEach({mids, queued}, {power, queued});
    rng.standardNormals(noise, 2 * queued);
    for (std::size_t i = 0; i < queued; ++i) {
      double p = power[i].value();
      p *= 1.0 + noise[2 * i] * gain;
      p += noise[2 * i + 1] * additive;
      if (q > 0.0) p = roundHalfAway(p / q) * q;
      block[i].power = Watts{std::max(0.0, p)};
    }
    sink(std::span<const PowerSample>{block, queued});
    queued = 0;
  };
  double last = 0.0;  // end > 0, so an empty window still gets the end sample
  const auto sampleAt = [&](double time) {
    block[queued++].time = Seconds{time};
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

}  // namespace

Joules Meter::recordEnergy(const PowerSource& source, Seconds duration,
                           Rng& rng, PowerTrace& scratch) const {
  recordInto(source, duration, rng, scratch);
  return scratch.energyBetween(Seconds{0.0}, duration);
}

Joules Meter::visibleEnergy(const PowerSource& source,
                            Seconds duration) const {
  return source.exactEnergy(Seconds{0.0}, duration);
}

Joules WattsUpMeter::visibleEnergy(const PowerSource& source,
                                   Seconds duration) const {
  const Seconds lag = 0.5 * options_.sampleInterval;
  const Watts first = source.powerAt(Seconds{0.0});
  if (duration <= lag) return first * duration;
  return first * lag + source.exactEnergy(Seconds{0.0}, duration - lag);
}

void WattsUpMeter::recordInto(const PowerSource& source, Seconds duration,
                              Rng& rng, PowerTrace& trace) const {
  requireWindow(duration);
  trace.clear();
  trace.reserve(
      static_cast<std::size_t>(duration.value() /
                               options_.sampleInterval.value()) +
      2);
  sampleWindow(options_, source, duration, rng,
               [&](std::span<const PowerSample> b) { trace.append(b); });
}

// The window's first sample is at 0 and its last at `duration`, so the
// running trapezoid over the samples adds the terms energyBetween(0,
// duration) adds over recordInto's trace, in the same order.
Joules WattsUpMeter::recordEnergy(const PowerSource& source, Seconds duration,
                                  Rng& rng, PowerTrace& /*scratch*/) const {
  requireWindow(duration);
  std::optional<TrapezoidIntegral> integral;
  sampleWindow(options_, source, duration, rng,
               [&](std::span<const PowerSample> b) {
                 std::size_t i = 0;
                 if (!integral) integral.emplace(b[i++]);
                 for (; i < b.size(); ++i) integral->add(b[i]);
               });
  return integral->energy();
}

}  // namespace ep::power
