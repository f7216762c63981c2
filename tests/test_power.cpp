// Unit tests for eppower: traces, profiles, the simulated WattsUp meter,
// and the HCLWattsUp-style energy measurer.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fault/faulty_meter.hpp"
#include "obs/trace.hpp"
#include "power/measurer.hpp"
#include "power/meter.hpp"
#include "power/observer.hpp"
#include "power/profile.hpp"
#include "power/trace.hpp"

namespace ep::power {
namespace {

using ep::literals::operator""_s;
using ep::literals::operator""_W;
using ep::literals::operator""_J;

// --- trace ---

TEST(Trace, ConstantPowerIntegratesExactly) {
  PowerTrace t;
  for (int i = 0; i <= 10; ++i) {
    t.append({Seconds{static_cast<double>(i)}, 100.0_W});
  }
  EXPECT_DOUBLE_EQ(t.totalEnergy().value(), 1000.0);
  EXPECT_DOUBLE_EQ(t.meanPower().value(), 100.0);
  EXPECT_DOUBLE_EQ(t.duration().value(), 10.0);
}

TEST(Trace, LinearRampIntegratesExactly) {
  // P(t) = 10 t over [0, 10]: energy = 500.
  PowerTrace t;
  for (int i = 0; i <= 10; ++i) {
    t.append({Seconds{static_cast<double>(i)},
              Watts{10.0 * static_cast<double>(i)}});
  }
  EXPECT_DOUBLE_EQ(t.totalEnergy().value(), 500.0);
}

TEST(Trace, WindowedEnergyInterpolatesEdges) {
  PowerTrace t;
  t.append({0.0_s, 100.0_W});
  t.append({10.0_s, 100.0_W});
  EXPECT_DOUBLE_EQ(t.energyBetween(2.5_s, 7.5_s).value(), 500.0);
}

TEST(Trace, ZeroWidthWindowIsZero) {
  PowerTrace t;
  t.append({0.0_s, 100.0_W});
  t.append({10.0_s, 100.0_W});
  EXPECT_DOUBLE_EQ(t.energyBetween(5.0_s, 5.0_s).value(), 0.0);
}

TEST(Trace, PowerAtInterpolates) {
  PowerTrace t;
  t.append({0.0_s, 0.0_W});
  t.append({10.0_s, 100.0_W});
  EXPECT_DOUBLE_EQ(t.powerAt(5.0_s).value(), 50.0);
  EXPECT_DOUBLE_EQ(t.powerAt(0.0_s).value(), 0.0);
  EXPECT_DOUBLE_EQ(t.powerAt(10.0_s).value(), 100.0);
}

TEST(Trace, RejectsNonMonotonicTimestamps) {
  PowerTrace t;
  t.append({1.0_s, 1.0_W});
  EXPECT_THROW(t.append({1.0_s, 2.0_W}), PreconditionError);
  EXPECT_THROW(t.append({0.5_s, 2.0_W}), PreconditionError);
}

TEST(Trace, BlockAppendRejectsNonIncreasingTimestamps) {
  PowerTrace t;
  const PowerSample first[] = {{0.0_s, 1.0_W}, {1.0_s, 2.0_W}};
  t.append(first);
  const PowerSample repeatsLast[] = {{1.0_s, 3.0_W}};
  const PowerSample goesBack[] = {{0.5_s, 3.0_W}};
  const PowerSample repeatsInside[] = {{2.0_s, 3.0_W}, {2.0_s, 4.0_W}};
  EXPECT_THROW(t.append(repeatsLast), PreconditionError);
  EXPECT_THROW(t.append(goesBack), PreconditionError);
  EXPECT_THROW(t.append(repeatsInside), PreconditionError);
  EXPECT_EQ(t.size(), 2u);  // a rejected block appends nothing
  const PowerSample next[] = {{2.0_s, 3.0_W}, {3.0_s, 4.0_W}};
  t.append(next);
  t.append(std::span<const PowerSample>{});
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t.endTime(), 3.0_s);
  EXPECT_DOUBLE_EQ(t.totalEnergy().value(), 1.5 + 2.5 + 3.5);
  PowerTrace empty;
  EXPECT_THROW(empty.append(repeatsInside), PreconditionError);
  EXPECT_TRUE(empty.empty());
}

TEST(Trace, RejectsWindowOutsideTrace) {
  PowerTrace t;
  t.append({0.0_s, 1.0_W});
  t.append({1.0_s, 1.0_W});
  EXPECT_THROW((void)t.energyBetween(0.0_s, 2.0_s), PreconditionError);
  EXPECT_THROW((void)t.energyBetween(0.5_s, 0.25_s), PreconditionError);
}

TEST(Trace, EmptyTraceThrows) {
  const PowerTrace t;
  EXPECT_THROW((void)t.totalEnergy(), PreconditionError);
  EXPECT_THROW((void)t.startTime(), PreconditionError);
}

// --- profile ---

TEST(Profile, IdleOnlyPower) {
  const ProfilePowerSource p(90.0_W);
  EXPECT_DOUBLE_EQ(p.powerAt(3.0_s).value(), 90.0);
  EXPECT_DOUBLE_EQ(p.exactEnergy(0.0_s, 10.0_s).value(), 900.0);
}

TEST(Profile, SegmentsAddOnTopOfIdle) {
  ProfilePowerSource p(100.0_W);
  p.addSegment({0.0_s, 5.0_s, 50.0_W});
  p.addSegment({2.0_s, 2.0_s, 25.0_W});  // overlaps the first
  EXPECT_DOUBLE_EQ(p.powerAt(1.0_s).value(), 150.0);
  EXPECT_DOUBLE_EQ(p.powerAt(3.0_s).value(), 175.0);
  EXPECT_DOUBLE_EQ(p.powerAt(6.0_s).value(), 100.0);
}

TEST(Profile, ExactEnergyMatchesHandComputation) {
  ProfilePowerSource p(100.0_W);
  p.addSegment({0.0_s, 5.0_s, 50.0_W});
  // 10 s idle (1000 J) + 5 s x 50 W (250 J).
  EXPECT_DOUBLE_EQ(p.exactEnergy(0.0_s, 10.0_s).value(), 1250.0);
}

TEST(Profile, SegmentBoundariesAreHalfOpen) {
  ProfilePowerSource p(0.0_W);
  p.addSegment({1.0_s, 1.0_s, 10.0_W});
  EXPECT_DOUBLE_EQ(p.powerAt(1.0_s).value(), 10.0);
  EXPECT_DOUBLE_EQ(p.powerAt(2.0_s).value(), 0.0);  // end exclusive
}

TEST(Profile, RejectsNegativeInputs) {
  EXPECT_THROW(ProfilePowerSource{Watts{-1.0}}, PreconditionError);
  ProfilePowerSource p(1.0_W);
  EXPECT_THROW(p.addSegment({Seconds{-1.0}, 1.0_s, 1.0_W}),
               PreconditionError);
  EXPECT_THROW(p.addSegment({0.0_s, 1.0_s, Watts{-5.0}}),
               PreconditionError);
}

// A source that overrides only powerAt, so the base-class defaults run.
class PowerAtOnly final : public PowerSource {
 public:
  explicit PowerAtOnly(const ProfilePowerSource& p) : p_(p) {}
  [[nodiscard]] Watts powerAt(Seconds t) const override {
    return p_.powerAt(t);
  }

 private:
  const ProfilePowerSource& p_;
};

TEST(Profile, GenericExactEnergyFallbackAgreesWithClosedForm) {
  // Exercise the base-class midpoint integration against the closed form.
  ProfilePowerSource p(50.0_W);
  p.addSegment({1.0_s, 3.0_s, 30.0_W});
  const PowerAtOnly w(p);
  EXPECT_NEAR(w.PowerSource::exactEnergy(0.0_s, 5.0_s).value(),
              p.exactEnergy(0.0_s, 5.0_s).value(), 1.0);
}

TEST(Profile, PowerAtEachEqualsPowerAtBitForBit) {
  // Overlapping segments, an empty one and one starting at 0, probed on
  // every segment edge, one ulp either side of it, and in between; and a
  // -0 W idle, which an inactive segment must leave as -0.
  ProfilePowerSource p(Watts{90.125});
  p.addSegment({Seconds{0.4}, Seconds{7.3}, 61.0_W});
  p.addSegment({Seconds{0.0}, Seconds{9.9}, Watts{17.25}});
  p.addSegment({Seconds{3.1}, Seconds{2.2}, Watts{0.3}});
  p.addSegment({Seconds{5.0}, Seconds{0.0}, Watts{1000.0}});
  ProfilePowerSource negativeZero(Watts{-0.0});
  negativeZero.addSegment({Seconds{2.0}, Seconds{1.0}, 5.0_W});
  std::vector<Seconds> times;
  for (const PowerSegment& s : p.segments()) {
    for (const double edge : {s.start.value(), (s.start + s.duration).value()}) {
      times.push_back(Seconds{edge});
      times.push_back(Seconds{std::nextafter(edge, -1.0)});
      times.push_back(Seconds{std::nextafter(edge, 100.0)});
    }
  }
  for (int i = 0; i <= 25; ++i) times.push_back(Seconds{0.43 * i});
  for (const ProfilePowerSource* source : {&p, &negativeZero}) {
    std::vector<Watts> got(times.size());
    source->powerAtEach(times, got);
    std::vector<Watts> viaDefault(times.size());
    PowerAtOnly(*source).powerAtEach(times, viaDefault);
    for (std::size_t i = 0; i < times.size(); ++i) {
      const Watts want = source->powerAt(times[i]);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].value()),
                std::bit_cast<std::uint64_t>(want.value()))
          << "t = " << times[i].value();
      EXPECT_EQ(std::bit_cast<std::uint64_t>(viaDefault[i].value()),
                std::bit_cast<std::uint64_t>(want.value()));
    }
  }
  std::vector<Watts> one(1);
  EXPECT_THROW(p.powerAtEach(times, one), PreconditionError);
}

// --- meter ---

TEST(Meter, NoiseFreeMeterReproducesProfileEnergy) {
  MeterOptions opts;
  opts.gainNoiseSigma = 0.0;
  opts.additiveNoiseSigma = 0.0_W;
  opts.quantization = 0.0_W;
  opts.randomPhase = false;
  opts.sampleInterval = Seconds{0.01};
  const WattsUpMeter meter(opts);
  ProfilePowerSource p(100.0_W);
  Rng rng(1);
  const PowerTrace trace = meter.record(p, 10.0_s, rng);
  EXPECT_NEAR(trace.totalEnergy().value(), 1000.0, 1.0);
}

// visibleEnergy against what a noise-free, phase-locked meter records
// of a step from 100 W to 250 W at t = a.  A window shorter than half
// an interval reads P(0) throughout, exactly visibleEnergy's short
// branch.  A longer one interpolates linearly across the interval in
// which the lagged step lands, so the two differ by at most
// h * |dP| = 0.5 s * 150 W, while the exact integral misses the lag.
TEST(Meter, VisibleEnergyIsWhatANoiseFreeMeterRecords) {
  MeterOptions opts;
  opts.gainNoiseSigma = 0.0;
  opts.additiveNoiseSigma = 0.0_W;
  opts.quantization = 0.0_W;
  opts.randomPhase = false;
  const WattsUpMeter meter(opts);
  const double h = 0.5 * opts.sampleInterval.value();
  const double step = 150.0;
  Rng rng(7);
  PowerTrace scratch;
  for (const double a : {0.2, 1.3, 2.75}) {
    ProfilePowerSource p(100.0_W);
    p.addSegment({Seconds{a}, 100.0_s, Watts{step}});
    const auto recorded = [&](double d) {
      return meter.recordEnergy(p, Seconds{d}, rng, scratch).value();
    };
    const auto visible = [&](double d) {
      return meter.visibleEnergy(p, Seconds{d}).value();
    };
    const double shortWindow = 0.4;  // < h
    EXPECT_NEAR(recorded(shortWindow), visible(shortWindow), 1e-9) << a;
    EXPECT_DOUBLE_EQ(visible(shortWindow), 100.0 * shortWindow) << a;
    for (const double d : {3.6, 5.3, 9.7}) {
      EXPECT_LE(std::abs(recorded(d) - visible(d)), h * step + 1e-9)
          << "a = " << a << ", window " << d;
    }
  }
  // Where the lagged step lands midway between two readings, the
  // trapezoid is exact and the two agree; the exact integral does not.
  ProfilePowerSource mid(100.0_W);
  mid.addSegment({2.0_s, 100.0_s, Watts{step}});
  const double recordedMid =
      meter.recordEnergy(mid, 5.3_s, rng, scratch).value();
  EXPECT_NEAR(recordedMid, meter.visibleEnergy(mid, 5.3_s).value(), 1e-9);
  EXPECT_NEAR(recordedMid - mid.exactEnergy(0.0_s, 5.3_s).value(),
              -h * step, 1e-9);
}

TEST(Meter, TraceBracketsTheWindow) {
  const WattsUpMeter meter;
  ProfilePowerSource p(100.0_W);
  Rng rng(2);
  const PowerTrace trace = meter.record(p, 10.0_s, rng);
  EXPECT_DOUBLE_EQ(trace.startTime().value(), 0.0);
  EXPECT_GE(trace.endTime().value(), 10.0);
}

TEST(Meter, SamplesRoughlyAtConfiguredRate) {
  const WattsUpMeter meter;  // 1 Hz
  ProfilePowerSource p(100.0_W);
  Rng rng(3);
  const PowerTrace trace = meter.record(p, 60.0_s, rng);
  EXPECT_NEAR(static_cast<double>(trace.size()), 61.0, 3.0);
}

TEST(Meter, QuantizationRoundsToResolution) {
  MeterOptions opts;
  opts.gainNoiseSigma = 0.0;
  opts.additiveNoiseSigma = 0.0_W;
  opts.quantization = 0.1_W;
  opts.randomPhase = false;
  const WattsUpMeter meter(opts);
  ProfilePowerSource p(Watts{100.037});
  Rng rng(4);
  const PowerTrace trace = meter.record(p, 5.0_s, rng);
  for (const auto& s : trace.samples()) {
    const double scaled = s.power.value() * 10.0;
    EXPECT_NEAR(scaled, std::round(scaled), 1e-9);
  }
}

TEST(Meter, NoisyMeterUnbiasedOnAverage) {
  const WattsUpMeter meter;
  ProfilePowerSource p(150.0_W);
  Rng rng(5);
  double sum = 0.0;
  constexpr int kTrials = 50;
  for (int i = 0; i < kTrials; ++i) {
    sum += meter.record(p, 30.0_s, rng).meanPower().value();
  }
  EXPECT_NEAR(sum / kTrials, 150.0, 1.0);
}

// The per-sample algorithm WattsUpMeter implements: two normal() draws
// per sample, gain then additive.  The meter draws its noise in blocks;
// its traces and its stream position must stay exactly these.
void referenceRecord(const MeterOptions& o, const PowerSource& source,
                     Seconds duration, Rng& rng, PowerTrace& trace) {
  const double dt = o.sampleInterval.value();
  double t = o.randomPhase ? rng.uniform(0.0, dt) : 0.0;
  trace.clear();
  const auto sampleAt = [&](double time) {
    const double mid = std::max(0.0, time - 0.5 * dt);
    double p = source.powerAt(Seconds{mid}).value();
    p *= 1.0 + rng.normal(0.0, o.gainNoiseSigma);
    p += rng.normal(0.0, o.additiveNoiseSigma.value());
    if (o.quantization.value() > 0.0) {
      const double q = o.quantization.value();
      p = std::round(p / q) * q;
    }
    trace.append({Seconds{time}, Watts{std::max(0.0, p)}});
  };
  if (t > 0.0) sampleAt(0.0);
  while (t < duration.value()) {
    sampleAt(t);
    t += dt;
  }
  if (trace.empty() || trace.endTime() < duration) sampleAt(duration.value());
}

std::uint64_t bitsOf(double x) { return std::bit_cast<std::uint64_t>(x); }

ProfilePowerSource steppedProfile() {
  ProfilePowerSource p(90.0_W);
  p.addSegment({Seconds{0.4}, Seconds{7.3}, 61.0_W});
  p.addSegment({Seconds{0.0}, Seconds{9.9}, Watts{17.25}});
  return p;
}

// The windows the bit-for-bit meter tests sweep, each with and without
// random phase and quantization.
struct MeterCase {
  MeterOptions options;
  Seconds duration;
};

std::vector<MeterCase> meterGrid() {
  struct Window {
    double interval;
    double duration;
  };
  const Window windows[] = {
      {1.0, 0.3},     // shorter than one sampling interval
      {1.0, 5.0},     // an exact multiple of it
      {0.25, 2.0},    // an exact multiple, several samples per second
      {0.01, 12.34},  // ~1234 samples: many noise blocks
      {1.0, 61.7},
      {1.0, 127.0},   // 128 samples without phase: one full block
  };
  std::vector<MeterCase> grid;
  for (const bool phase : {true, false}) {
    for (const double quantum : {0.0, 0.1}) {
      for (const Window& w : windows) {
        MeterCase c;
        c.options.randomPhase = phase;
        c.options.quantization = Watts{quantum};
        c.options.sampleInterval = Seconds{w.interval};
        c.duration = Seconds{w.duration};
        grid.push_back(c);
      }
    }
  }
  return grid;
}

TEST(Meter, TracesEqualThePerSampleAlgorithmBitForBit) {
  const ProfilePowerSource source = steppedProfile();
  for (const MeterCase& c : meterGrid()) {
    const WattsUpMeter meter(c.options);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(seed);
      Rng ref(seed);
      PowerTrace got;
      PowerTrace want;
      // Consecutive windows on one stream, reusing the buffers, as
      // the measurer's CI loop records them.
      for (int rep = 0; rep < 3; ++rep) {
        meter.recordInto(source, c.duration, rng, got);
        referenceRecord(c.options, source, c.duration, ref, want);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          const PowerSample& a = got.samples()[i];
          const PowerSample& b = want.samples()[i];
          ASSERT_EQ(bitsOf(a.time.value()), bitsOf(b.time.value()))
              << "sample " << i;
          ASSERT_EQ(bitsOf(a.power.value()), bitsOf(b.power.value()))
              << "sample " << i << " of " << got.size() << ", phase "
              << c.options.randomPhase << ", quantum "
              << c.options.quantization.value() << ", window "
              << c.duration.value();
        }
      }
      // The meter left its stream where the per-sample loop did.
      EXPECT_EQ(rng.uniformInt(0, ~std::uint64_t{0}),
                ref.uniformInt(0, ~std::uint64_t{0}));
    }
  }
}

// Readings in quanta, one per sample: sample k of a phase-free 1 s
// meter reads at mid time k - 0.5 (0 for k = 0), so ceil picks reading k.
class QuantaReadings final : public PowerSource {
 public:
  QuantaReadings(std::vector<double> quanta, double quantum)
      : quanta_(std::move(quanta)), quantum_(quantum) {}
  [[nodiscard]] Watts powerAt(Seconds t) const override {
    const auto k = static_cast<std::size_t>(std::ceil(t.value()));
    return Watts{quanta_[std::min(k, quanta_.size() - 1)] * quantum_};
  }
  [[nodiscard]] std::size_t size() const { return quanta_.size(); }

 private:
  std::vector<double> quanta_;
  double quantum_;
};

TEST(Meter, QuantizerRoundsLikeStdRoundBitForBit) {
  // Noise-free, so each reading / quantum reaches the quantizer as
  // written: ties at k + 1/2 for even and odd k (where ties-to-even and
  // truncation both differ from std::round), the largest double below
  // 1/2, the edge of 2^52 quanta (from which on every double is an
  // integer), signed zeros, subnormals, infinities and NaN.  The meter
  // clamps what it rounds to max(0, p), so a negative reading shows only
  // that it clamps.
  constexpr double kTwo52 = 0x1p52;
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> quanta;
  for (int k = 0; k < 8; ++k) {
    for (const double frac : {0.25, 0.5, 0.75}) quanta.push_back(k + frac);
  }
  for (const double v :
       {std::nextafter(0.5, 0.0), std::nextafter(1.5, 2.0), 123456.5,
        kTwo52 - 1.5, kTwo52 - 1.0, kTwo52 - 0.5, kTwo52, kTwo52 + 1.0,
        kTwo52 + 2.0, 2.0 * kTwo52 + 2.0, 1e300, 0.0, -0.0, -2.5,
        std::numeric_limits<double>::denorm_min(), 0x1p-1030, inf, -inf,
        std::numeric_limits<double>::quiet_NaN()}) {
    quanta.push_back(v);
  }
  for (const double quantum : {1.0, 0.5}) {
    const QuantaReadings source(quanta, quantum);
    MeterOptions opts;
    opts.gainNoiseSigma = 0.0;
    opts.additiveNoiseSigma = 0.0_W;
    opts.quantization = Watts{quantum};
    opts.randomPhase = false;
    const WattsUpMeter meter(opts);
    const Seconds duration{static_cast<double>(source.size() - 1)};
    Rng rng(9);
    Rng ref(9);
    PowerTrace got;
    PowerTrace want;
    meter.recordInto(source, duration, rng, got);
    referenceRecord(opts, source, duration, ref, want);
    ASSERT_EQ(got.size(), source.size());
    ASSERT_EQ(want.size(), source.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(bitsOf(got.samples()[k].power.value()),
                bitsOf(want.samples()[k].power.value()))
          << "reading " << quanta[k] << " quanta of " << quantum << " W";
    }
  }
}

TEST(Meter, RecordEnergyEqualsTheIntegratedTraceBitForBit) {
  const ProfilePowerSource source = steppedProfile();
  for (const MeterCase& c : meterGrid()) {
    const WattsUpMeter meter(c.options);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Rng direct(seed);
      Rng traced(seed);
      PowerTrace untouched;
      PowerTrace trace;
      for (int rep = 0; rep < 3; ++rep) {
        const Joules got =
            meter.recordEnergy(source, c.duration, direct, untouched);
        meter.recordInto(source, c.duration, traced, trace);
        const Joules want = trace.energyBetween(Seconds{0.0}, c.duration);
        ASSERT_EQ(bitsOf(got.value()), bitsOf(want.value()))
            << "rep " << rep << ", phase " << c.options.randomPhase
            << ", quantum " << c.options.quantization.value()
            << ", window " << c.duration.value();
      }
      EXPECT_TRUE(untouched.empty());  // no trace on the trace-free path
      EXPECT_EQ(direct.uniformInt(0, ~std::uint64_t{0}),
                traced.uniformInt(0, ~std::uint64_t{0}));
    }
  }
}

TEST(Meter, FaultCampaignOverTheMeterIsUnchanged) {
  // Digest of a fault campaign's windows, timeouts and tally through
  // the meter.  The expected value was recorded with a meter that drew
  // two normal() calls per sample (referenceRecord above); FaultyMeter
  // forks its fault stream off the measurement stream, so any change in
  // the meter's draws moves it.
  const ProfilePowerSource source = steppedProfile();
  MeterOptions opts;
  opts.quantization = 0.0_W;  // keep every bit of the noise in the digest
  std::uint64_t h = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const fault::FaultyMeter meter(
        WattsUpMeter{opts}, fault::FaultInjectionOptions::campaign(0.05));
    Rng rng(seed);
    PowerTrace trace;
    for (int w = 0; w < 40; ++w) {
      try {
        meter.recordInto(source, Seconds{3.0 + 0.7 * w}, rng, trace);
      } catch (const MeterTimeoutError&) {
        h = mix64(h, 0xDEAD);
        continue;
      }
      h = mix64(h, trace.size());
      for (const PowerSample& sample : trace.samples()) {
        h = mix64(mix64(h, bitsOf(sample.time.value())),
                  bitsOf(sample.power.value()));
      }
    }
    const fault::FaultTally& c = meter.counts();
    using fault::FaultKind;
    for (const FaultKind k :
         {FaultKind::DroppedSample, FaultKind::StuckReading, FaultKind::Spike,
          FaultKind::NanReading, FaultKind::ZeroReading, FaultKind::GainDrift,
          FaultKind::MeterTimeout}) {
      h = mix64(h, c[k]);
    }
    EXPECT_GT(c.total(), 0u);
  }
  EXPECT_EQ(h, 0xD9B2DD69F4F6CB78ULL);
}

TEST(Meter, RejectsBadOptions) {
  MeterOptions opts;
  opts.sampleInterval = Seconds{0.0};
  EXPECT_THROW(WattsUpMeter{opts}, PreconditionError);
}

// --- measurer ---

TEST(Measurer, DynamicEnergySeparatesIdle) {
  MeterOptions opts;
  opts.gainNoiseSigma = 0.0;
  opts.additiveNoiseSigma = 0.0_W;
  opts.quantization = 0.0_W;
  opts.randomPhase = false;
  opts.sampleInterval = Seconds{0.05};
  const WattsUpMeter meter(opts);
  const EnergyMeasurer measurer(meter, 90.0_W);

  ProfilePowerSource profile(90.0_W);
  profile.addSegment({0.0_s, 10.0_s, 60.0_W});  // 600 J dynamic
  Rng rng(7);
  const EnergyReading r = measurer.measureOnce(profile, 10.0_s, rng);
  EXPECT_NEAR(r.dynamicEnergy.value(), 600.0, 10.0);
  EXPECT_NEAR(r.totalEnergy.value(), 1500.0, 10.0);
  EXPECT_NEAR(r.staticEnergy.value(), 900.0, 1e-9);
}

TEST(Measurer, TailWindowCapturesPostKernelPower) {
  MeterOptions opts;
  opts.gainNoiseSigma = 0.0;
  opts.additiveNoiseSigma = 0.0_W;
  opts.quantization = 0.0_W;
  opts.randomPhase = false;
  opts.sampleInterval = Seconds{0.05};
  const WattsUpMeter meter(opts);
  const EnergyMeasurer measurer(meter, 100.0_W);

  ProfilePowerSource profile(100.0_W);
  profile.addSegment({0.0_s, 5.0_s, 50.0_W});   // kernel
  profile.addSegment({0.0_s, 7.0_s, 58.0_W});   // uncore + 2 s tail
  Rng rng(8);
  const EnergyReading withTail =
      measurer.measureOnce(profile, 5.0_s, rng, 2.0_s);
  const EnergyReading withoutTail =
      measurer.measureOnce(profile, 5.0_s, rng, 0.0_s);
  // Tail window adds the 2 s x 58 W uncore decay to dynamic energy.
  EXPECT_NEAR(withTail.dynamicEnergy.value() -
                  withoutTail.dynamicEnergy.value(),
              116.0, 10.0);
}

TEST(Measurer, FullProtocolConvergesAndMatchesGroundTruth) {
  const WattsUpMeter meter;  // realistic noise
  const EnergyMeasurer measurer(meter, 90.0_W);
  ProfilePowerSource profile(90.0_W);
  profile.addSegment({0.0_s, 20.0_s, 80.0_W});  // 1600 J dynamic
  Rng rng(9);
  const MeasuredEnergy m = measurer.measure(profile, 20.0_s, rng);
  EXPECT_TRUE(m.dynamicEnergyStats.converged);
  EXPECT_NEAR(m.mean.dynamicEnergy.value(), 1600.0, 80.0);
  EXPECT_NEAR(m.mean.executionTime.value(), 20.0, 0.1);
  // The paper's criterion: achieved precision within 2.5 %.
  EXPECT_LE(m.dynamicEnergyStats.interval.precision(), 0.025);
}

TEST(Measurer, NegativeDynamicEnergyClampedToZero) {
  MeterOptions opts;
  opts.gainNoiseSigma = 0.0;
  opts.additiveNoiseSigma = 0.0_W;
  opts.quantization = 0.0_W;
  const WattsUpMeter meter(opts);
  // Mis-calibrated base ABOVE actual power: dynamic would be negative.
  const EnergyMeasurer measurer(meter, 200.0_W);
  ProfilePowerSource profile(90.0_W);
  Rng rng(10);
  const EnergyReading r = measurer.measureOnce(profile, 5.0_s, rng);
  EXPECT_GE(r.dynamicEnergy.value(), 0.0);
}

TEST(Measurer, RejectsInvalidWindows) {
  const WattsUpMeter meter;
  const EnergyMeasurer measurer(meter, 90.0_W);
  ProfilePowerSource profile(90.0_W);
  Rng rng(11);
  EXPECT_THROW((void)measurer.measureOnce(profile, 0.0_s, rng),
               PreconditionError);
  EXPECT_THROW(
      (void)measurer.measureOnce(profile, 1.0_s, rng, Seconds{-1.0}),
      PreconditionError);
  EXPECT_THROW((void)measurer.measureOnce(profile, Seconds{-2.0}, rng),
               PreconditionError);
  EXPECT_THROW((void)measurer.measure(profile, 0.0_s, rng),
               PreconditionError);
}

TEST(Measurer, ValidationAloneStillValidatesTheRecordedTrace) {
  // Validation is the only reader of the trace here, so each window must
  // still be recorded for it.  A clean meter passes every window and
  // measures the same bits as the trace-free path; a meter that loses a
  // run of samples in every window fails every one.
  ProfilePowerSource profile(90.0_W);
  profile.addSegment({0.0_s, 20.0_s, 80.0_W});
  RobustnessOptions validateOnly;
  validateOnly.validation.enabled = true;

  const EnergyMeasurer clean(WattsUpMeter{}, 90.0_W);
  Rng plainRng(9);
  Rng validatedRng(9);
  const MeasuredEnergy plain = clean.measure(profile, 20.0_s, plainRng);
  const MeasuredEnergy validated =
      clean.measure(profile, 20.0_s, validatedRng, 0.0_s, {}, validateOnly);
  EXPECT_EQ(validated.faults.invalidTraces, 0u);
  EXPECT_EQ(bitsOf(validated.mean.dynamicEnergy.value()),
            bitsOf(plain.mean.dynamicEnergy.value()));
  EXPECT_EQ(validated.dynamicEnergyStats.samples,
            plain.dynamicEnergyStats.samples);
  EXPECT_EQ(validatedRng.uniformInt(0, ~std::uint64_t{0}),
            plainRng.uniformInt(0, ~std::uint64_t{0}));

  class GappyMeter final : public Meter {
   public:
    void recordInto(const PowerSource& source, Seconds duration, Rng& rng,
                    PowerTrace& out) const override {
      PowerTrace full;
      inner_.recordInto(source, duration, rng, full);
      out.clear();
      for (std::size_t i = 0; i < full.size(); ++i) {
        if (i < 5 || i >= 10) out.append(full.samples()[i]);
      }
    }

   private:
    WattsUpMeter inner_;
  };
  const EnergyMeasurer gappy(std::make_shared<const GappyMeter>(), 90.0_W);
  RobustnessOptions budget = validateOnly;
  budget.remeasureBudget = 3;
  Rng rng(9);
  try {
    (void)gappy.measure(profile, 20.0_s, rng, 0.0_s, {}, budget);
    ADD_FAILURE() << "every window has a sampling gap";
  } catch (const MeasurementError& e) {
    EXPECT_EQ(e.report().invalidTraces, 4u);
  }
  Rng unvalidated(9);
  EXPECT_NO_THROW((void)gappy.measure(profile, 20.0_s, unvalidated));
}

// --- trace validation ---

PowerTrace regularTrace(int n, double power = 100.0) {
  PowerTrace t;
  for (int i = 0; i < n; ++i) {
    t.append({Seconds{static_cast<double>(i)},
              Watts{power + 0.1 * static_cast<double>(i % 7)}});
  }
  return t;
}

TEST(Validation, AcceptsARegularTrace) {
  const PowerTrace t = regularTrace(20);
  const char* reason = nullptr;
  EXPECT_TRUE(validateTrace(t, TraceValidation{}, &reason));
  EXPECT_STREQ(reason, "ok");
}

TEST(Validation, FlagsEmptyAndNonFiniteTraces) {
  const char* reason = nullptr;
  EXPECT_FALSE(validateTrace(PowerTrace{}, TraceValidation{}, &reason));
  EXPECT_STREQ(reason, "empty trace");
  PowerTrace t = regularTrace(5);
  t.append({Seconds{100.0}, Watts{std::nan("")}});
  EXPECT_FALSE(validateTrace(t, TraceValidation{}, &reason));
  EXPECT_STREQ(reason, "non-finite reading");
}

TEST(Validation, FlagsSamplingGapsAgainstTheMedianInterval) {
  PowerTrace t = regularTrace(10);              // 1 s cadence
  t.append({Seconds{14.0}, 100.0_W});           // 5 s gap
  TraceValidation v;
  v.maxGapFactor = 2.6;
  const char* reason = nullptr;
  EXPECT_FALSE(validateTrace(t, v, &reason));
  EXPECT_STREQ(reason, "sampling gap");
  v.maxGapFactor = 6.0;  // tolerant enough for the same gap
  EXPECT_TRUE(validateTrace(t, v, &reason));
}

TEST(Validation, FlagsStuckRuns) {
  PowerTrace t;
  for (int i = 0; i < 10; ++i) {
    // Identical readings from sample 3 on.
    t.append({Seconds{static_cast<double>(i)},
              Watts{i < 3 ? 100.0 + i : 97.5}});
  }
  TraceValidation v;
  v.stuckRunLength = 5;
  const char* reason = nullptr;
  EXPECT_FALSE(validateTrace(t, v, &reason));
  EXPECT_STREQ(reason, "stuck reading");
  v.stuckRunLength = 8;
  EXPECT_TRUE(validateTrace(t, v, &reason));
}

// --- per-sample sanitization ---

TEST(Sanitize, CleanTraceIsUntouched) {
  PowerTrace t = regularTrace(10);
  EXPECT_EQ(sanitizeTrace(t), 0u);
  EXPECT_EQ(t.size(), 10u);
}

TEST(Sanitize, DropsInteriorImpossibleReadings) {
  PowerTrace t;
  t.append({0.0_s, 100.0_W});
  t.append({1.0_s, Watts{std::nan("")}});
  t.append({2.0_s, 0.0_W});
  t.append({3.0_s, Watts{-5.0}});
  t.append({4.0_s, 100.0_W});
  EXPECT_EQ(sanitizeTrace(t), 3u);
  ASSERT_EQ(t.size(), 2u);
  // The trapezoid bridges the gap at the clean readings' level.
  EXPECT_DOUBLE_EQ(t.energyBetween(0.0_s, 4.0_s).value(), 400.0);
}

TEST(Sanitize, RepairsCorruptedBracketingSamples) {
  PowerTrace t;
  t.append({0.0_s, Watts{std::nan("")}});
  t.append({1.0_s, 100.0_W});
  t.append({2.0_s, 100.0_W});
  t.append({3.0_s, 0.0_W});
  EXPECT_EQ(sanitizeTrace(t), 2u);
  // The window endpoints survive at the nearest good reading, so
  // energyBetween over the full window keeps working.
  ASSERT_EQ(t.size(), 4u);
  EXPECT_DOUBLE_EQ(t.startTime().value(), 0.0);
  EXPECT_DOUBLE_EQ(t.endTime().value(), 3.0);
  EXPECT_DOUBLE_EQ(t.energyBetween(0.0_s, 3.0_s).value(), 300.0);
}

TEST(Sanitize, AllBadLeavesAnEmptyTrace) {
  PowerTrace t;
  t.append({0.0_s, Watts{std::nan("")}});
  t.append({1.0_s, 0.0_W});
  EXPECT_EQ(sanitizeTrace(t), 2u);
  EXPECT_TRUE(t.empty());
}

TEST(Sanitize, PlausibilityCeilingDropsSpikes) {
  PowerTrace t;
  t.append({0.0_s, 100.0_W});
  t.append({1.0_s, 400.0_W});  // 4x spike above the node's PSU rating
  t.append({2.0_s, 100.0_W});
  // Without a ceiling the spike is a legitimate (finite, positive)
  // reading; with one it is dropped like any impossible sample.
  PowerTrace copy = t;
  EXPECT_EQ(sanitizeTrace(copy), 0u);
  EXPECT_EQ(sanitizeTrace(t, /*maxPlausibleWatts=*/350.0), 1u);
  EXPECT_DOUBLE_EQ(t.energyBetween(0.0_s, 2.0_s).value(), 200.0);
}

// --- measurement observer seam ---

class RecordingObserver : public MeasureObserver {
 public:
  struct Window {
    std::string scope;
    double observedJ, expectedJ, staticJ, windowS;
    std::uint64_t traceId;
  };
  struct Result {
    std::string scope;
    bool converged;
    double precision;
  };

  void onMeasureWindow(const MeasureWindowObservation& o) override {
    std::lock_guard lk(mu_);
    windows_.push_back(
        {o.scope, o.observedJ, o.expectedJ, o.staticJ, o.windowS, o.traceId});
  }
  void onMeasurementResult(const char* scope, bool converged,
                           double precision) override {
    std::lock_guard lk(mu_);
    results_.push_back({scope, converged, precision});
  }

  std::vector<Window> windows() const {
    std::lock_guard lk(mu_);
    return windows_;
  }
  std::vector<Result> results() const {
    std::lock_guard lk(mu_);
    return results_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Window> windows_;
  std::vector<Result> results_;
};

// Installs/uninstalls around each test so a thrown assertion cannot
// leave a dangling process-global observer behind.
struct ObserverGuard {
  explicit ObserverGuard(MeasureObserver* o) { setMeasureObserver(o); }
  ~ObserverGuard() { setMeasureObserver(nullptr); }
};

TEST(Observer, ScopeLabelNestsAndRestores) {
  EXPECT_STREQ(MeasureScopeLabel::current(), "");
  {
    MeasureScopeLabel outer("outer");
    EXPECT_STREQ(MeasureScopeLabel::current(), "outer");
    {
      MeasureScopeLabel inner("inner");
      EXPECT_STREQ(MeasureScopeLabel::current(), "inner");
    }
    EXPECT_STREQ(MeasureScopeLabel::current(), "outer");
  }
  EXPECT_STREQ(MeasureScopeLabel::current(), "");
}

TEST(Observer, MeasurerFeedsWindowsAndVerdictToTheObserver) {
  RecordingObserver rec;
  ObserverGuard guard(&rec);

  MeterOptions mopts;
  mopts.gainNoiseSigma = 0.0;
  mopts.additiveNoiseSigma = 0.0_W;
  mopts.quantization = 0.0_W;
  mopts.randomPhase = false;
  mopts.sampleInterval = Seconds{0.05};
  const WattsUpMeter meter(mopts);
  const EnergyMeasurer measurer(meter, 90.0_W);
  ProfilePowerSource profile(90.0_W);
  profile.addSegment({0.0_s, 10.0_s, 60.0_W});
  Rng rng(21);
  {
    MeasureScopeLabel scope("TestDevice");
    obs::ScopedTraceContext ctx(obs::TraceContext{0xF00Du, 1u});
    (void)measurer.measure(profile, 10.0_s, rng);
  }

  const auto windows = rec.windows();
  ASSERT_GE(windows.size(), 2u);  // the CI protocol repeats the window
  for (const auto& w : windows) {
    EXPECT_EQ(w.scope, "TestDevice");
    EXPECT_GT(w.windowS, 0.0);
    // Noise-free meter: the observed window energy matches the profile
    // expectation, so the watchdog's residual decomposes to ~0 W.
    EXPECT_NEAR(w.observedJ, w.expectedJ, 5.0);
    EXPECT_NEAR(w.staticJ, 90.0 * w.windowS, 5.0);
    EXPECT_EQ(w.traceId, 0xF00Du);
  }
  const auto results = rec.results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].scope, "TestDevice");
  EXPECT_TRUE(results[0].converged);
  EXPECT_GE(results[0].precision, 0.0);
}

TEST(Observer, UninstalledObserverMeasuresNormally) {
  ASSERT_EQ(measureObserver(), nullptr);
  const WattsUpMeter meter;
  const EnergyMeasurer measurer(meter, 90.0_W);
  ProfilePowerSource profile(90.0_W);
  profile.addSegment({0.0_s, 10.0_s, 60.0_W});
  Rng rng(22);
  const MeasuredEnergy m = measurer.measure(profile, 10.0_s, rng);
  EXPECT_NEAR(m.mean.dynamicEnergy.value(), 600.0, 60.0);
}

}  // namespace
}  // namespace ep::power
