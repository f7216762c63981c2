// epfault tests: deterministic fault injection (FaultyMeter), the
// robust measurement loop's recovery tiers, skip-and-record studies,
// the scripted 5 % campaign over the paper's workloads, and crash-safe
// checkpoint/resume — including the bitwise guarantees (serial ==
// parallel, resume == uninterrupted) that make a fault campaign
// reproducible.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apps/gpu_matmul_app.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/journal.hpp"
#include "core/study.hpp"
#include "energymodel/additivity.hpp"
#include "fault/fault.hpp"
#include "fault/faulty_meter.hpp"
#include "hw/gpu_model.hpp"
#include "hw/spec.hpp"
#include "obs/metrics.hpp"
#include "pareto/front.hpp"
#include "power/measurer.hpp"
#include "power/meter.hpp"
#include "power/profile.hpp"
#include "stats/ttest.hpp"

namespace ep::fault {
namespace {

using ep::literals::operator""_s;
using ep::literals::operator""_W;

power::MeterOptions fastMeter() {
  power::MeterOptions m;
  m.sampleInterval = Seconds{0.25};
  m.randomPhase = false;
  return m;
}

power::ProfilePowerSource benchProfile() {
  power::ProfilePowerSource p(90.0_W);
  p.addSegment({0.0_s, 20.0_s, 80.0_W});  // 1600 J dynamic
  return p;
}

bool sameTrace(const power::PowerTrace& a, const power::PowerTrace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (core::doubleBits(a.samples()[i].time.value()) !=
            core::doubleBits(b.samples()[i].time.value()) ||
        core::doubleBits(a.samples()[i].power.value()) !=
            core::doubleBits(b.samples()[i].power.value())) {
      return false;
    }
  }
  return true;
}

// --- options / plumbing ---

TEST(FaultOptions, CampaignScalesWindowRatesDown) {
  const auto o = FaultInjectionOptions::campaign(0.08);
  EXPECT_TRUE(o.enabled());
  EXPECT_DOUBLE_EQ(o.sampleFaultRate, 0.08);
  EXPECT_DOUBLE_EQ(o.timeoutRate, 0.02);
  EXPECT_DOUBLE_EQ(o.gainDriftRate, 0.04);
  EXPECT_FALSE(FaultInjectionOptions::campaign(0.0).enabled());
  EXPECT_THROW((void)FaultInjectionOptions::campaign(1.5), PreconditionError);
}

TEST(FaultOptions, MeterRejectsInvalidRates) {
  FaultInjectionOptions o;
  o.sampleFaultRate = 1.5;
  EXPECT_THROW(FaultyMeter(power::WattsUpMeter(fastMeter()), o),
               PreconditionError);
  o.sampleFaultRate = 0.1;
  o.dropWeight = o.stuckWeight = o.spikeWeight = o.nanWeight = o.zeroWeight =
      0.0;
  EXPECT_THROW(FaultyMeter(power::WattsUpMeter(fastMeter()), o),
               PreconditionError);
}

TEST(FaultTally, CountsByKindAndSummarizes) {
  FaultTally t;
  t.add(FaultKind::DroppedSample);
  t.add(FaultKind::DroppedSample);
  t.add(FaultKind::Spike);
  t.add(FaultKind::ConnectReset);
  t.add(FaultKind::EngineHang);
  EXPECT_EQ(t[FaultKind::DroppedSample], 2u);
  EXPECT_EQ(t[FaultKind::Spike], 1u);
  EXPECT_EQ(t[FaultKind::NanReading], 0u);
  EXPECT_EQ(t.total(), 5u);
  // Kinds that fired, in kind order, then the total.
  EXPECT_EQ(t.summary(),
            "dropped_sample=2 spike=1 connect_reset=1 engine_hang=1 total=5");
  EXPECT_EQ(FaultTally{}.summary(), "total=0");
  // One name per kind.
  EXPECT_EQ(kFaultKindNames.size(),
            static_cast<std::size_t>(FaultKind::EngineHang) + 1);
}

TEST(DecisionKernel, PickKindReturnsTheFirstWeightTheDrawFallsUnder) {
  const double weights[] = {0.25, 0.5, 0.125};
  EXPECT_EQ(pickKind(0.0, weights), 0u);
  EXPECT_EQ(pickKind(0.2499, weights), 0u);
  EXPECT_EQ(pickKind(0.25, weights), 1u);  // on a boundary: the next kind
  EXPECT_EQ(pickKind(0.74, weights), 1u);
  EXPECT_EQ(pickKind(0.8, weights), 2u);
  EXPECT_EQ(pickKind(0.875, weights), 3u);  // the remainder
  EXPECT_EQ(pickKind(0.5, std::span<const double>{}), 0u);
}

TEST(DecisionKernel, ForkDecisionFoldsTheKeyPathThroughMix64) {
  const Rng base(99);
  Rng folded = forkDecision(base, {7, 8, 9});
  Rng manual = base.fork(mix64(mix64(7, 8), 9));
  EXPECT_EQ(folded.uniformInt(0, ~std::uint64_t{0}),
            manual.uniformInt(0, ~std::uint64_t{0}));
  Rng single = forkDecision(base, {7});
  Rng direct = base.fork(7);
  EXPECT_EQ(single.uniformInt(0, ~std::uint64_t{0}),
            direct.uniformInt(0, ~std::uint64_t{0}));
  // The path is ordered: swapping two keys forks another stream.
  Rng swapped = forkDecision(base, {8, 7, 9});
  EXPECT_NE(forkDecision(base, {7, 8, 9}).uniformInt(0, ~std::uint64_t{0}),
            swapped.uniformInt(0, ~std::uint64_t{0}));
}

// --- FaultyMeter ---

TEST(FaultyMeter, DisabledIsBitwiseIdentity) {
  const power::WattsUpMeter clean(fastMeter());
  const FaultyMeter faulty(power::WattsUpMeter(fastMeter()),
                           FaultInjectionOptions{});  // no rate set
  const auto profile = benchProfile();
  Rng a(42), b(42);
  const power::PowerTrace ta = clean.record(profile, 20.0_s, a);
  const power::PowerTrace tb = faulty.record(profile, 20.0_s, b);
  EXPECT_TRUE(sameTrace(ta, tb));
  EXPECT_EQ(faulty.counts().total(), 0u);
}

TEST(FaultyMeter, InjectionIsDeterministic) {
  const auto opts = FaultInjectionOptions::campaign(0.10);
  const FaultyMeter m1(power::WattsUpMeter(fastMeter()), opts);
  const FaultyMeter m2(power::WattsUpMeter(fastMeter()), opts);
  const auto profile = benchProfile();
  Rng a(7), b(7);
  const power::PowerTrace ta = m1.record(profile, 20.0_s, a);
  const power::PowerTrace tb = m2.record(profile, 20.0_s, b);
  EXPECT_TRUE(sameTrace(ta, tb));
  EXPECT_EQ(m1.counts().total(), m2.counts().total());
  EXPECT_GT(m1.counts().total(), 0u);
}

TEST(FaultyMeter, WindowsGetDistinctFaultStreams) {
  const auto opts = FaultInjectionOptions::campaign(0.15);
  const FaultyMeter m(power::WattsUpMeter(fastMeter()), opts);
  const auto profile = benchProfile();
  Rng rng(7);
  power::PowerTrace t1, t2;
  m.recordInto(profile, 20.0_s, rng, t1);
  Rng replay(7);  // same *measurement* draws as window 1...
  m.recordInto(profile, 20.0_s, replay, t2);
  EXPECT_EQ(m.windows(), 2u);
  // ...but the per-window fault stream differs, so the corruption does.
  EXPECT_FALSE(sameTrace(t1, t2));
}

TEST(FaultyMeter, EndpointsSurviveTotalDropCampaign) {
  FaultInjectionOptions opts;
  opts.sampleFaultRate = 1.0;  // every sample faults...
  opts.dropWeight = 1.0;       // ...and every fault is a drop
  opts.stuckWeight = opts.spikeWeight = opts.nanWeight = opts.zeroWeight = 0.0;
  const power::WattsUpMeter clean(fastMeter());
  const FaultyMeter faulty(power::WattsUpMeter(fastMeter()), opts);
  const auto profile = benchProfile();
  Rng a(11), b(11);
  const power::PowerTrace reference = clean.record(profile, 20.0_s, a);
  const power::PowerTrace dropped = faulty.record(profile, 20.0_s, b);
  // Everything interior is gone, but the bracketing samples survive so
  // the energy window stays covered.
  ASSERT_EQ(dropped.size(), 2u);
  EXPECT_DOUBLE_EQ(dropped.startTime().value(),
                   reference.startTime().value());
  EXPECT_DOUBLE_EQ(dropped.endTime().value(), reference.endTime().value());
  EXPECT_EQ(faulty.counts()[FaultKind::DroppedSample], reference.size() - 2);
}

TEST(FaultyMeter, SpikesMultiplyTheCleanReading) {
  FaultInjectionOptions opts;
  opts.sampleFaultRate = 1.0;
  opts.spikeWeight = 1.0;
  opts.dropWeight = opts.stuckWeight = opts.nanWeight = opts.zeroWeight = 0.0;
  const power::WattsUpMeter clean(fastMeter());
  const FaultyMeter faulty(power::WattsUpMeter(fastMeter()), opts);
  const auto profile = benchProfile();
  Rng a(13), b(13);
  const power::PowerTrace reference = clean.record(profile, 20.0_s, a);
  const power::PowerTrace spiked = faulty.record(profile, 20.0_s, b);
  ASSERT_EQ(spiked.size(), reference.size());
  for (std::size_t i = 0; i < spiked.size(); ++i) {
    EXPECT_DOUBLE_EQ(spiked.samples()[i].power.value(),
                     FaultyMeter::kSpikeFactor *
                         reference.samples()[i].power.value());
  }
}

TEST(FaultyMeter, TimeoutThrowsBeforeAnyRecording) {
  FaultInjectionOptions opts;
  opts.timeoutRate = 1.0;
  const FaultyMeter m(power::WattsUpMeter(fastMeter()), opts);
  const auto profile = benchProfile();
  Rng rng(3);
  power::PowerTrace out;
  EXPECT_THROW(m.recordInto(profile, 20.0_s, rng, out),
               power::MeterTimeoutError);
  EXPECT_EQ(m.counts()[FaultKind::MeterTimeout], 1u);
  EXPECT_EQ(m.windows(), 1u);
}

// --- robust measurement loop ---

TEST(RobustMeasure, PersistentTimeoutExhaustsRetriesWithBackoff) {
  FaultInjectionOptions opts;
  opts.timeoutRate = 1.0;
  auto meter = std::make_shared<const FaultyMeter>(
      power::WattsUpMeter(fastMeter()), opts);
  const power::EnergyMeasurer measurer(meter, 90.0_W);
  power::RobustnessOptions robustness;
  robustness.timeoutRetries = 3;
  robustness.backoffBaseS = 0.5;
  const auto profile = benchProfile();
  Rng rng(5);
  try {
    (void)measurer.measure(profile, 20.0_s, rng, 0.0_s, {}, robustness);
    FAIL() << "expected MeasurementError";
  } catch (const power::MeasurementError& e) {
    EXPECT_EQ(e.report().timeouts, 4u);  // initial try + 3 retries
    EXPECT_EQ(e.report().retries, 3u);
    // Exponential virtual backoff: 0.5 + 1 + 2 seconds.
    EXPECT_DOUBLE_EQ(e.report().virtualBackoffS, 3.5);
    EXPECT_NE(std::string(e.what()).find("timeout"), std::string::npos);
  }
}

TEST(RobustMeasure, ValidationRejectionExhaustsTheBudget) {
  // A clean meter, but validation thresholds nothing can satisfy: every
  // trace is rejected and the re-measure budget runs out.
  const power::EnergyMeasurer measurer(power::WattsUpMeter(fastMeter()),
                                       90.0_W);
  power::RobustnessOptions robustness;
  robustness.validation.enabled = true;
  robustness.validation.maxGapFactor = 0.5;  // median gap always exceeds this
  robustness.remeasureBudget = 4;
  const auto profile = benchProfile();
  Rng rng(6);
  try {
    (void)measurer.measure(profile, 20.0_s, rng, 0.0_s, {}, robustness);
    FAIL() << "expected MeasurementError";
  } catch (const power::MeasurementError& e) {
    EXPECT_EQ(e.report().invalidTraces, 5u);  // budget + the final straw
    EXPECT_EQ(e.report().timeouts, 0u);
  }
}

TEST(RobustMeasure, NanObservationsAreScreenedOut) {
  // NaN-only sample faults with no sanitization: the corrupted windows
  // integrate to NaN dynamic energy, and outlier screening must reject
  // exactly those observations while the measurement still converges.
  FaultInjectionOptions opts;
  opts.sampleFaultRate = 0.02;
  opts.nanWeight = 1.0;
  opts.dropWeight = opts.stuckWeight = opts.spikeWeight = opts.zeroWeight =
      0.0;
  auto meter = std::make_shared<const FaultyMeter>(
      power::WattsUpMeter(fastMeter()), opts);
  const power::EnergyMeasurer measurer(meter, 90.0_W);
  power::RobustnessOptions robustness;
  robustness.rejectOutliers = true;
  robustness.remeasureBudget = 128;
  const auto profile = benchProfile();
  Rng rng(8);
  const power::MeasuredEnergy m =
      measurer.measure(profile, 20.0_s, rng, 0.0_s, {}, robustness);
  EXPECT_TRUE(std::isfinite(m.mean.dynamicEnergy.value()));
  EXPECT_NEAR(m.mean.dynamicEnergy.value(), 1600.0, 120.0);
  EXPECT_GT(m.faults.outliersRejected, 0u);
}

TEST(RobustMeasure, CleanPathIsBitwiseUnaffectedByRobustness) {
  // All recovery tiers enabled over a fault-free instrument: no knob
  // may perturb a single draw or reading — the hardened pipeline must
  // be a superset, not a variant, of the clean one.
  const auto profile = benchProfile();
  power::RobustnessOptions all;
  all.sanitizeSamples = true;
  all.maxPlausibleWatts = 600.0;
  all.validation.enabled = true;
  all.rejectOutliers = true;
  const power::EnergyMeasurer measurer(power::WattsUpMeter(fastMeter()),
                                       90.0_W);
  Rng a(21), b(21);
  const auto off = measurer.measure(profile, 20.0_s, a);
  const auto on = measurer.measure(profile, 20.0_s, b, 0.0_s, {}, all);
  EXPECT_EQ(core::doubleBits(off.mean.dynamicEnergy.value()),
            core::doubleBits(on.mean.dynamicEnergy.value()));
  EXPECT_EQ(core::doubleBits(off.mean.executionTime.value()),
            core::doubleBits(on.mean.executionTime.value()));
  EXPECT_EQ(on.faults.recoveries(), 0u);
  EXPECT_EQ(on.faults.samplesSanitized, 0u);
}

// --- study-level failure policies ---

apps::GpuMatMulOptions smallStudyOptions() {
  apps::GpuMatMulOptions o;
  o.totalProducts = 4;
  o.bsMax = 8;
  o.useMeter = true;
  o.meter.sampleInterval = Seconds{0.02};
  o.meter.randomPhase = false;
  o.measurement.minRepetitions = 3;
  o.measurement.maxRepetitions = 12;
  return o;
}

TEST(StudyFaults, SkipAndRecordCompactsInEnumerationOrder) {
  apps::GpuMatMulOptions o = smallStudyOptions();
  o.faults.timeoutRate = 0.25;  // some configs die, some survive
  o.robustness.timeoutRetries = 0;
  o.failPolicy = FailPolicy::SkipAndRecord;
  const apps::GpuMatMulApp app(hw::GpuModel(hw::nvidiaK40c()), o);
  const int n = 2048;
  Rng rng(99);
  std::vector<apps::GpuConfigFailure> failures;
  const auto data = app.runWorkload(n, rng, nullptr, &failures);
  EXPECT_EQ(data.size() + failures.size(), app.enumerateConfigs(n).size());
  EXPECT_FALSE(data.empty());
  EXPECT_FALSE(failures.empty());
  for (const auto& f : failures) {
    EXPECT_NE(f.error.find("timeout"), std::string::npos) << f.error;
  }
  // Survivors stay in enumeration order (ascending forkSalt order is
  // not observable here, but (g, r, bs) enumeration is).
  const auto all = app.enumerateConfigs(n);
  std::size_t cursor = 0;
  for (const auto& d : data) {
    while (cursor < all.size() &&
           (all[cursor].bs != d.config.bs || all[cursor].g != d.config.g ||
            all[cursor].r != d.config.r)) {
      ++cursor;
    }
    EXPECT_LT(cursor, all.size()) << "result out of enumeration order";
  }
}

TEST(StudyFaults, FailFastPropagatesTheFirstError) {
  apps::GpuMatMulOptions o = smallStudyOptions();
  o.faults.timeoutRate = 1.0;
  o.robustness.timeoutRetries = 0;
  o.failPolicy = FailPolicy::FailFast;
  const apps::GpuMatMulApp app(hw::GpuModel(hw::nvidiaK40c()), o);
  Rng rng(100);
  EXPECT_THROW((void)app.runWorkload(2048, rng), power::MeasurementError);
}

TEST(StudyFaults, AllConfigsFailingFailsTheWorkload) {
  apps::GpuMatMulOptions o = smallStudyOptions();
  o.faults.timeoutRate = 1.0;
  o.robustness.timeoutRetries = 0;
  o.failPolicy = FailPolicy::SkipAndRecord;
  const core::GpuEpStudy study(
      apps::GpuMatMulApp(hw::GpuModel(hw::nvidiaK40c()), o));
  Rng rng(101);
  // Every config skipped leaves nothing to build a front from.
  EXPECT_THROW((void)study.runWorkload(2048, rng), EpError);
}

TEST(StudyFaults, PoolSizeDoesNotChangeFaultedResults) {
  apps::GpuMatMulOptions o = smallStudyOptions();
  o.faults = FaultInjectionOptions::campaign(0.05);
  o.robustness.sanitizeSamples = true;
  o.robustness.rejectOutliers = true;
  o.failPolicy = FailPolicy::SkipAndRecord;
  const apps::GpuMatMulApp app(hw::GpuModel(hw::nvidiaK40c()), o);
  const int n = 2048;
  Rng serialRng(7);
  std::vector<apps::GpuConfigFailure> serialFailures;
  const auto serial = app.runWorkload(n, serialRng, nullptr, &serialFailures);
  for (std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    Rng rng(7);
    std::vector<apps::GpuConfigFailure> failures;
    const auto parallel = app.runWorkload(n, rng, &pool, &failures);
    ASSERT_EQ(parallel.size(), serial.size());
    ASSERT_EQ(failures.size(), serialFailures.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(core::doubleBits(parallel[i].time.value()),
                core::doubleBits(serial[i].time.value()));
      EXPECT_EQ(core::doubleBits(parallel[i].dynamicEnergy.value()),
                core::doubleBits(serial[i].dynamicEnergy.value()));
      EXPECT_EQ(parallel[i].repetitions, serial[i].repetitions);
    }
  }
}

// --- the scripted campaign over the paper's workloads ---

// Value of an unlabelled series in a Prometheus exposition; 0 if absent.
double promValue(const std::string& text, const std::string& name) {
  const std::string needle = name + " ";
  for (std::size_t pos = 0;
       (pos = text.find(needle, pos)) != std::string::npos;
       pos += needle.size()) {
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::atof(text.c_str() + pos + needle.size());
    }
  }
  return 0.0;
}

// A 5 % campaign over the wall meter (dropped, stuck, spiked, NaN and
// zero samples, gain drift, window timeouts), with recovery tiered to
// its rates: per-sample sanitization below the node's PSU ceiling,
// tolerant trace validation, and MAD screening tight enough for the
// +/-5 % gain-drift windows.  The paper's results must survive it, and
// every fault must show in the exposition.  (Pool-size determinism and
// resume under the campaign: StudyFaults.PoolSizeDoesNotChangeFaultedResults
// and JournalTest.ResumeIsBitwiseIdenticalToUninterrupted.)
TEST(FaultCampaign, PaperShapesSurviveAndEveryFaultIsCounted) {
  apps::GpuMatMulOptions o;
  o.useMeter = true;
  o.faults = FaultInjectionOptions::campaign(0.05);
  o.robustness.sanitizeSamples = true;
  o.robustness.maxPlausibleWatts = 600.0;
  o.robustness.validation.enabled = true;
  o.robustness.validation.maxGapFactor = 5.0;
  o.robustness.validation.stuckRunLength = 8;
  o.robustness.rejectOutliers = true;
  o.robustness.madThreshold = 3.5;
  o.robustness.remeasureBudget = 64;
  o.failPolicy = FailPolicy::SkipAndRecord;
  const std::uint64_t seed = 0xFA17C4EC;
  // The registry is process-wide: read what this case adds to it.
  const std::string promBefore = obs::Registry::global().renderPrometheus();

  // 1. K40c, Section V: every workload's global front is one point at
  // BS=32, held to the protocol's own 2.5 % precision (a 2.5 % CI
  // cannot certify dominance between sub-percent near-ties).
  const core::GpuEpStudy k40c(
      apps::GpuMatMulApp(hw::GpuModel(hw::nvidiaK40c()), o));
  core::SweepOptions sweepOpts;
  sweepOpts.workloadPolicy = FailPolicy::SkipAndRecord;
  const std::vector<int> sweep{8704, 10240, 12288, 14336};
  ThreadPool pool(2);
  Rng rng(seed);
  const auto run = k40c.runSweepChecked(sweep, rng, sweepOpts, &pool);
  EXPECT_TRUE(run.failures.empty());
  ASSERT_EQ(run.results.size(), sweep.size());
  std::size_t skipped = 0;
  for (const auto& r : run.results) {
    skipped += r.failures.size();
    EXPECT_EQ(pareto::precisionFront(apps::GpuMatMulApp::toPoints(r.data),
                                     stats::MeasurementOptions{}.precision)
                  .size(),
              1u)
        << "N=" << r.n;
    EXPECT_EQ(r.data[r.globalTradeoff.performanceOptimal.configId].config.bs,
              32)
        << "N=" << r.n;
  }

  // 2. Fig 6 on measured P100 energies (BS=32, G=1 vs G=4): strongly
  // non-additive at N=5120, additive at N=16384.
  const apps::GpuMatMulApp p100(hw::GpuModel(hw::nvidiaP100Pcie()), o);
  Rng addRng(seed + 1);
  const auto additivityError = [&](int n) {
    double e1 = 0.0;
    double e4 = 0.0;
    for (const auto& cfg : p100.additivityConfigs(n, 32, 4)) {
      Rng cfgRng = addRng.fork(apps::GpuMatMulApp::forkSalt(cfg));
      const double e = p100.runConfig(cfg, cfgRng).dynamicEnergy.value();
      if (cfg.g == 1) e1 = e;
      if (cfg.g == 4) e4 = e;
    }
    return model::analyzeEnergyAdditivity(e1, e4, 4).error;
  };
  EXPECT_GT(additivityError(5120), 0.10);
  EXPECT_LT(additivityError(16384), 0.08);

  // 3. The faults and the recovery they forced are in the exposition.
  const std::string prom = obs::Registry::global().renderPrometheus();
  const auto grew = [&](const char* name) {
    return promValue(prom, name) - promValue(promBefore, name);
  };
  EXPECT_GT(grew("ep_fault_injected_total"), 0.0);
  EXPECT_GT(grew("ep_measure_timeouts_total"), 0.0);
  EXPECT_NE(prom.find("\nep_measure_retries_total "), std::string::npos);
  EXPECT_GE(grew("ep_study_config_failures_total"),
            static_cast<double>(skipped));
}

// --- checkpoint / resume ---

class JournalTest : public ::testing::Test {
 protected:
  JournalTest()
      : app_(hw::GpuModel(hw::nvidiaK40c()), journalOptions()),
        study_(app_),
        // ctest runs each case as its own process, in parallel under
        // -j: one file per case keeps them from racing on it.
        path_(::testing::TempDir() + "epfault_journal_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".journal") {
    std::remove(path_.c_str());
  }
  ~JournalTest() override { std::remove(path_.c_str()); }

  static apps::GpuMatMulOptions journalOptions() {
    apps::GpuMatMulOptions o = smallStudyOptions();
    o.faults = FaultInjectionOptions::campaign(0.05);
    o.robustness.sanitizeSamples = true;
    o.robustness.rejectOutliers = true;
    o.failPolicy = FailPolicy::SkipAndRecord;
    return o;
  }

  static bool sameSweep(const std::vector<core::WorkloadResult>& a,
                        const std::vector<core::WorkloadResult>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].n != b[i].n || a[i].data.size() != b[i].data.size() ||
          a[i].failures.size() != b[i].failures.size()) {
        return false;
      }
      for (std::size_t j = 0; j < a[i].data.size(); ++j) {
        if (core::doubleBits(a[i].data[j].time.value()) !=
                core::doubleBits(b[i].data[j].time.value()) ||
            core::doubleBits(a[i].data[j].dynamicEnergy.value()) !=
                core::doubleBits(b[i].data[j].dynamicEnergy.value())) {
          return false;
        }
      }
    }
    return true;
  }

  apps::GpuMatMulApp app_;
  core::GpuEpStudy study_;
  std::string path_;
  const std::vector<int> sweep_{1536, 2048, 2560};
};

TEST_F(JournalTest, ResumeIsBitwiseIdenticalToUninterrupted) {
  core::SweepOptions plain;
  plain.workloadPolicy = FailPolicy::SkipAndRecord;
  Rng rngA(1234);
  const auto uninterrupted = study_.runSweepChecked(sweep_, rngA, plain);

  core::SweepOptions ckpt = plain;
  ckpt.checkpointPath = path_;
  {
    // "Crash" after the first workload only.
    const std::vector<int> half(sweep_.begin(), sweep_.begin() + 1);
    Rng rng(1234);
    const auto partial = study_.runSweepChecked(half, rng, ckpt);
    EXPECT_EQ(partial.resumedWorkloads, 0u);
  }
  Rng rngB(1234);
  const auto resumed = study_.runSweepChecked(sweep_, rngB, ckpt);
  EXPECT_EQ(resumed.resumedWorkloads, 1u);
  EXPECT_TRUE(sameSweep(uninterrupted.results, resumed.results));

  Rng rngC(1234);
  const auto replayed = study_.runSweepChecked(sweep_, rngC, ckpt);
  EXPECT_EQ(replayed.resumedWorkloads, sweep_.size());
  EXPECT_TRUE(sameSweep(uninterrupted.results, replayed.results));
}

TEST_F(JournalTest, TornTailIsIgnoredOnLoad) {
  core::SweepOptions ckpt;
  ckpt.workloadPolicy = FailPolicy::SkipAndRecord;
  ckpt.checkpointPath = path_;
  Rng rngA(55);
  const auto first = study_.runSweepChecked({sweep_[0]}, rngA, ckpt);
  ASSERT_EQ(first.results.size(), 1u);
  {
    // Simulate a crash mid-append: a workload header and one config
    // line with no terminating E record.
    std::ofstream tail(path_, std::ios::app);
    tail << "W 2048 5 0\nC 4 2 2 40340c0000";
  }
  Rng rngB(55);
  const auto resumed = study_.runSweepChecked(sweep_, rngB, ckpt);
  // Only the complete workload was restored; the torn one re-measures.
  EXPECT_EQ(resumed.resumedWorkloads, 1u);
  EXPECT_EQ(resumed.results.size(), sweep_.size());
}

// A record the app cannot honour ends parsing like a torn tail, instead
// of throwing out of load(): the complete workload before it is still
// restored.
class JournalUnhonourableTest : public JournalTest {
 protected:
  std::map<int, core::WorkloadResult> loadWithTail(const std::string& tail) {
    core::SweepOptions ckpt;
    ckpt.workloadPolicy = FailPolicy::SkipAndRecord;
    ckpt.checkpointPath = path_;
    Rng rng(55);
    (void)study_.runSweepChecked({sweep_[0]}, rng, ckpt);
    {
      std::ofstream out(path_, std::ios::app);
      out << tail;
    }
    return core::StudyJournal::load(path_, study_.checkpointHash(55), app_);
  }

  void expectOnlyTheCompleteWorkload(const std::string& tail) {
    std::map<int, core::WorkloadResult> loaded;
    ASSERT_NO_THROW(loaded = loadWithTail(tail)) << tail;
    ASSERT_EQ(loaded.size(), 1u) << tail;
    EXPECT_EQ(loaded.begin()->first, sweep_[0]);
  }
};

TEST_F(JournalUnhonourableTest, CountNoReserveCanHoldEndsParsing) {
  expectOnlyTheCompleteWorkload("W 2048 18446744073709551615 0\n");
}

TEST_F(JournalUnhonourableTest, CountNoAllocationCanHoldEndsParsing) {
  expectOnlyTheCompleteWorkload("W 2048 100000000000 0\n");
}

TEST_F(JournalUnhonourableTest, UnlaunchableConfigurationEndsParsing) {
  expectOnlyTheCompleteWorkload(
      "W 2048 1 0\n"
      "C 999 2 2 3f50624dd2f1a9fc 3ff0000000000000 5 0\n"
      "E 2048\n");
}

TEST_F(JournalUnhonourableTest, WorkloadWithoutFrontsEndsParsing) {
  // No points at all, and a point no measurement yields (zero time).
  expectOnlyTheCompleteWorkload("W 2048 0 0\nE 2048\n");
  std::remove(path_.c_str());
  expectOnlyTheCompleteWorkload(
      "W 2048 1 0\n"
      "C 4 2 2 0000000000000000 3ff0000000000000 5 0\n"
      "E 2048\n");
}

TEST_F(JournalTest, HashMismatchRefusesTheJournal) {
  core::SweepOptions ckpt;
  ckpt.workloadPolicy = FailPolicy::SkipAndRecord;
  ckpt.checkpointPath = path_;
  Rng rngA(77);
  (void)study_.runSweepChecked({sweep_[0]}, rngA, ckpt);

  // Same options, different device: the checkpoint identity differs and
  // the journal must refuse to resume rather than silently merge.
  const core::GpuEpStudy p100(
      apps::GpuMatMulApp(hw::GpuModel(hw::nvidiaP100Pcie()),
                         journalOptions()));
  Rng rngB(77);
  EXPECT_THROW((void)p100.runSweepChecked({sweep_[0]}, rngB, ckpt),
               PreconditionError);
  // A different seed on the same device is refused too.
  Rng rngC(78);
  EXPECT_THROW((void)study_.runSweepChecked({sweep_[0]}, rngC, ckpt),
               PreconditionError);
  // So is the same device and seed under another fault campaign: the
  // identity covers every campaign setting, the Fig 6 offset included.
  apps::GpuMatMulOptions offset = journalOptions();
  offset.faults.offsetRate = 1.0;
  offset.faults.offsetWatts = 58.0;
  const core::GpuEpStudy offsetStudy(
      apps::GpuMatMulApp(hw::GpuModel(hw::nvidiaK40c()), offset));
  Rng rngD(77);
  EXPECT_THROW((void)offsetStudy.runSweepChecked({sweep_[0]}, rngD, ckpt),
               PreconditionError);
  // And so is the same study under one retuned model constant: the
  // journal keeps measurements only and recomputes the models on load,
  // so resuming would mix old measurements with new models.
  hw::GpuTuning retuned = hw::GpuModel(hw::nvidiaK40c()).tuning();
  retuned.residencyPower *= 1.01;
  const core::GpuEpStudy retunedStudy(apps::GpuMatMulApp(
      hw::GpuModel(hw::nvidiaK40c(), retuned), journalOptions()));
  Rng rngE(77);
  EXPECT_THROW((void)retunedStudy.runSweepChecked({sweep_[0]}, rngE, ckpt),
               PreconditionError);
}

TEST_F(JournalTest, MissingFileLoadsEmpty) {
  const auto loaded = core::StudyJournal::load(
      path_, study_.checkpointHash(123), app_);
  EXPECT_TRUE(loaded.empty());
}

}  // namespace
}  // namespace ep::fault
