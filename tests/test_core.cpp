// Unit and property tests for epcore: strong/weak EP definitions, EP
// metrics, the Section III two-core theory, the n-core generalization,
// and the bi-objective tuner.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/definitions.hpp"
#include "core/metrics.hpp"
#include "core/ncore.hpp"
#include "core/tuner.hpp"
#include "core/twocore.hpp"
#include "core/watchdog.hpp"
#include "serve/engine.hpp"

namespace ep::core {
namespace {

pareto::BiPoint mk(double t, double e, std::uint64_t id = 0) {
  pareto::BiPoint p;
  p.time = Seconds{t};
  p.energy = Joules{e};
  p.configId = id;
  return p;
}

// --- strong EP ---

TEST(StrongEp, PerfectlyProportionalDataHolds) {
  std::vector<double> w, e;
  for (int i = 1; i <= 20; ++i) {
    w.push_back(i * 1e6);
    e.push_back(i * 3.0);
  }
  const auto r = analyzeStrongEp(w, e);
  EXPECT_TRUE(r.holds);
  EXPECT_NEAR(r.proportionalFit.slope, 3e-6, 1e-12);
  EXPECT_LT(r.maxRelativeDeviation, 1e-9);
}

TEST(StrongEp, NonlinearDataViolates) {
  std::vector<double> w, e;
  for (int i = 1; i <= 20; ++i) {
    w.push_back(i * 1e6);
    e.push_back(std::pow(static_cast<double>(i), 1.8));
  }
  const auto r = analyzeStrongEp(w, e);
  EXPECT_FALSE(r.holds);
  EXPECT_GT(r.maxRelativeDeviation, 0.05);
}

TEST(StrongEp, SmallDeviationWithinToleranceHolds) {
  std::vector<double> w{1e6, 2e6, 3e6};
  std::vector<double> e{1.0, 2.02, 2.98};
  const auto r = analyzeStrongEp(w, e, 0.05);
  EXPECT_TRUE(r.holds);
}

TEST(StrongEp, InputValidation) {
  std::vector<double> w{1.0, 2.0};
  std::vector<double> e{1.0, 2.0};
  EXPECT_THROW((void)analyzeStrongEp(w, e), PreconditionError);
}

// --- weak EP ---

TEST(WeakEp, ConstantEnergyHolds) {
  const std::vector<pareto::BiPoint> pts{mk(1, 100), mk(2, 100),
                                         mk(3, 100)};
  const auto r = analyzeWeakEp(pts);
  EXPECT_TRUE(r.holds);
  EXPECT_DOUBLE_EQ(r.spread, 0.0);
}

TEST(WeakEp, LargeSpreadViolates) {
  const std::vector<pareto::BiPoint> pts{mk(1, 100), mk(2, 150)};
  const auto r = analyzeWeakEp(pts);
  EXPECT_FALSE(r.holds);
  EXPECT_DOUBLE_EQ(r.spread, 0.5);
  EXPECT_DOUBLE_EQ(r.minEnergyJ, 100.0);
  EXPECT_DOUBLE_EQ(r.maxEnergyJ, 150.0);
}

TEST(WeakEp, SpreadWithinToleranceHolds) {
  const std::vector<pareto::BiPoint> pts{mk(1, 100), mk(2, 103)};
  EXPECT_TRUE(analyzeWeakEp(pts, 0.05).holds);
}

// --- metrics ---

TEST(Metrics, PerfectlyLinearCurveScoresOne) {
  std::vector<PowerSampleU> samples;
  for (int i = 1; i <= 10; ++i) {
    samples.push_back({i * 0.1, i * 10.0});
  }
  EXPECT_NEAR(ryckboschEpMetric(samples), 1.0, 1e-12);
  EXPECT_NEAR(maxLinearDeviation(samples), 0.0, 1e-12);
}

TEST(Metrics, CurveAboveIdealScoresBelowOne) {
  // Typical server: high power at low utilization.
  std::vector<PowerSampleU> samples;
  for (int i = 1; i <= 10; ++i) {
    const double u = i * 0.1;
    samples.push_back({u, 50.0 + 50.0 * u});  // P(1) = 100, P(0.1) = 55
  }
  const double ep = ryckboschEpMetric(samples);
  EXPECT_LT(ep, 1.0);
  EXPECT_GT(maxLinearDeviation(samples), 1.0);  // 55 vs ideal 10 at u=0.1
}

TEST(Metrics, ScatterZeroForFunctionalRelationship) {
  // With one point per bin, a functional relationship has exactly zero
  // residual; coarse bins only measure the within-bin slope.
  std::vector<PowerSampleU> samples;
  for (int i = 1; i <= 40; ++i) {
    samples.push_back({i * 0.025, i * 2.0});
  }
  const auto fine = analyzeScatter(samples, 40);
  EXPECT_NEAR(fine.maxResidual, 0.0, 1e-12);
  const auto coarse = analyzeScatter(samples, 8);
  EXPECT_GT(coarse.maxResidual, fine.maxResidual);
}

TEST(Metrics, ScatterLargeForNonFunctionalCloud) {
  // Two very different powers at the same utilizations (the Fig 4
  // phenomenon).
  std::vector<PowerSampleU> samples;
  for (int i = 1; i <= 20; ++i) {
    samples.push_back({0.5 + (i % 3) * 0.01, 60.0});
    samples.push_back({0.5 + (i % 3) * 0.01, 110.0});
  }
  samples.push_back({0.1, 20.0});
  samples.push_back({0.9, 120.0});
  const auto s = analyzeScatter(samples, 8);
  EXPECT_GT(s.maxResidual, 0.2);
}

TEST(Metrics, InputValidation) {
  std::vector<PowerSampleU> one{{0.5, 10.0}};
  EXPECT_THROW((void)ryckboschEpMetric(one), PreconditionError);
  std::vector<PowerSampleU> same{{0.5, 10.0}, {0.5, 12.0}};
  EXPECT_THROW((void)analyzeScatter(same, 4), PreconditionError);
}

// --- two-core theory (Section III equations) ---

TEST(TwoCore, Equation1BalancedEnergy) {
  const SimpleEpModel m{2.0, 3.0};
  const auto e = twoCoreEnergy(m, 0.5, 0.5);
  // E1 = 2 a b.
  EXPECT_DOUBLE_EQ(e.total, 2.0 * 2.0 * 3.0);
  EXPECT_DOUBLE_EQ(e.core1, e.core2);
  EXPECT_DOUBLE_EQ(e.time, 3.0 / 0.5);
}

TEST(TwoCore, Equation2RaisingOneCore) {
  const SimpleEpModel m{1.0, 1.0};
  const auto s = paperScenarios(m, 0.5, 0.2);
  // E_d1,2 = a b (U+dU)/U; E_d2,2 = a b.
  EXPECT_DOUBLE_EQ(s.e2.core1, 0.7 / 0.5);
  EXPECT_DOUBLE_EQ(s.e2.core2, 1.0);
  EXPECT_GT(s.e2.total, s.e1.total);
}

TEST(TwoCore, Equation3OppositePerturbation) {
  const SimpleEpModel m{1.0, 1.0};
  const auto s = paperScenarios(m, 0.5, 0.2);
  // E_d1,3 = a b (U+dU)/(U-dU); E_d2,3 = a b.
  EXPECT_DOUBLE_EQ(s.e3.core1, 0.7 / 0.3);
  EXPECT_DOUBLE_EQ(s.e3.core2, 1.0);
  // Performance decreases: completion time grows.
  EXPECT_GT(s.e3.time, s.e1.time);
}

TEST(TwoCore, PaperTheoremOrderingHoldsForAllPerturbations) {
  // The Section III result: E3 > E2 > E1 for every 0 < dU < U.
  const SimpleEpModel m{1.7, 0.9};
  for (double u : {0.3, 0.5, 0.7}) {
    for (double du = 0.01; du < u && u + du <= 1.0; du += 0.02) {
      const auto s = paperScenarios(m, u, du);
      EXPECT_GT(s.e3.total, s.e2.total) << "u=" << u << " du=" << du;
      EXPECT_GT(s.e2.total, s.e1.total) << "u=" << u << " du=" << du;
    }
  }
}

TEST(TwoCore, InputValidation) {
  const SimpleEpModel m;
  EXPECT_THROW((void)twoCoreEnergy(m, 0.0, 0.5), PreconditionError);
  EXPECT_THROW((void)twoCoreEnergy(m, 0.5, 1.1), PreconditionError);
  EXPECT_THROW((void)paperScenarios(m, 0.5, 0.6), PreconditionError);
  EXPECT_THROW((void)paperScenarios(m, 0.9, 0.2), PreconditionError);
}

// --- n-core generalization ---

TEST(NCore, MatchesTwoCoreOnPairs) {
  const NCoreModel nm{1.0, 1.0, 1.0};
  const SimpleEpModel sm{1.0, 1.0};
  const std::vector<double> us{0.7, 0.3};
  const auto en = nCoreEnergy(nm, us);
  const auto e2 = twoCoreEnergy(sm, 0.7, 0.3);
  EXPECT_DOUBLE_EQ(en.total, e2.total);
  EXPECT_DOUBLE_EQ(en.time, e2.time);
}

TEST(NCore, UniformIsBaseline) {
  const NCoreModel m{2.0, 3.0, 1.0};
  const auto e = uniformEnergy(m, 8, 0.5);
  // 8 cores: P = 8 a U, t = b / U -> E = 8 a b.
  EXPECT_DOUBLE_EQ(e.total, 8.0 * 2.0 * 3.0);
}

TEST(NCoreProperty, ImbalancePenaltyNonNegativeLinearPower) {
  Rng rng(13);
  const NCoreModel m{1.0, 1.0, 1.0};
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t cores = 2 + rng.uniformInt(0, 14);
    std::vector<double> us(cores);
    for (auto& u : us) u = rng.uniform(0.05, 1.0);
    EXPECT_GE(imbalancePenalty(m, us), -1e-12);
  }
}

TEST(NCoreProperty, ImbalancePenaltyNonNegativeConcavePower) {
  // The paper's future-work case: concave P(U) = a U^gamma still
  // penalizes imbalance because completion time is gated by the
  // slowest core (first-order) while the power saving is second-order.
  Rng rng(14);
  for (double gamma : {0.3, 0.5, 0.8, 1.0}) {
    const NCoreModel m{1.0, 1.0, gamma};
    for (int trial = 0; trial < 100; ++trial) {
      const std::size_t cores = 2 + rng.uniformInt(0, 10);
      std::vector<double> us(cores);
      for (auto& u : us) u = rng.uniform(0.05, 1.0);
      EXPECT_GE(imbalancePenalty(m, us), -1e-12) << "gamma=" << gamma;
    }
  }
}

TEST(NCore, BalancedVectorHasZeroPenalty) {
  const NCoreModel m{1.0, 1.0, 0.7};
  const std::vector<double> us(6, 0.42);
  EXPECT_NEAR(imbalancePenalty(m, us), 0.0, 1e-12);
}

TEST(NCore, InputValidation) {
  const NCoreModel bad{1.0, 1.0, 1.5};
  const std::vector<double> us{0.5};
  EXPECT_THROW((void)nCoreEnergy(bad, us), PreconditionError);
  const NCoreModel m;
  const std::vector<double> empty;
  EXPECT_THROW((void)nCoreEnergy(m, empty), PreconditionError);
}

// --- tuner ---

TEST(Tuner, RecommendsWithinBudget) {
  const std::vector<pareto::BiPoint> pts{
      mk(10.0, 100.0, 0), mk(10.5, 70.0, 1), mk(12.0, 40.0, 2),
      mk(20.0, 35.0, 3)};
  const BiObjectiveTuner tuner(0.25);
  const auto rec = tuner.recommend(pts);
  EXPECT_EQ(rec.performanceOptimal.configId, 0u);
  EXPECT_EQ(rec.energyOptimal.configId, 3u);
  EXPECT_EQ(rec.recommended.configId, 2u);  // 12.0 <= 12.5 budget
  EXPECT_NEAR(rec.energySavings, 0.6, 1e-12);
  EXPECT_NEAR(rec.performanceDegradation, 0.2, 1e-12);
}

TEST(Tuner, FallsBackToPerfOptimalWhenNoSavings) {
  const std::vector<pareto::BiPoint> pts{mk(1.0, 10.0, 0),
                                         mk(2.0, 20.0, 1)};
  const BiObjectiveTuner tuner(0.05);
  const auto rec = tuner.recommend(pts);
  EXPECT_EQ(rec.recommended.configId, 0u);
  EXPECT_DOUBLE_EQ(rec.energySavings, 0.0);
}

TEST(Tuner, GlobalFrontAndKneeExposed) {
  const std::vector<pareto::BiPoint> pts{mk(1, 5, 0), mk(2, 3, 1),
                                         mk(4, 1, 2), mk(5, 5, 3)};
  const BiObjectiveTuner tuner(1.0);
  const auto rec = tuner.recommend(pts);
  EXPECT_EQ(rec.globalFront.size(), 3u);  // (5,5) dominated
  EXPECT_EQ(rec.knee.configId, 1u);
}

TEST(Tuner, RejectsNegativeBudgetAndEmptyInput) {
  EXPECT_THROW(BiObjectiveTuner{-0.1}, PreconditionError);
  const BiObjectiveTuner tuner(0.1);
  EXPECT_THROW((void)tuner.recommend({}), PreconditionError);
}

// --- degenerate inputs (the recommend contract must stay total) ---

TEST(Tuner, SinglePointIsEveryOptimum) {
  const BiObjectiveTuner tuner(0.1);
  const auto rec = tuner.recommend({mk(3.0, 7.0, 42)});
  EXPECT_EQ(rec.performanceOptimal.configId, 42u);
  EXPECT_EQ(rec.energyOptimal.configId, 42u);
  EXPECT_EQ(rec.knee.configId, 42u);
  EXPECT_EQ(rec.recommended.configId, 42u);
  ASSERT_EQ(rec.globalFront.size(), 1u);
  EXPECT_DOUBLE_EQ(rec.energySavings, 0.0);
  EXPECT_DOUBLE_EQ(rec.performanceDegradation, 0.0);
}

TEST(Tuner, SinglePointWithZeroObjectivesDoesNotThrow) {
  // A lone point cannot satisfy the trade-off analysis's positivity
  // requirement; recommend must still be total over it.
  const BiObjectiveTuner tuner(0.5);
  const auto rec = tuner.recommend({mk(0.0, 0.0, 7)});
  EXPECT_EQ(rec.recommended.configId, 7u);
  EXPECT_DOUBLE_EQ(rec.energySavings, 0.0);
}

TEST(Tuner, ZeroBudgetRecommendsPerformanceOptimal) {
  const std::vector<pareto::BiPoint> pts{
      mk(10.0, 100.0, 0), mk(10.5, 70.0, 1), mk(12.0, 40.0, 2)};
  const BiObjectiveTuner tuner(0.0);
  const auto rec = tuner.recommend(pts);
  EXPECT_EQ(rec.recommended.configId, 0u);
  EXPECT_DOUBLE_EQ(rec.energySavings, 0.0);
  EXPECT_DOUBLE_EQ(rec.performanceDegradation, 0.0);
}

TEST(Tuner, ZeroBudgetStillTakesTimeTiedCheaperPoint) {
  // Two configurations with identical time: the performance optimum
  // tie-breaks toward lower energy, so zero budget loses nothing.
  const std::vector<pareto::BiPoint> pts{
      mk(10.0, 100.0, 0), mk(10.0, 60.0, 1), mk(11.0, 50.0, 2)};
  const BiObjectiveTuner tuner(0.0);
  const auto rec = tuner.recommend(pts);
  EXPECT_EQ(rec.performanceOptimal.configId, 1u);
  EXPECT_EQ(rec.recommended.configId, 1u);
}

TEST(Tuner, AllIdenticalPointsAreWellDefined) {
  const std::vector<pareto::BiPoint> pts{mk(2.0, 4.0, 0), mk(2.0, 4.0, 1),
                                         mk(2.0, 4.0, 2)};
  const BiObjectiveTuner tuner(0.25);
  const auto rec = tuner.recommend(pts);
  EXPECT_DOUBLE_EQ(rec.energySavings, 0.0);
  EXPECT_DOUBLE_EQ(rec.performanceDegradation, 0.0);
  EXPECT_EQ(rec.recommended.time.value(), 2.0);
}

}  // namespace
}  // namespace ep::core

// --- per-level proportionality (appended Wong-Annavaram-style metric) ---

namespace ep::core {
namespace {

TEST(PerLevel, IdealCurveScoresOneEverywhere) {
  std::vector<PowerSampleU> samples;
  for (int i = 1; i <= 20; ++i) samples.push_back({i * 0.05, i * 5.0});
  for (const auto& lp : perLevelProportionality(samples, 5)) {
    EXPECT_NEAR(lp.proportionality, 1.0, 0.15);
  }
}

TEST(PerLevel, OverConsumingLowLoadScoresBelowOne) {
  // Server-like: half power at 10% load.
  std::vector<PowerSampleU> samples;
  for (int i = 1; i <= 10; ++i) {
    const double u = i * 0.1;
    samples.push_back({u, 50.0 + 50.0 * u});
  }
  const auto levels = perLevelProportionality(samples, 5);
  ASSERT_FALSE(levels.empty());
  // Proportionality is worst at low utilization and improves upward —
  // exactly the non-uniformity [6] reports.
  EXPECT_LT(levels.front().proportionality, 0.5);
  EXPECT_GT(levels.back().proportionality,
            levels.front().proportionality);
}

TEST(PerLevel, InputValidation) {
  std::vector<PowerSampleU> one{{0.5, 1.0}};
  EXPECT_THROW((void)perLevelProportionality(one, 4), PreconditionError);
}

}  // namespace
}  // namespace ep::core

// --- CPU EP study and server-fleet survey (appended extensions) ---

#include "core/cpu_study.hpp"
#include "core/serverpark.hpp"
#include "hw/cpu_model.hpp"

namespace ep::core {
namespace {

TEST(CpuStudy, ProducesCompleteWorkloadResult) {
  apps::CpuDgemmOptions opts;
  opts.useMeter = false;
  const CpuEpStudy study(
      apps::CpuDgemmApp(hw::CpuModel(hw::haswellE52670v3()), opts));
  Rng rng(1);
  const auto r = study.runWorkload(8192, hw::BlasVariant::IntelMklLike, rng);
  EXPECT_GT(r.points.size(), 50u);
  EXPECT_FALSE(r.globalFront.empty());
  EXPECT_FALSE(r.weakEp.holds);   // the paper's CPU result
  EXPECT_GT(r.weakEp.spread, 0.5);
  EXPECT_GT(r.peakGflops, 100.0);
  EXPECT_GT(r.powerScatter.maxResidual, 0.05);
  EXPECT_LT(r.ryckboschMetric, 1.0);
}

TEST(CpuStudy, VariantsDiffer) {
  apps::CpuDgemmOptions opts;
  opts.useMeter = false;
  const CpuEpStudy study(
      apps::CpuDgemmApp(hw::CpuModel(hw::haswellE52670v3()), opts));
  Rng rng(2);
  const auto mkl =
      study.runWorkload(17408, hw::BlasVariant::IntelMklLike, rng);
  const auto ob =
      study.runWorkload(17408, hw::BlasVariant::OpenBlasLike, rng);
  EXPECT_GT(mkl.peakGflops, ob.peakGflops);
}

TEST(ServerPark, CurveEndpointsAreIdleAndPeak) {
  const ServerPowerCurve s{"x", 400.0, 0.4, 1.2};
  EXPECT_DOUBLE_EQ(s.powerAt(0.0), 160.0);
  EXPECT_DOUBLE_EQ(s.powerAt(1.0), 400.0);
  EXPECT_THROW((void)s.powerAt(1.5), PreconditionError);
}

TEST(ServerPark, LadderHasElevenMonotoneSteps) {
  const ServerPowerCurve s{"x", 300.0, 0.3, 1.0};
  const auto ladder = specPowerLadder(s);
  ASSERT_EQ(ladder.size(), 11u);
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_GT(ladder[i].powerW, ladder[i - 1].powerW);
    EXPECT_GT(ladder[i].utilization, ladder[i - 1].utilization);
  }
}

TEST(ServerPark, PerfectServerScoresNearOne) {
  // No idle floor, linear response: ideal EP.
  const ServerPowerCurve ideal{"ideal", 300.0, 0.0, 1.0};
  EXPECT_NEAR(ryckboschEpMetric(specPowerLadder(ideal)), 1.0, 1e-9);
}

TEST(ServerPark, HighIdleFloorScoresLow) {
  const ServerPowerCurve bad{"bad", 300.0, 0.65, 1.0};
  EXPECT_LT(ryckboschEpMetric(specPowerLadder(bad)), 0.6);
}

TEST(ServerPark, FleetSurveyIsDeterministicAndSane) {
  Rng rngA(210), rngB(210);
  const auto a = surveyFleet(generateFleet(210, rngA));
  const auto b = surveyFleet(generateFleet(210, rngB));
  EXPECT_EQ(a.servers, 210u);
  EXPECT_DOUBLE_EQ(a.meanEpMetric, b.meanEpMetric);
  EXPECT_LE(a.minEpMetric, a.meanEpMetric);
  EXPECT_LE(a.meanEpMetric, a.maxEpMetric);
  // Only a minority of servers is near-proportional ([5]).
  EXPECT_GT(a.nearlyProportionalCount, 0u);
  EXPECT_LT(a.nearlyProportionalCount, a.servers / 3);
}

TEST(ServerPark, RejectsMalformedInputs) {
  Rng rng(1);
  EXPECT_THROW((void)generateFleet(0, rng), PreconditionError);
  EXPECT_THROW((void)surveyFleet({}), PreconditionError);
  const ServerPowerCurve bad{"bad", -1.0, 0.3, 1.0};
  EXPECT_THROW((void)specPowerLadder(bad), PreconditionError);
}

// --- power-anomaly watchdog ---

// A window whose observed energy exceeds the model expectation by
// exactly `offsetW` watts — the signature of Fig 6's constant
// component, which sample sanitization and outlier rejection cannot
// see (a consistent shift passes both).
power::MeasureWindowObservation offsetWindow(double offsetW,
                                             double windowS = 2.0) {
  power::MeasureWindowObservation o;
  o.scope = "P100";
  o.windowS = windowS;
  o.staticJ = 50.0 * windowS;
  o.expectedJ = (50.0 + 80.0) * windowS;  // base + workload
  o.observedJ = o.expectedJ + offsetW * windowS;
  o.traceId = 0xBEEFu;
  return o;
}

TEST(Watchdog, RaisesConstantComponentAtTheRollingMedian) {
  WatchdogOptions opts;
  opts.constantComponentWatts = 25.0;
  opts.rollingWindows = 8;
  opts.minWindows = 4;
  PowerAnomalyWatchdog wd(opts);

  // Below minWindows nothing can fire, however large the residual.
  wd.onMeasureWindow(offsetWindow(58.0));
  wd.onMeasureWindow(offsetWindow(58.0));
  wd.onMeasureWindow(offsetWindow(58.0));
  EXPECT_EQ(wd.activeAlerts(), 0u);

  // The fourth window completes the median: one event, raised once.
  wd.onMeasureWindow(offsetWindow(58.0));
  EXPECT_EQ(wd.activeAlerts(), 1u);
  wd.onMeasureWindow(offsetWindow(58.0));
  EXPECT_EQ(wd.activeAlerts(), 1u);  // no re-raise while active

  const auto events = wd.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].kind, "constant_component");
  EXPECT_STREQ(events[0].scope, "P100");
  EXPECT_NEAR(events[0].value, 58.0, 1e-9);
  EXPECT_DOUBLE_EQ(events[0].threshold, 25.0);
  EXPECT_EQ(events[0].traceId, 0xBEEFu);
}

TEST(Watchdog, ConstantComponentClearsWithHysteresis) {
  WatchdogOptions opts;
  opts.constantComponentWatts = 25.0;
  opts.rollingWindows = 4;
  opts.minWindows = 4;
  opts.clearFraction = 0.5;
  PowerAnomalyWatchdog wd(opts);
  for (int i = 0; i < 4; ++i) wd.onMeasureWindow(offsetWindow(58.0));
  ASSERT_EQ(wd.activeAlerts(), 1u);

  // Dropping below the threshold is not enough — only below
  // threshold * clearFraction (12.5 W) does the alert clear.
  for (int i = 0; i < 4; ++i) wd.onMeasureWindow(offsetWindow(20.0));
  EXPECT_EQ(wd.activeAlerts(), 1u);
  for (int i = 0; i < 4; ++i) wd.onMeasureWindow(offsetWindow(1.0));
  EXPECT_EQ(wd.activeAlerts(), 0u);

  const auto events = wd.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].kind, "constant_component");
  EXPECT_STREQ(events[1].kind, "cleared");
}

TEST(Watchdog, ScopesTrackAnomaliesIndependently) {
  WatchdogOptions opts;
  opts.minWindows = 4;
  opts.rollingWindows = 4;
  PowerAnomalyWatchdog wd(opts);
  for (int i = 0; i < 4; ++i) {
    auto healthy = offsetWindow(0.0);
    healthy.scope = "K40c";
    wd.onMeasureWindow(healthy);
    wd.onMeasureWindow(offsetWindow(58.0));  // P100
  }
  EXPECT_EQ(wd.activeAlerts(), 1u);
  const auto events = wd.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].scope, "P100");
}

TEST(Watchdog, CiDegradationRaisesAndConvergenceClears) {
  WatchdogOptions opts;
  opts.ciPrecisionLimit = 0.10;
  PowerAnomalyWatchdog wd(opts);

  wd.onMeasurementResult("P100", /*converged=*/false, /*precision=*/0.35);
  EXPECT_EQ(wd.activeAlerts(), 1u);
  wd.onMeasurementResult("P100", false, 0.4);  // still active: no re-raise
  EXPECT_EQ(wd.activeAlerts(), 1u);
  // Non-convergence within the limit is not an anomaly.
  wd.onMeasurementResult("K40c", false, 0.05);
  EXPECT_EQ(wd.activeAlerts(), 1u);

  wd.onMeasurementResult("P100", /*converged=*/true, 0.02);
  EXPECT_EQ(wd.activeAlerts(), 0u);
  const auto events = wd.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].kind, "ci_degraded");
  EXPECT_DOUBLE_EQ(events[0].value, 0.35);
  EXPECT_STREQ(events[1].kind, "cleared");
}

TEST(Watchdog, ErrorBudgetBurnsAndRecovers) {
  WatchdogOptions opts;
  opts.errorBudget = 0.25;
  opts.requestWindow = 8;
  opts.minRequests = 4;
  opts.clearFraction = 0.5;
  PowerAnomalyWatchdog wd(opts);

  // 2 errors in 4 = 50 % > 25 %: raised (stale counts like error).
  wd.observeRequestOutcome("P100", false, false);
  wd.observeRequestOutcome("P100", true, false);
  wd.observeRequestOutcome("P100", false, true);
  EXPECT_EQ(wd.activeAlerts(), 0u);  // below minRequests
  wd.observeRequestOutcome("P100", false, false);
  EXPECT_EQ(wd.activeAlerts(), 1u);

  // Healthy traffic pushes the bad outcomes out of the window; the
  // alert clears once the rate falls to <= budget * clearFraction.
  for (int i = 0; i < 8; ++i) {
    wd.observeRequestOutcome("P100", false, false);
  }
  EXPECT_EQ(wd.activeAlerts(), 0u);
  const auto events = wd.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].kind, "error_budget");
  EXPECT_DOUBLE_EQ(events[0].value, 0.5);
  EXPECT_DOUBLE_EQ(events[0].threshold, 0.25);
  EXPECT_STREQ(events[1].kind, "cleared");
}

TEST(Watchdog, EventsDrainIncrementallyBySequence) {
  WatchdogOptions opts;
  opts.minWindows = 4;
  opts.rollingWindows = 4;
  opts.clearFraction = 0.5;
  PowerAnomalyWatchdog wd(opts);
  for (int i = 0; i < 4; ++i) wd.onMeasureWindow(offsetWindow(58.0));
  const auto first = wd.events();
  ASSERT_EQ(first.size(), 1u);

  for (int i = 0; i < 4; ++i) wd.onMeasureWindow(offsetWindow(0.0));
  // Tailing from the last seen seq yields only the clear event.
  const auto tail = wd.events(first.back().seq);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_STREQ(tail[0].kind, "cleared");
  EXPECT_TRUE(wd.events(tail.back().seq).empty());
}

// Every event a metered study of (device, n) records under a
// PowerAnomalyWatchdog installed as the measure observer, with a Fig 6
// offset of `offsetWatts` injected into every window (0 = a clean
// meter).
std::vector<obs::FlightEvent> meteredStudyEvents(serve::Device device, int n,
                                                 double offsetWatts) {
  serve::EpStudyEngineOptions o;
  o.useMeter = true;
  o.faults.offsetRate = offsetWatts > 0.0 ? 1.0 : 0.0;
  o.faults.offsetWatts = offsetWatts;
  const serve::EpStudyEngine engine(o);
  PowerAnomalyWatchdog wd;
  struct Install {
    explicit Install(power::MeasureObserver* w) {
      power::setMeasureObserver(w);
    }
    ~Install() { power::setMeasureObserver(nullptr); }
  } install(&wd);
  (void)engine.evaluate(device, n);
  return wd.events();
}

// The Fig 6 signature through the whole stack: a metered P100 study
// with a +58 W meter offset (fault rate 1) records exactly one event, a
// constant_component at ~58 W (no clear, no ci_degraded), and the same
// engine without the offset records none at all.  N = 16384 is above
// the P100's Fig 6 threshold; N = 256 is the ci.sh watch drill's size.
// (The live-daemon half, epserved's --fault-offset wiring and the exit
// code of `epctl watch --check`, is ci.sh's watch drill.)
TEST(Watchdog, InjectedFig6OffsetRaisesConstantComponent) {
  for (const int n : {16384, 256}) {
    const auto faulted = meteredStudyEvents(serve::Device::P100, n, 58.0);
    ASSERT_EQ(faulted.size(), 1u) << "N = " << n;
    EXPECT_STREQ(faulted[0].kind, "constant_component");
    EXPECT_GT(faulted[0].value, WatchdogOptions{}.constantComponentWatts);
    EXPECT_NEAR(faulted[0].value, 58.0, 1.0);
    EXPECT_TRUE(meteredStudyEvents(serve::Device::P100, n, 0.0).empty())
        << "N = " << n;
  }
}

// Below the meter's resolution a window is one or two 1 s intervals
// long, and each reading carries the power half an interval back: the
// window over-weights the kernel's start and never sees its last half
// second.  That lag is the instrument's, not a constant component, so a
// clean study must raise nothing.  Judged against the exact profile
// integral instead of Meter::visibleEnergy, P100 raises at both sizes
// and K40c raises and clears dozens of times per study.
TEST(Watchdog, CleanMeteredStudiesBelowTheMeterResolutionRaiseNothing) {
  for (const serve::Device device : {serve::Device::P100, serve::Device::K40c}) {
    for (const int n : {256, 1024}) {
      for (const auto& e : meteredStudyEvents(device, n, 0.0)) {
        EXPECT_STRNE(e.kind, "constant_component")
            << serve::deviceName(device) << " N = " << n;
      }
    }
  }
}

}  // namespace
}  // namespace ep::core
