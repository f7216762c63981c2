// Unit tests for epmodel: the additivity property and linear energy
// predictive models.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "cudasim/cupti.hpp"
#include "energymodel/additivity.hpp"
#include "energymodel/linear_model.hpp"

namespace ep::model {
namespace {

// --- additivityError ---

TEST(Additivity, PerfectlyAdditiveIsZeroError) {
  EXPECT_DOUBLE_EQ(additivityError(10.0, 20.0, 30.0), 0.0);
}

TEST(Additivity, RelativeErrorComputed) {
  EXPECT_DOUBLE_EQ(additivityError(10.0, 10.0, 25.0), 0.25);
  EXPECT_DOUBLE_EQ(additivityError(10.0, 10.0, 15.0), 0.25);
}

TEST(Additivity, ZeroBasesThrow) {
  EXPECT_THROW((void)additivityError(0.0, 0.0, 1.0), PreconditionError);
}

// --- counter additivity ---

TEST(CounterAdditivity, AdditiveCountersHaveZeroError) {
  cusim::CuptiCounters b1, b2, comp;
  b1.add(cusim::CuptiEvent::kFlopCountDp, 1000);
  b2.add(cusim::CuptiEvent::kFlopCountDp, 2000);
  comp.add(cusim::CuptiEvent::kFlopCountDp, 3000);
  const auto records = analyzeCounterAdditivity(b1, b2, comp);
  for (const auto& r : records) {
    if (r.event == "flop_count_dp") {
      EXPECT_DOUBLE_EQ(r.error, 0.0);
    }
  }
}

TEST(CounterAdditivity, OverflowMakesCountersNonAdditive) {
  // The paper's CUPTI failure mode: 32-bit wrap breaks additivity even
  // though the silicon's true counts are perfectly additive.
  cusim::CuptiCounters b1, b2, comp;
  const std::uint64_t big = 3ULL << 31;  // 3 * 2^31 > 2^32
  b1.add(cusim::CuptiEvent::kFlopCountDp, big);
  b2.add(cusim::CuptiEvent::kFlopCountDp, big);
  comp.add(cusim::CuptiEvent::kFlopCountDp, 2 * big);
  const auto records = analyzeCounterAdditivity(b1, b2, comp);
  bool checked = false;
  for (const auto& r : records) {
    if (r.event == "flop_count_dp") {
      EXPECT_GT(r.error, 0.1);
      checked = true;
    }
  }
  EXPECT_TRUE(checked);
}

TEST(CounterAdditivity, SelectAdditiveEventsFiltersByThreshold) {
  std::vector<EventAdditivity> records;
  records.push_back({"good", 1, 1, 2, 0.01});
  records.push_back({"bad", 1, 1, 4, 1.0});
  records.push_back({"ok", 1, 1, 2, 0.05});
  const auto selected = selectAdditiveEvents(records, 0.05);
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[0], "good");
  EXPECT_EQ(selected[1], "ok");
}

// --- energy additivity (Fig 6 machinery) ---

TEST(EnergyAdditivity, ScaledEnergyComputed) {
  const auto r = analyzeEnergyAdditivity(100.0, 180.0, 2);
  EXPECT_DOUBLE_EQ(r.additiveEnergy, 200.0);
  EXPECT_DOUBLE_EQ(r.error, 0.1);
}

TEST(EnergyAdditivity, PerfectScalingIsZeroError) {
  const auto r = analyzeEnergyAdditivity(50.0, 200.0, 4);
  EXPECT_DOUBLE_EQ(r.error, 0.0);
}

TEST(EnergyAdditivity, RejectsBadInput) {
  EXPECT_THROW((void)analyzeEnergyAdditivity(0.0, 1.0, 2),
               PreconditionError);
  EXPECT_THROW((void)analyzeEnergyAdditivity(1.0, 1.0, 0),
               PreconditionError);
}

// --- linear energy predictive models ---

TEST(EnergyModel, RecoversExactLinearModel) {
  EnergyPredictiveModel model({"flops", "bytes"});
  Rng rng(1);
  for (int i = 0; i < 40; ++i) {
    const double flops = rng.uniform(1e9, 1e10);
    const double bytes = rng.uniform(1e8, 1e9);
    model.addObservation({{flops, bytes}, 2e-9 * flops + 5e-9 * bytes});
  }
  const auto report = model.fit();
  ASSERT_EQ(report.coefficients.size(), 2u);
  EXPECT_NEAR(report.coefficients[0], 2e-9, 1e-12);
  EXPECT_NEAR(report.coefficients[1], 5e-9, 1e-12);
  EXPECT_NEAR(report.r2, 1.0, 1e-9);
  EXPECT_TRUE(report.dropped.empty());
}

TEST(EnergyModel, DropsNegativeCoefficientVariables) {
  // One variable anti-correlated with energy: a physical energy model
  // must not assign it a negative coefficient.
  Rng rng(2);
  EnergyPredictiveModel model2({"flops", "noise"});
  for (int i = 0; i < 40; ++i) {
    const double flops = rng.uniform(1e9, 1e10);
    const double noise = rng.uniform(0.0, 1e9);
    model2.addObservation(
        {{flops, noise}, 3e-9 * flops - 1e-10 * noise});
  }
  const auto report = model2.fit();
  EXPECT_EQ(report.dropped.size(), 1u);
  EXPECT_EQ(report.dropped[0], "noise");
  ASSERT_EQ(report.variables.size(), 1u);
  EXPECT_EQ(report.variables[0], "flops");
  EXPECT_GT(report.coefficients[0], 0.0);
}

TEST(EnergyModel, PredictsNewObservations) {
  EnergyPredictiveModel model({"x"});
  for (int i = 1; i <= 10; ++i) {
    model.addObservation(
        {{static_cast<double>(i)}, 4.0 * static_cast<double>(i)});
  }
  const auto report = model.fit();
  EXPECT_NEAR(EnergyPredictiveModel::predict(report, {100.0}), 400.0, 1e-6);
}

TEST(EnergyModel, CorrelationsReported) {
  EnergyPredictiveModel model({"x"});
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    const double x = rng.uniform(1.0, 10.0);
    model.addObservation({{x}, 2.0 * x});
  }
  const auto report = model.fit();
  ASSERT_EQ(report.correlations.size(), 1u);
  EXPECT_NEAR(report.correlations[0], 1.0, 1e-9);
}

TEST(EnergyModel, RequiresMoreObservationsThanVariables) {
  EnergyPredictiveModel model({"a", "b", "c"});
  model.addObservation({{1.0, 2.0, 3.0}, 1.0});
  model.addObservation({{2.0, 1.0, 5.0}, 2.0});
  EXPECT_THROW((void)model.fit(), PreconditionError);
}

TEST(EnergyModel, RejectsRaggedObservations) {
  EnergyPredictiveModel model({"a", "b"});
  EXPECT_THROW(model.addObservation({{1.0}, 1.0}), PreconditionError);
}

TEST(EnergyModel, RejectsNegativeEnergy) {
  EnergyPredictiveModel model({"a"});
  EXPECT_THROW(model.addObservation({{1.0}, -1.0}), PreconditionError);
}

}  // namespace
}  // namespace ep::model
