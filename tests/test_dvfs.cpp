// Tests for epdvfs: P-state tables, the DVFS processor response and
// the system-level bi-objective baselines.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "dvfs/optimize.hpp"
#include "dvfs/processor.hpp"
#include "dvfs/pstate.hpp"
#include "hw/spec.hpp"
#include "pareto/front.hpp"

namespace ep::dvfs {
namespace {

DvfsProcessor haswellNode() {
  return DvfsProcessor::fromCpuSpec(hw::haswellE52670v3());
}

// --- P-states ---

TEST(PStates, HaswellLadderIsWellFormed) {
  const PStateTable t = haswellPStates();
  EXPECT_GE(t.size(), 10u);
  EXPECT_DOUBLE_EQ(t.lowest().freqMHz, 1200.0);
  EXPECT_DOUBLE_EQ(t.highest().freqMHz, 3100.0);
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_GT(t[i].freqMHz, t[i - 1].freqMHz);
    EXPECT_GE(t[i].voltage, t[i - 1].voltage);
  }
}

TEST(PStates, RejectsMalformedTables) {
  EXPECT_THROW(PStateTable({}), PreconditionError);
  EXPECT_THROW(PStateTable({{2000.0, 1.0}, {1000.0, 1.0}}),
               PreconditionError);
  EXPECT_THROW(PStateTable({{1000.0, 1.0}, {2000.0, 0.9}}),
               PreconditionError);
}

// --- processor response ---

TEST(Processor, ComputeBoundTimeScalesInverselyWithFrequency) {
  const DvfsProcessor p = haswellNode();
  const Workload w{1000.0, 0.0};  // fully compute bound
  const auto lo = p.run(w, p.table().lowest());
  const auto hi = p.run(w, p.table().highest());
  EXPECT_NEAR(lo.time.value() / hi.time.value(),
              p.table().highest().freqMHz / p.table().lowest().freqMHz,
              1e-9);
}

TEST(Processor, MemoryBoundTimeInsensitiveToFrequency) {
  const DvfsProcessor p = haswellNode();
  const Workload w{1000.0, 0.95};  // almost fully memory bound
  const auto lo = p.run(w, p.table().lowest());
  const auto hi = p.run(w, p.table().highest());
  // A 2.6x clock difference buys only a few percent.
  EXPECT_LT(lo.time.value() / hi.time.value(), 1.15);
}

TEST(Processor, PowerGrowsSuperlinearlyWithFrequency) {
  const DvfsProcessor p = haswellNode();
  const Workload w{1000.0, 0.0};
  const auto lo = p.run(w, p.table().lowest());
  const auto hi = p.run(w, p.table().highest());
  const double fRatio =
      p.table().highest().freqMHz / p.table().lowest().freqMHz;
  EXPECT_GT(hi.dynamicPower.value() / lo.dynamicPower.value(), fRatio);
}

TEST(Processor, MemoryBoundWorkloadSavesEnergyAtLowFrequency) {
  // The classic DVFS result: down-clocking a memory-bound code costs
  // little time but saves real energy.
  const DvfsProcessor p = haswellNode();
  const Workload w{1000.0, 0.9};
  const auto lo = p.run(w, p.table().lowest());
  const auto hi = p.run(w, p.table().highest());
  EXPECT_LT(lo.dynamicEnergy.value(), hi.dynamicEnergy.value());
}

TEST(Processor, RejectsBadWorkloads) {
  const DvfsProcessor p = haswellNode();
  EXPECT_THROW((void)p.run({0.0, 0.0}, p.table().lowest()),
               PreconditionError);
  EXPECT_THROW((void)p.run({1.0, 1.5}, p.table().lowest()),
               PreconditionError);
}

// --- baselines ---

TEST(Optimize, DeadlineSelectsCheapestFeasibleState) {
  const DvfsProcessor p = haswellNode();
  const Workload w{5000.0, 0.3};
  const auto fastest = p.run(w, p.table().highest());
  // Deadline 30% above the fastest time: a slower, cheaper state fits.
  const auto r = minimizeEnergyUnderDeadline(
      p, w, Seconds{1.3 * fastest.time.value()});
  ASSERT_TRUE(r.has_value());
  EXPECT_LE(r->time.value(), 1.3 * fastest.time.value());
  EXPECT_LT(r->dynamicEnergy.value(), fastest.dynamicEnergy.value());
  EXPECT_LT(r->state.freqMHz, p.table().highest().freqMHz);
}

TEST(Optimize, ImpossibleDeadlineReturnsNullopt) {
  const DvfsProcessor p = haswellNode();
  const Workload w{5000.0, 0.3};
  const auto fastest = p.run(w, p.table().highest());
  EXPECT_FALSE(minimizeEnergyUnderDeadline(
                   p, w, Seconds{0.5 * fastest.time.value()})
                   .has_value());
}

TEST(Optimize, DvfsFrontIsValidAndMultiPoint) {
  const DvfsProcessor p = haswellNode();
  const Workload w{5000.0, 0.5};
  const auto pts = dvfsPoints(p, w);
  EXPECT_EQ(pts.size(), p.table().size());
  const auto front = dvfsParetoFront(p, w);
  EXPECT_GE(front.size(), 2u);  // frequency IS a real trade-off knob
  EXPECT_TRUE(pareto::isValidFront(front, pts));
}

TEST(Optimize, ComputeBoundFrontDegenerates) {
  // Fully compute-bound: E ~ V^2 work, still decreasing toward low f,
  // so the front spans states; but the TIME ordering must follow
  // frequency exactly.
  const DvfsProcessor p = haswellNode();
  const auto pts = dvfsPoints(p, {5000.0, 0.0});
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LT(pts[i].time, pts[i - 1].time);  // higher f = faster
  }
}

}  // namespace
}  // namespace ep::dvfs
