// Unit and property tests for eppareto: dominance, fronts,
// non-dominated sorting, the precision-aware front, and trade-off
// analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "pareto/front.hpp"
#include "pareto/point.hpp"
#include "pareto/streaming_front.hpp"
#include "pareto/tradeoff.hpp"

namespace ep::pareto {
namespace {

BiPoint mk(double t, double e, std::uint64_t id = 0) {
  BiPoint p;
  p.time = Seconds{t};
  p.energy = Joules{e};
  p.configId = id;
  return p;
}

// --- dominance ---

TEST(Dominance, StrictlyBetterInBothDominates) {
  EXPECT_TRUE(dominates(mk(1.0, 1.0), mk(2.0, 2.0)));
}

TEST(Dominance, BetterInOneEqualInOtherDominates) {
  EXPECT_TRUE(dominates(mk(1.0, 2.0), mk(2.0, 2.0)));
  EXPECT_TRUE(dominates(mk(2.0, 1.0), mk(2.0, 2.0)));
}

TEST(Dominance, EqualPointsDoNotDominate) {
  EXPECT_FALSE(dominates(mk(1.0, 1.0), mk(1.0, 1.0)));
}

TEST(Dominance, TradeoffPointsDoNotDominate) {
  EXPECT_FALSE(dominates(mk(1.0, 3.0), mk(3.0, 1.0)));
  EXPECT_FALSE(dominates(mk(3.0, 1.0), mk(1.0, 3.0)));
}

TEST(Dominance, IsAsymmetric) {
  const BiPoint a = mk(1.0, 1.0);
  const BiPoint b = mk(2.0, 2.0);
  EXPECT_TRUE(dominates(a, b));
  EXPECT_FALSE(dominates(b, a));
}

// --- paretoFront ---

TEST(Front, SinglePoint) {
  const auto f = paretoFront({mk(1.0, 1.0)});
  ASSERT_EQ(f.size(), 1u);
}

TEST(Front, ChainOfDominatedPointsCollapses) {
  const auto f = paretoFront({mk(1, 1), mk(2, 2), mk(3, 3), mk(4, 4)});
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].time.value(), 1.0);
}

TEST(Front, AntiChainAllSurvive) {
  const auto f = paretoFront({mk(1, 4), mk(2, 3), mk(3, 2), mk(4, 1)});
  EXPECT_EQ(f.size(), 4u);
}

TEST(Front, SortedByAscendingTime) {
  const auto f = paretoFront({mk(4, 1), mk(1, 4), mk(3, 2), mk(2, 3)});
  ASSERT_EQ(f.size(), 4u);
  for (std::size_t i = 1; i < f.size(); ++i) {
    EXPECT_LT(f[i - 1].time, f[i].time);
  }
}

TEST(Front, MixedCase) {
  // (2,2) dominates (3,3); front is {(1,4), (2,2), (5,1)}.
  const auto f = paretoFront({mk(1, 4), mk(3, 3), mk(2, 2), mk(5, 1)});
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0].energy.value(), 4.0);
  EXPECT_EQ(f[1].energy.value(), 2.0);
  EXPECT_EQ(f[2].energy.value(), 1.0);
}

TEST(Front, DuplicateObjectivePointsAllKept) {
  const auto f = paretoFront({mk(1, 1, 0), mk(1, 1, 1), mk(2, 2, 2)});
  EXPECT_EQ(f.size(), 2u);  // both copies of (1,1); (2,2) dominated
}

TEST(Front, EmptyInputGivesEmptyFront) {
  const auto f = paretoFront({});
  EXPECT_TRUE(f.empty());
}

// Property: front validity on random clouds.
TEST(FrontProperty, RandomCloudsProduceValidFronts) {
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<BiPoint> pts;
    const int n = 2 + static_cast<int>(rng.uniformInt(0, 60));
    for (int i = 0; i < n; ++i) {
      pts.push_back(mk(rng.uniform(1.0, 10.0), rng.uniform(1.0, 10.0),
                       static_cast<std::uint64_t>(i)));
    }
    const auto f = paretoFront(pts);
    EXPECT_FALSE(f.empty());
    EXPECT_TRUE(isValidFront(f, pts));
  }
}

// --- non-dominated sorting ---

TEST(NonDominatedSort, PartitionsAllPoints) {
  Rng rng(78);
  std::vector<BiPoint> pts;
  for (int i = 0; i < 40; ++i) {
    pts.push_back(mk(rng.uniform(1.0, 10.0), rng.uniform(1.0, 10.0),
                     static_cast<std::uint64_t>(i)));
  }
  const auto fronts = nonDominatedSort(pts);
  std::size_t total = 0;
  for (const auto& f : fronts) total += f.size();
  EXPECT_EQ(total, pts.size());
}

TEST(NonDominatedSort, LaterFrontsDominatedByEarlier) {
  const auto fronts =
      nonDominatedSort({mk(1, 1, 0), mk(2, 2, 1), mk(3, 3, 2)});
  ASSERT_EQ(fronts.size(), 3u);
  EXPECT_EQ(fronts[0][0].configId, 0u);
  EXPECT_EQ(fronts[1][0].configId, 1u);
  EXPECT_EQ(fronts[2][0].configId, 2u);
}

TEST(NonDominatedSort, AntiChainIsSingleFront) {
  const auto fronts = nonDominatedSort({mk(1, 3), mk(2, 2), mk(3, 1)});
  EXPECT_EQ(fronts.size(), 1u);
}

TEST(LocalFront, LevelOneEqualsGlobalFront) {
  const std::vector<BiPoint> pts{mk(1, 1, 0), mk(2, 2, 1), mk(3, 1.5, 2)};
  EXPECT_EQ(localFront(pts, 1).size(), paretoFront(pts).size());
}

TEST(LocalFront, MissingLevelIsEmpty) {
  const std::vector<BiPoint> pts{mk(1, 3), mk(2, 2), mk(3, 1)};
  EXPECT_TRUE(localFront(pts, 2).empty());
}

TEST(LocalFront, LevelZeroThrows) {
  const std::vector<BiPoint> pts{mk(1, 1)};
  EXPECT_THROW((void)localFront(pts, 0), PreconditionError);
}

// The pre-optimization quadratic peel (repeated paretoFront + erase),
// kept here as the reference oracle for the O(n log n) sweep.
std::vector<std::vector<BiPoint>> referenceNonDominatedSort(
    std::vector<BiPoint> points) {
  std::vector<std::vector<BiPoint>> fronts;
  while (!points.empty()) {
    std::vector<BiPoint> front = paretoFront(points);
    auto inFront = [&front](const BiPoint& p) {
      return std::any_of(front.begin(), front.end(), [&p](const BiPoint& f) {
        return f.configId == p.configId && f.time == p.time &&
               f.energy == p.energy;
      });
    };
    points.erase(std::remove_if(points.begin(), points.end(), inFront),
                 points.end());
    fronts.push_back(std::move(front));
  }
  return fronts;
}

void expectSameFronts(const std::vector<std::vector<BiPoint>>& got,
                      const std::vector<std::vector<BiPoint>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t f = 0; f < got.size(); ++f) {
    ASSERT_EQ(got[f].size(), want[f].size()) << "front " << f;
    for (std::size_t i = 0; i < got[f].size(); ++i) {
      EXPECT_EQ(got[f][i].configId, want[f][i].configId)
          << "front " << f << " index " << i;
      EXPECT_EQ(got[f][i].time, want[f][i].time);
      EXPECT_EQ(got[f][i].energy, want[f][i].energy);
    }
  }
}

TEST(NonDominatedSort, MatchesReferenceOnRandomClouds) {
  Rng rng(20260807);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<BiPoint> pts;
    const int n = 1 + static_cast<int>(rng.uniformInt(0, 120));
    for (int i = 0; i < n; ++i) {
      pts.push_back(mk(rng.uniform(1.0, 10.0), rng.uniform(1.0, 10.0),
                       static_cast<std::uint64_t>(i)));
    }
    const auto fronts = nonDominatedSort(pts);
    expectSameFronts(fronts, referenceNonDominatedSort(pts));
    for (std::size_t f = 0; f < fronts.size(); ++f) {
      // Validity per level: mutually non-dominating, and nothing in
      // this or any deeper front dominates a member.
      std::vector<BiPoint> remaining;
      for (std::size_t g = f; g < fronts.size(); ++g) {
        remaining.insert(remaining.end(), fronts[g].begin(), fronts[g].end());
      }
      EXPECT_TRUE(isValidFront(fronts[f], remaining)) << "front " << f;
    }
  }
}

TEST(NonDominatedSort, MatchesReferenceWithDuplicateObjectives) {
  // Coarse grids force ties in one or both objectives, including exact
  // duplicate-objective points (mutually non-dominating — must land on
  // the SAME front, in configId order).
  Rng rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<BiPoint> pts;
    const int n = 1 + static_cast<int>(rng.uniformInt(0, 80));
    for (int i = 0; i < n; ++i) {
      pts.push_back(mk(static_cast<double>(rng.uniformInt(1, 4)),
                       static_cast<double>(rng.uniformInt(1, 4)),
                       static_cast<std::uint64_t>(i)));
    }
    const auto fronts = nonDominatedSort(pts);
    expectSameFronts(fronts, referenceNonDominatedSort(pts));
  }
}

TEST(NonDominatedSort, ExactDuplicatesShareAFront) {
  const auto fronts = nonDominatedSort(
      {mk(1, 1, 0), mk(1, 1, 1), mk(2, 2, 2), mk(2, 2, 3)});
  ASSERT_EQ(fronts.size(), 2u);
  EXPECT_EQ(fronts[0].size(), 2u);
  EXPECT_EQ(fronts[1].size(), 2u);
}

TEST(LocalFront, EveryLevelMatchesFullSort) {
  Rng rng(4242);
  std::vector<BiPoint> pts;
  for (int i = 0; i < 90; ++i) {
    pts.push_back(mk(static_cast<double>(rng.uniformInt(1, 9)),
                     static_cast<double>(rng.uniformInt(1, 9)),
                     static_cast<std::uint64_t>(i)));
  }
  const auto fronts = nonDominatedSort(pts);
  for (std::size_t k = 1; k <= fronts.size() + 2; ++k) {
    const auto lf = localFront(pts, k);
    if (k > fronts.size()) {
      EXPECT_TRUE(lf.empty()) << "level " << k;
      continue;
    }
    ASSERT_EQ(lf.size(), fronts[k - 1].size()) << "level " << k;
    for (std::size_t i = 0; i < lf.size(); ++i) {
      EXPECT_EQ(lf[i].configId, fronts[k - 1][i].configId);
    }
  }
}

// --- streaming front ---

void expectBitwiseEqual(const std::vector<BiPoint>& got,
                        const std::vector<BiPoint>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].time, want[i].time) << "index " << i;
    EXPECT_EQ(got[i].energy, want[i].energy) << "index " << i;
    EXPECT_EQ(got[i].configId, want[i].configId) << "index " << i;
  }
}

TEST(StreamingFront, BasicInsertSemantics) {
  StreamingFront f;
  EXPECT_TRUE(f.empty());
  EXPECT_TRUE(f.insert(mk(2, 2, 0)));
  EXPECT_FALSE(f.insert(mk(3, 3, 1)));  // dominated: rejected
  EXPECT_TRUE(f.insert(mk(1, 4, 2)));   // tradeoff: joins
  EXPECT_TRUE(f.insert(mk(1, 1, 3)));   // dominates both: evicts (2,2)
  const auto snap = f.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].configId, 3u);
}

TEST(StreamingFront, KeepsDuplicateObjectivePoints) {
  // paretoFront keeps every copy of a duplicate-objective point; the
  // streaming front must agree bitwise.
  StreamingFront f;
  EXPECT_TRUE(f.insert(mk(1, 1, 0)));
  EXPECT_TRUE(f.insert(mk(1, 1, 1)));
  EXPECT_FALSE(f.insert(mk(2, 2, 2)));
  expectBitwiseEqual(f.snapshot(),
                     paretoFront({mk(1, 1, 0), mk(1, 1, 1), mk(2, 2, 2)}));
}

// Satellite property: 120 random clouds (smooth and coarse-grid, the
// latter forcing single-objective ties and exact duplicates); after
// every prefix the streaming front is bitwise-identical to the batch
// recompute, and insert()'s return value tells whether the point
// joined the front.
TEST(StreamingFrontProperty, MatchesBatchFrontOnRandomClouds) {
  Rng rng(20260809);
  for (int trial = 0; trial < 120; ++trial) {
    const bool coarse = trial % 2 == 1;
    const int n = 1 + static_cast<int>(rng.uniformInt(0, 90));
    std::vector<BiPoint> pts;
    for (int i = 0; i < n; ++i) {
      if (coarse) {
        pts.push_back(mk(static_cast<double>(rng.uniformInt(1, 5)),
                         static_cast<double>(rng.uniformInt(1, 5)),
                         static_cast<std::uint64_t>(i)));
      } else {
        pts.push_back(mk(rng.uniform(1.0, 10.0), rng.uniform(1.0, 10.0),
                         static_cast<std::uint64_t>(i)));
      }
    }
    StreamingFront streaming;
    std::vector<BiPoint> prefix;
    for (const auto& p : pts) {
      const bool joined = streaming.insert(p);
      prefix.push_back(p);
      const auto batch = paretoFront(prefix);
      const bool inBatch = std::any_of(
          batch.begin(), batch.end(), [&p](const BiPoint& b) {
            return b.configId == p.configId && b.time == p.time &&
                   b.energy == p.energy;
          });
      EXPECT_EQ(joined, inBatch) << "trial " << trial;
      expectBitwiseEqual(streaming.snapshot(), batch);
      // The first level of the full sort is the same front.
      if (prefix.size() == pts.size()) {
        expectBitwiseEqual(streaming.snapshot(),
                           nonDominatedSort(prefix)[0]);
      }
    }
    streaming.clear();
    EXPECT_TRUE(streaming.empty());
  }
}

// --- trade-off ---

TEST(Tradeoff, PerfAndEnergyOptimaIdentified) {
  const std::vector<BiPoint> pts{mk(1.0, 10.0, 0), mk(2.0, 4.0, 1),
                                 mk(3.0, 6.0, 2)};
  const auto tr = analyzeTradeoff(pts);
  EXPECT_EQ(tr.performanceOptimal.configId, 0u);
  EXPECT_EQ(tr.energyOptimal.configId, 1u);
  EXPECT_DOUBLE_EQ(tr.maxEnergySavings, 0.6);           // (10-4)/10
  EXPECT_DOUBLE_EQ(tr.performanceDegradation, 1.0);     // (2-1)/1
}

TEST(Tradeoff, SinglePointHasZeroSavings) {
  const auto tr = analyzeTradeoff({mk(1.0, 1.0)});
  EXPECT_DOUBLE_EQ(tr.maxEnergySavings, 0.0);
  EXPECT_DOUBLE_EQ(tr.performanceDegradation, 0.0);
}

TEST(Tradeoff, SavingsUnderBudgetRespectsBudget) {
  const std::vector<BiPoint> pts{mk(1.0, 10.0, 0), mk(1.05, 8.0, 1),
                                 mk(2.0, 2.0, 2)};
  // 10 % budget admits only the first two points.
  const auto tr = savingsUnderBudget(pts, 0.10);
  ASSERT_TRUE(tr.has_value());
  EXPECT_EQ(tr->energyOptimal.configId, 1u);
  EXPECT_DOUBLE_EQ(tr->maxEnergySavings, 0.2);
  // 200 % budget admits the cheap slow point.
  const auto tr2 = savingsUnderBudget(pts, 2.0);
  ASSERT_TRUE(tr2.has_value());
  EXPECT_EQ(tr2->energyOptimal.configId, 2u);
}

TEST(Tradeoff, SavingsUnderBudgetNulloptWhenNoImprovement) {
  const std::vector<BiPoint> pts{mk(1.0, 1.0, 0), mk(1.05, 2.0, 1)};
  EXPECT_FALSE(savingsUnderBudget(pts, 0.10).has_value());
}

TEST(Tradeoff, ZeroBudgetOnlyAdmitsPerfOptimum) {
  const std::vector<BiPoint> pts{mk(1.0, 5.0, 0), mk(1.5, 1.0, 1)};
  EXPECT_FALSE(savingsUnderBudget(pts, 0.0).has_value());
}

TEST(Knee, MiddleOfSymmetricFrontWins) {
  const std::vector<BiPoint> front{mk(1, 5, 0), mk(2.5, 2.5, 1),
                                   mk(5, 1, 2)};
  EXPECT_EQ(kneePoint(front).configId, 1u);
}

TEST(Knee, SinglePointFront) {
  EXPECT_EQ(kneePoint({mk(1, 1, 7)}).configId, 7u);
}

TEST(Knee, EmptyFrontThrows) {
  EXPECT_THROW((void)kneePoint({}), PreconditionError);
}

// Property: for random clouds, the budgeted recommendation never
// violates the budget and never exceeds the unconstrained max savings.
TEST(TradeoffProperty, BudgetedSavingsBounded) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<BiPoint> pts;
    for (int i = 0; i < 30; ++i) {
      pts.push_back(mk(rng.uniform(1.0, 10.0), rng.uniform(1.0, 10.0),
                       static_cast<std::uint64_t>(i)));
    }
    const double budget = rng.uniform(0.0, 1.0);
    const auto unconstrained = analyzeTradeoff(pts);
    const auto budgeted = savingsUnderBudget(pts, budget);
    if (budgeted) {
      EXPECT_LE(budgeted->performanceDegradation, budget + 1e-12);
      EXPECT_LE(budgeted->maxEnergySavings,
                unconstrained.maxEnergySavings + 1e-12);
      EXPECT_GT(budgeted->maxEnergySavings, 0.0);
    }
  }
}

// --- precision-aware front ---

TEST(PrecisionFront, ZeroEpsilonIsTheExactFront) {
  const std::vector<BiPoint> pts{mk(1, 4, 0), mk(3, 3, 1), mk(2, 2, 2),
                                 mk(5, 1, 3)};
  const auto exact = paretoFront(pts);
  const auto precise = precisionFront(pts, 0.0);
  ASSERT_EQ(precise.size(), exact.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(precise[i].configId, exact[i].configId);
  }
}

TEST(PrecisionFront, DropsAdvantagesBelowMeasurementPrecision) {
  // The K40c near-tie shape: the second point is 8 % slower for a 0.4 %
  // energy win — real to exact dominance, meaningless to an instrument
  // with a 2.5 % CI.  The front collapses to the fast point.
  const std::vector<BiPoint> pts{mk(87.57, 5524.2, 0), mk(94.61, 5500.4, 1),
                                 mk(95.0, 6000.0, 2)};
  const auto exact = paretoFront(pts);
  ASSERT_EQ(exact.size(), 2u);
  const auto precise = precisionFront(pts, 0.025);
  ASSERT_EQ(precise.size(), 1u);
  EXPECT_EQ(precise[0].configId, 0u);
}

TEST(PrecisionFront, KeepsTradeoffsBeyondPrecision) {
  // 10 % slower for 30 % less energy: both objectives move beyond
  // epsilon in opposite directions, so both points are meaningful.
  const std::vector<BiPoint> pts{mk(1.0, 10.0, 0), mk(1.1, 7.0, 1)};
  EXPECT_EQ(precisionFront(pts, 0.025).size(), 2u);
  // A large-enough epsilon erases the time advantage and keeps only the
  // energy-better point.
  const auto coarse = precisionFront(pts, 0.15);
  ASSERT_EQ(coarse.size(), 1u);
  EXPECT_EQ(coarse[0].configId, 1u);
}

TEST(PrecisionFront, IsASubsetOfTheExactFront) {
  Rng rng(2027);
  std::vector<BiPoint> pts;
  for (int i = 0; i < 300; ++i) {
    pts.push_back(mk(rng.uniform(1.0, 10.0), rng.uniform(1.0, 10.0),
                     static_cast<std::uint64_t>(i)));
  }
  const auto exact = paretoFront(pts);
  for (double eps : {0.0, 0.01, 0.05, 0.25}) {
    const auto precise = precisionFront(pts, eps);
    EXPECT_LE(precise.size(), exact.size());
    for (const auto& p : precise) {
      EXPECT_TRUE(std::any_of(exact.begin(), exact.end(), [&](const BiPoint& q) {
        return q.configId == p.configId;
      }));
    }
  }
}

TEST(PrecisionFront, RejectsNegativeEpsilon) {
  EXPECT_THROW((void)precisionFront({mk(1, 1)}, -0.01), PreconditionError);
}

}  // namespace
}  // namespace ep::pareto
