// Unit tests for epstats: descriptive statistics, distributions, the
// paper's measurement protocol, the chi-squared normality test, and
// regression.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "stats/chisq.hpp"
#include "stats/descriptive.hpp"
#include "stats/distributions.hpp"
#include "stats/regression.hpp"
#include "stats/ttest.hpp"

namespace ep::stats {
namespace {

// --- descriptive ---

TEST(Descriptive, MeanOfEmptyThrows) {
  const std::vector<double> empty;
  EXPECT_THROW((void)mean(empty), PreconditionError);
}

TEST(Descriptive, MedianOddAndEven) {
  const std::vector<double> odd{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(median(odd), 2.0);
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Descriptive, QuantileBounds) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
}

// --- distributions ---

TEST(Distributions, NormalCdfKnownValues) {
  EXPECT_NEAR(normalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normalCdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(normalCdf(-1.959963985), 0.025, 1e-6);
}

TEST(Distributions, StudentTCdfSymmetry) {
  for (double dof : {1.0, 5.0, 30.0}) {
    for (double t : {0.5, 1.0, 2.5}) {
      EXPECT_NEAR(studentTCdf(t, dof) + studentTCdf(-t, dof), 1.0, 1e-10);
    }
  }
}

TEST(Distributions, StudentTCriticalKnownValues) {
  // Classic t-table values.
  EXPECT_NEAR(studentTCritical(0.95, 4), 2.776, 1e-3);
  EXPECT_NEAR(studentTCritical(0.95, 9), 2.262, 1e-3);
  EXPECT_NEAR(studentTCritical(0.95, 29), 2.045, 1e-3);
  EXPECT_NEAR(studentTCritical(0.99, 9), 3.250, 1e-3);
}

TEST(Distributions, StudentTApproachesNormalForLargeDof) {
  EXPECT_NEAR(studentTCritical(0.95, 10000), 1.960, 2e-3);
}

// The bisection studentTCritical runs, written out over the public CDF:
// the bits its memo must keep.
double bisectedTCritical(double confidence, double dof) {
  const double target = 0.5 * (1.0 + confidence);
  double lo = 0.0;
  double hi = 1.0;
  while (studentTCdf(hi, dof) < target) hi *= 2.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    (studentTCdf(mid, dof) < target ? lo : hi) = mid;
    if (hi - lo < 1e-12 * (1.0 + hi)) break;
  }
  return 0.5 * (lo + hi);
}

std::uint64_t bitsOf(double x) { return std::bit_cast<std::uint64_t>(x); }

// Runs before the sweep below, which fills every slot: no other case in
// this file asks for dof 1000, so its slot is cold here.
TEST(Distributions, StudentTCriticalMemoFillsRaceFreeFromManyThreads) {
  constexpr double kColdDof = 1000.0;
  constexpr int kThreads = 8;
  std::vector<std::uint64_t> got(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      got[i] = bitsOf(studentTCritical(0.95, kColdDof));
    });
  }
  for (std::thread& t : threads) t.join();
  const std::uint64_t want = bitsOf(bisectedTCritical(0.95, kColdDof));
  for (int i = 0; i < kThreads; ++i) EXPECT_EQ(got[i], want) << "thread " << i;
  EXPECT_EQ(bitsOf(studentTCritical(0.95, kColdDof)), want);
}

TEST(Distributions, StudentTCriticalMemoKeepsTheBisectionsBits) {
  // Every memoized dof, and past the memo: a fractional dof, dof 1024
  // and up, and another confidence.
  std::vector<std::pair<double, double>> cases;
  for (int dof = 1; dof < 1024; ++dof) cases.emplace_back(0.95, dof);
  for (const double dof : {4.5, 1024.0, 10000.0}) cases.emplace_back(0.95, dof);
  cases.emplace_back(0.99, 4.0);
  for (const auto& [confidence, dof] : cases) {
    const std::uint64_t want = bitsOf(bisectedTCritical(confidence, dof));
    const std::uint64_t first = bitsOf(studentTCritical(confidence, dof));
    const std::uint64_t repeated = bitsOf(studentTCritical(confidence, dof));
    ASSERT_EQ(first, want) << confidence << ", dof " << dof;
    ASSERT_EQ(repeated, want) << confidence << ", dof " << dof;
  }
}

TEST(Distributions, ChiSquaredCdfKnownValues) {
  // chi2 with k dof has mean k; CDF at 0 is 0.
  EXPECT_DOUBLE_EQ(chiSquaredCdf(0.0, 5.0), 0.0);
  EXPECT_NEAR(chiSquaredCdf(3.841, 1.0), 0.95, 1e-3);
  EXPECT_NEAR(chiSquaredCdf(11.070, 5.0), 0.95, 1e-3);
}

TEST(Distributions, IncompleteBetaEdges) {
  EXPECT_DOUBLE_EQ(regularizedIncompleteBeta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(regularizedIncompleteBeta(2.0, 3.0, 1.0), 1.0);
  // I_x(1,1) = x (uniform distribution).
  EXPECT_NEAR(regularizedIncompleteBeta(1.0, 1.0, 0.37), 0.37, 1e-10);
}

TEST(Distributions, IncompleteGammaEdges) {
  EXPECT_DOUBLE_EQ(regularizedLowerGamma(2.0, 0.0), 0.0);
  // P(1, x) = 1 - exp(-x).
  EXPECT_NEAR(regularizedLowerGamma(1.0, 2.0), 1.0 - std::exp(-2.0), 1e-10);
}

TEST(Distributions, InvalidArgumentsThrow) {
  EXPECT_THROW((void)studentTCritical(1.5, 5.0), PreconditionError);
  EXPECT_THROW((void)studentTCritical(0.95, 0.0), PreconditionError);
  EXPECT_THROW((void)regularizedIncompleteBeta(-1.0, 1.0, 0.5),
               PreconditionError);
  EXPECT_THROW((void)chiSquaredCdf(1.0, -2.0), PreconditionError);
}

// --- confidence intervals & protocol ---

TEST(ConfidenceInterval, KnownHandComputedCase) {
  // n=5, mean 10, sd 1 => half width = 2.776 * 1 / sqrt(5).
  const std::vector<double> xs{9.0, 9.5, 10.0, 10.5, 11.0};
  const auto ci = meanConfidenceInterval(xs, 0.95);
  EXPECT_DOUBLE_EQ(ci.mean, 10.0);
  const double sd = sampleStddev(xs);
  EXPECT_NEAR(ci.halfWidth, 2.776 * sd / std::sqrt(5.0), 1e-3);
  EXPECT_LT(ci.lower(), ci.mean);
  EXPECT_GT(ci.upper(), ci.mean);
}

TEST(MeasurementProtocol, ConvergesOnLowNoiseObservable) {
  Rng rng(5);
  MeasurementOptions opts;
  const MeasurementProtocol protocol(opts);
  const auto res = protocol.run([&] { return rng.normal(100.0, 0.5); });
  EXPECT_TRUE(res.converged);
  EXPECT_GE(res.repetitions, opts.minRepetitions);
  EXPECT_NEAR(res.mean, 100.0, 1.0);
  EXPECT_LE(res.interval.precision(), opts.precision);
}

TEST(MeasurementProtocol, PaperParametersAreDefault) {
  const MeasurementProtocol protocol;
  EXPECT_DOUBLE_EQ(MeasurementProtocol::kConfidence, 0.95);  // paper: 95 % CI
  EXPECT_DOUBLE_EQ(protocol.options().precision, 0.025);   // paper: 2.5 %
}

TEST(MeasurementProtocol, ThrowsWhenNoiseTooLargeForBudget) {
  Rng rng(5);
  MeasurementOptions opts;
  opts.maxRepetitions = 6;
  const MeasurementProtocol protocol(opts);
  EXPECT_THROW(
      (void)protocol.run([&] { return rng.normal(10.0, 50.0); }),
      ConvergenceError);
}

TEST(MeasurementProtocol, BestEffortReturnsNonConverged) {
  Rng rng(5);
  MeasurementOptions opts;
  opts.maxRepetitions = 6;
  const MeasurementProtocol protocol(opts);
  const auto res =
      protocol.runBestEffort([&] { return rng.normal(10.0, 50.0); });
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.repetitions, opts.maxRepetitions);
}

TEST(MeasurementProtocol, NoiseFreeObservableConvergesAtMinReps) {
  const MeasurementProtocol protocol;
  const auto res = protocol.run([] { return 42.0; });
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.repetitions, protocol.options().minRepetitions);
  EXPECT_DOUBLE_EQ(res.mean, 42.0);
}

TEST(MeasurementProtocol, RunsNormalityCheckWhenEnoughSamples) {
  Rng rng(17);
  MeasurementOptions opts;
  opts.precision = 0.001;  // force many repetitions
  opts.maxRepetitions = 200;
  const MeasurementProtocol protocol(opts);
  const auto res =
      protocol.runBestEffort([&] { return rng.normal(50.0, 2.0); });
  EXPECT_GE(res.samples.size(), 8u);
  EXPECT_TRUE(res.normalityChecked);
  // Gaussian data should (almost always, with this seed) not be rejected.
  EXPECT_FALSE(res.normality.rejected);
}

TEST(MeasurementProtocol, RejectsBadOptions) {
  MeasurementOptions opts;
  opts.minRepetitions = 1;
  EXPECT_THROW(MeasurementProtocol{opts}, PreconditionError);
  opts.minRepetitions = 10;
  opts.maxRepetitions = 5;
  EXPECT_THROW(MeasurementProtocol{opts}, PreconditionError);
}

// --- chi-squared normality ---

TEST(ChiSquared, AcceptsGaussianSample) {
  Rng rng(23);
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(rng.normal(0.0, 1.0));
  const auto r = pearsonNormalityTest(xs, 0.05);
  EXPECT_FALSE(r.rejected);
  EXPECT_GT(r.pValue, 0.05);
}

TEST(ChiSquared, RejectsStronglyBimodalSample) {
  Rng rng(23);
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) {
    xs.push_back((i % 2 == 0 ? -5.0 : 5.0) + rng.normal(0.0, 0.1));
  }
  const auto r = pearsonNormalityTest(xs, 0.05);
  EXPECT_TRUE(r.rejected);
}

TEST(ChiSquared, SmallSampleIsInconclusiveNotRejected) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const auto r = pearsonNormalityTest(xs, 0.05);
  EXPECT_FALSE(r.rejected);
  EXPECT_EQ(r.dof, 0.0);
}

TEST(ChiSquared, DegenerateSampleNotRejected) {
  const std::vector<double> xs(20, 7.0);
  const auto r = pearsonNormalityTest(xs, 0.05);
  EXPECT_FALSE(r.rejected);
}

TEST(ChiSquared, GoodnessOfFitExactMatchHasZeroStatistic) {
  const std::vector<double> obs{10.0, 10.0, 10.0, 10.0};
  const std::vector<double> exp{10.0, 10.0, 10.0, 10.0};
  const auto r = pearsonGoodnessOfFit(obs, exp, 1, 0.05);
  EXPECT_DOUBLE_EQ(r.statistic, 0.0);
  EXPECT_FALSE(r.rejected);
}

TEST(ChiSquared, GoodnessOfFitValidatesInput) {
  const std::vector<double> obs{10.0, 10.0};
  const std::vector<double> expShort{10.0};
  EXPECT_THROW((void)pearsonGoodnessOfFit(obs, expShort, 1, 0.05),
               PreconditionError);
  const std::vector<double> expZero{10.0, 0.0};
  EXPECT_THROW((void)pearsonGoodnessOfFit(obs, expZero, 1, 0.05),
               PreconditionError);
}

// --- regression ---

TEST(Regression, ExactLineRecovered) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  std::vector<double> y;
  for (double xi : x) y.push_back(3.0 + 2.0 * xi);
  const auto f = fitLinear(x, y);
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.intercept, 3.0, 1e-12);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Regression, ProportionalFitThroughOrigin) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  const std::vector<double> y{2.0, 4.0, 6.0};
  const auto f = fitProportional(x, y);
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(f.intercept, 0.0);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Regression, ProportionalFitPenalizedByIntercept) {
  // Strongly affine data: proportional fit must have visibly worse r2.
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y{101.0, 102.0, 103.0, 104.0};
  const auto prop = fitProportional(x, y);
  const auto affine = fitLinear(x, y);
  EXPECT_GT(affine.r2, prop.r2);
  EXPECT_NEAR(affine.r2, 1.0, 1e-12);
}

TEST(Regression, MultiLinearRecoversPlane) {
  // y = 2 a + 3 b + 1.
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    const double a = rng.uniform(0.0, 10.0);
    const double b = rng.uniform(0.0, 10.0);
    rows.push_back({a, b});
    y.push_back(2.0 * a + 3.0 * b + 1.0);
  }
  const auto f = fitMultiLinear(rows, y, true);
  EXPECT_NEAR(f.coefficients[0], 2.0, 1e-9);
  EXPECT_NEAR(f.coefficients[1], 3.0, 1e-9);
  EXPECT_NEAR(f.intercept, 1.0, 1e-9);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Regression, MultiLinearThroughOrigin) {
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  Rng rng(10);
  for (int i = 0; i < 30; ++i) {
    const double a = rng.uniform(1.0, 10.0);
    rows.push_back({a});
    y.push_back(5.0 * a);
  }
  const auto f = fitMultiLinear(rows, y, false);
  EXPECT_NEAR(f.coefficients[0], 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(f.intercept, 0.0);
}

TEST(Regression, MultiLinearRejectsCollinear) {
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 1; i <= 10; ++i) {
    rows.push_back({static_cast<double>(i), static_cast<double>(2 * i)});
    y.push_back(i);
  }
  EXPECT_THROW((void)fitMultiLinear(rows, y, true), PreconditionError);
}

TEST(Regression, PredictValidatesWidth) {
  MultiLinearFit f;
  f.coefficients = {1.0, 2.0};
  const std::vector<double> tooShort{1.0};
  EXPECT_THROW((void)f.predict(tooShort), PreconditionError);
}

TEST(Regression, PearsonCorrelationExtremes) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> up{2.0, 4.0, 6.0, 8.0};
  std::vector<double> down{8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(pearsonCorrelation(x, up), 1.0, 1e-12);
  EXPECT_NEAR(pearsonCorrelation(x, down), -1.0, 1e-12);
}

TEST(Regression, ConstantSeriesCorrelationThrows) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  const std::vector<double> c{5.0, 5.0, 5.0};
  EXPECT_THROW((void)pearsonCorrelation(x, c), PreconditionError);
}

}  // namespace
}  // namespace ep::stats
