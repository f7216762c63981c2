// Tests for epapps: the functional Fig 5 kernel, the GPU matrix-
// multiplication application, the CPU DGEMM application and the 2D-FFT
// application, including the full measurement pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <exception>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "apps/cpu_dgemm_app.hpp"
#include "apps/fft2d_app.hpp"
#include "apps/gpu_matmul_app.hpp"
#include "apps/matmul_kernel.hpp"
#include "blas/dgemm.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/study.hpp"
#include "cudasim/executor.hpp"
#include "obs/metrics.hpp"
#include "pareto/point.hpp"
#include "pareto/tradeoff.hpp"

namespace ep::apps {
namespace {

std::vector<double> randomMatrix(std::size_t n, Rng& rng) {
  std::vector<double> m(n * n);
  for (auto& x : m) x = rng.uniform(-1.0, 1.0);
  return m;
}

// --- functional Fig 5 kernel ---

TEST(MatMulKernel, SingleProductMatchesNaive) {
  const std::size_t n = 16;
  Rng rng(1);
  const auto a = randomMatrix(n, rng);
  const auto b = randomMatrix(n, rng);
  std::vector<double> expected(n * n, 0.0);
  blas::dgemmNaive(n, 1.0, a, b, 0.0, expected);

  cusim::Device device(hw::nvidiaP100Pcie());
  cusim::Executor exec;
  std::vector<double> c(n * n, 0.0);
  runMatMulKernel(device, exec, {n, 4, 1, 1}, a, b, c);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], expected[i], 1e-9);
  }
}

TEST(MatMulKernel, BsNotDividingNHandledByPadding) {
  const std::size_t n = 13;  // prime
  Rng rng(2);
  const auto a = randomMatrix(n, rng);
  const auto b = randomMatrix(n, rng);
  std::vector<double> expected(n * n, 0.0);
  blas::dgemmNaive(n, 1.0, a, b, 0.0, expected);

  cusim::Device device(hw::nvidiaP100Pcie());
  cusim::Executor exec;
  for (std::size_t bs : {2u, 3u, 5u, 8u, 16u}) {
    std::vector<double> c(n * n, 0.0);
    runMatMulKernel(device, exec, {n, bs, 1, 1}, a, b, c);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_NEAR(c[i], expected[i], 1e-9) << "bs=" << bs;
    }
  }
}

TEST(MatMulKernel, GandRAccumulateProducts) {
  // G x R products accumulate: C = C0 + G*R * A*B.
  const std::size_t n = 8;
  Rng rng(3);
  const auto a = randomMatrix(n, rng);
  const auto b = randomMatrix(n, rng);
  std::vector<double> ab(n * n, 0.0);
  blas::dgemmNaive(n, 1.0, a, b, 0.0, ab);

  cusim::Device device(hw::nvidiaK40c());
  cusim::Executor exec;
  std::vector<double> c(n * n, 1.0);  // non-zero C0
  runMatMulKernel(device, exec, {n, 4, 3, 2}, a, b, c);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], 1.0 + 6.0 * ab[i], 1e-9);
  }
}

TEST(MatMulKernel, CountersMatchModelGroundTruth) {
  const std::size_t n = 32;
  Rng rng(4);
  const auto a = randomMatrix(n, rng);
  const auto b = randomMatrix(n, rng);
  cusim::Device device(hw::nvidiaP100Pcie());
  cusim::Executor exec;
  cusim::CuptiCounters counters;
  std::vector<double> c(n * n, 0.0);
  runMatMulKernel(device, exec, {n, 8, 2, 1}, a, b, c, &counters);
  // flops = products * 2 * n^3 (exact tiles here).
  EXPECT_EQ(counters.trueValue(cusim::CuptiEvent::kFlopCountDp),
            2ULL * 2 * 32 * 32 * 32);
  EXPECT_GT(counters.trueValue(cusim::CuptiEvent::kSharedLoadStore), 0u);
  EXPECT_GT(counters.trueValue(cusim::CuptiEvent::kDramBytes), 0u);
}

TEST(MatMulKernel, ParallelExecutorMatchesSequential) {
  const std::size_t n = 24;
  Rng rng(5);
  const auto a = randomMatrix(n, rng);
  const auto b = randomMatrix(n, rng);
  cusim::Device device(hw::nvidiaP100Pcie());
  std::vector<double> cSeq(n * n, 0.0), cPar(n * n, 0.0);
  cusim::Executor seq;
  runMatMulKernel(device, seq, {n, 5, 2, 2}, a, b, cSeq);
  ThreadPool pool(4);
  cusim::Executor par(&pool);
  runMatMulKernel(device, par, {n, 5, 2, 2}, a, b, cPar);
  EXPECT_EQ(cSeq, cPar);
}

// --- GPU application ---

GpuMatMulApp makeApp(bool meter = false) {
  GpuMatMulOptions opts;
  opts.useMeter = meter;
  return GpuMatMulApp(hw::GpuModel(hw::nvidiaP100Pcie()), opts);
}

TEST(GpuApp, EnumerationHoldsWorkloadInvariant) {
  const GpuMatMulApp app = makeApp();
  const auto configs = app.enumerateConfigs(4096);
  EXPECT_FALSE(configs.empty());
  for (const auto& c : configs) {
    EXPECT_EQ(c.g * c.r, app.options().totalProducts);
    EXPECT_GE(c.bs, 1);
    EXPECT_LE(c.bs, 32);
    EXPECT_TRUE(app.model().isLaunchable(c));
  }
}

TEST(GpuApp, EnumerationCoversAllBsAndGroupSplits) {
  const GpuMatMulApp app = makeApp();
  const auto configs = app.enumerateConfigs(4096);
  // 32 block sizes x divisors of 8 as G in [1,8]: {1,2,4,8}.
  EXPECT_EQ(configs.size(), 32u * 4u);
}

TEST(GpuApp, OversizedWorkloadHasNoConfigs) {
  const GpuMatMulApp app = makeApp();
  EXPECT_TRUE(app.enumerateConfigs(30000).empty());  // > 12 GB
}

TEST(GpuApp, ModelOnlyRunMatchesKernelModel) {
  const GpuMatMulApp app = makeApp(false);
  Rng rng(6);
  hw::MatMulConfig cfg{8192, 32, 2, 4};
  const auto point = app.runConfig(cfg, rng);
  const auto model = app.model().modelMatMul(cfg);
  EXPECT_DOUBLE_EQ(point.time.value(), model.time.value());
  EXPECT_DOUBLE_EQ(point.dynamicEnergy.value(),
                   model.dynamicEnergy().value());
}

TEST(GpuApp, MeteredRunCloseToGroundTruthAndConverged) {
  const GpuMatMulApp app = makeApp(true);
  Rng rng(7);
  hw::MatMulConfig cfg{10240, 32, 2, 4};
  const auto point = app.runConfig(cfg, rng);
  const auto truth = app.model().modelMatMul(cfg);
  EXPECT_NEAR(point.dynamicEnergy.value() /
                  truth.dynamicEnergy().value(),
              1.0, 0.05);
  EXPECT_NEAR(point.time.value() / truth.time.value(), 1.0, 0.01);
  EXPECT_GE(point.repetitions, 5u);
}

TEST(GpuApp, DeterministicForSameSeed) {
  const GpuMatMulApp app = makeApp(true);
  Rng rngA(8), rngB(8);
  hw::MatMulConfig cfg{8192, 16, 1, 8};
  const auto a = app.runConfig(cfg, rngA);
  const auto b = app.runConfig(cfg, rngB);
  EXPECT_DOUBLE_EQ(a.dynamicEnergy.value(), b.dynamicEnergy.value());
  EXPECT_DOUBLE_EQ(a.time.value(), b.time.value());
}

TEST(GpuApp, LabelsAreHumanReadable) {
  GpuDataPoint p;
  p.config = {1024, 24, 2, 4};
  EXPECT_EQ(p.label(), "BS=24 G=2 R=4");
}

TEST(GpuApp, AdditivityConfigsVaryOnlyG) {
  const GpuMatMulApp app = makeApp();
  const auto configs = app.additivityConfigs(5120, 32, 4);
  ASSERT_EQ(configs.size(), 4u);
  for (int g = 1; g <= 4; ++g) {
    EXPECT_EQ(configs[g - 1].g, g);
    EXPECT_EQ(configs[g - 1].r, 1);
    EXPECT_EQ(configs[g - 1].bs, 32);
  }
}

TEST(GpuApp, NodeIdleIncludesHostAndBoard) {
  const GpuMatMulApp app = makeApp();
  EXPECT_DOUBLE_EQ(app.nodeIdlePower().value(),
                   85.0 + hw::nvidiaP100Pcie().boardIdlePower.value());
}

// --- CPU application ---

TEST(CpuApp, EnumerationRespectsMachineLimits) {
  CpuDgemmOptions opts;
  opts.useMeter = false;
  const CpuDgemmApp app(hw::CpuModel(hw::haswellE52670v3()), opts);
  const auto configs =
      app.enumerateConfigs(8192, hw::BlasVariant::IntelMklLike);
  EXPECT_GT(configs.size(), 50u);
  for (const auto& c : configs) {
    EXPECT_LE(c.threadgroups * c.threadsPerGroup, 48);
    EXPECT_EQ(c.variant, hw::BlasVariant::IntelMklLike);
  }
}

TEST(CpuApp, WorkloadRunProducesBothSchemes) {
  CpuDgemmOptions opts;
  opts.useMeter = false;
  const CpuDgemmApp app(hw::CpuModel(hw::haswellE52670v3()), opts);
  Rng rng(9);
  const auto points =
      app.runWorkload(4096, hw::BlasVariant::OpenBlasLike, rng);
  bool sawHorizontal = false, sawSquare = false;
  for (const auto& p : points) {
    if (p.config.partition == hw::PartitionScheme::Horizontal) {
      sawHorizontal = true;
    } else {
      sawSquare = true;
    }
    EXPECT_GT(p.gflops, 0.0);
    EXPECT_GE(p.avgUtilizationPct, 0.0);
    EXPECT_LE(p.avgUtilizationPct, 100.0);
  }
  EXPECT_TRUE(sawHorizontal);
  EXPECT_TRUE(sawSquare);
}

TEST(CpuApp, MeteredPowerTracksModelPower) {
  CpuDgemmOptions opts;
  opts.useMeter = true;
  const CpuDgemmApp app(hw::CpuModel(hw::haswellE52670v3()), opts);
  Rng rng(10);
  hw::CpuDgemmConfig cfg;
  cfg.n = 17408;
  cfg.threadgroups = 2;
  cfg.threadsPerGroup = 12;
  const auto p = app.runConfig(cfg, rng);
  EXPECT_NEAR(p.dynamicPower.value() / p.model.dynamicPower.value(), 1.0,
              0.05);
}

TEST(CpuApp, UtilizationJitterIsSmall) {
  CpuDgemmOptions opts;
  opts.useMeter = false;
  const CpuDgemmApp app(hw::CpuModel(hw::haswellE52670v3()), opts);
  hw::CpuDgemmConfig cfg;
  cfg.n = 8192;
  cfg.threadgroups = 1;
  cfg.threadsPerGroup = 24;
  Rng rng(11);
  const auto a = app.runConfig(cfg, rng);
  EXPECT_NEAR(a.avgUtilizationPct, 100.0 * a.model.avgUtilization, 1.0);
}

// --- FFT application ---

TEST(FftApp, SweepProducesMonotonicWork) {
  Fft2dOptions opts;
  opts.useMeter = false;
  const Fft2dApp app(hw::CpuModel(hw::haswellE52670v3()), opts);
  Rng rng(12);
  const auto points = app.runSweep({256, 512, 1024, 2048}, rng);
  ASSERT_EQ(points.size(), 4u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].work, points[i - 1].work);
    EXPECT_GT(points[i].dynamicEnergy.value(),
              points[i - 1].dynamicEnergy.value());
  }
}

TEST(FftApp, GpuVariantCarriesProcessorName) {
  const Fft2dApp app(hw::GpuModel(hw::nvidiaK40c()));
  EXPECT_EQ(app.processorName(), "Nvidia K40c");
}

TEST(FftApp, MeteredEnergyCloseToModel) {
  Fft2dOptions metered;
  const Fft2dApp app(hw::GpuModel(hw::nvidiaP100Pcie()), metered);
  Fft2dOptions raw;
  raw.useMeter = false;
  const Fft2dApp truth(hw::GpuModel(hw::nvidiaP100Pcie()), raw);
  Rng rngA(13), rngB(13);
  const auto a = app.runSize(8192, rngA);
  const auto b = truth.runSize(8192, rngB);
  EXPECT_NEAR(a.dynamicEnergy.value() / b.dynamicEnergy.value(), 1.0, 0.08);
}

TEST(FftApp, RejectsTinySizes) {
  const Fft2dApp app(hw::CpuModel(hw::haswellE52670v3()));
  Rng rng(14);
  EXPECT_THROW((void)app.runSize(1, rng), PreconditionError);
}

}  // namespace
}  // namespace ep::apps

// --- functional verification of the CPU app's decomposition (appended) ---

namespace ep::apps {
namespace {

TEST(CpuAppFunctional, EveryConfigurationComputesCorrectly) {
  // Each (p, t) structure really computes a correct DGEMM via epblas.
  CpuDgemmOptions opts;
  opts.useMeter = false;
  const CpuDgemmApp app(hw::CpuModel(hw::haswellE52670v3()), opts);
  Rng rng(21);
  for (const auto& cfg :
       app.enumerateConfigs(64, hw::BlasVariant::IntelMklLike)) {
    if (cfg.partition != hw::PartitionScheme::Horizontal) continue;
    if (cfg.threadsPerGroup % 4 != 0) continue;  // sample the space
    const double err = CpuDgemmApp::functionalCheck(cfg, 48, rng);
    EXPECT_LT(err, 1e-9) << "p=" << cfg.threadgroups
                         << " t=" << cfg.threadsPerGroup;
  }
}

TEST(GpuStudyIntegration, DeterministicAcrossRuns) {
  GpuMatMulOptions opts;
  opts.useMeter = true;
  const GpuMatMulApp app(hw::GpuModel(hw::nvidiaP100Pcie()), opts);
  Rng rngA(7), rngB(7);
  const auto a = app.runWorkload(8192, rngA);
  const auto b = app.runWorkload(8192, rngB);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].dynamicEnergy.value(),
                     b[i].dynamicEnergy.value());
  }
}

// Front stability: the headline P100 trade-off must survive different
// meter-noise seeds, not just the one used in the benches.
class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, P100HeadlineRobustToMeterNoise) {
  GpuMatMulOptions opts;
  opts.useMeter = true;
  const GpuMatMulApp app(hw::GpuModel(hw::nvidiaP100Pcie()), opts);
  Rng rng(GetParam());
  const auto data = app.runWorkload(10240, rng);
  const auto tr =
      pareto::analyzeTradeoff(GpuMatMulApp::toPoints(data));
  EXPECT_NEAR(tr.maxEnergySavings, 0.50, 0.08) << "seed " << GetParam();
  EXPECT_NEAR(tr.performanceDegradation, 0.11, 0.04)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(11u, 222u, 3333u, 44444u));

// --- fork-salt regressions ---

// The old fork key shifted bs/g/r/n into (overlapping) bit ranges and
// XORed them: for totalProducts = 2^19 the configs (G=2, R=2^18) and
// (G=4, R=2^17) produced the SAME key, so two different configurations
// drew identical meter noise.  The mix64 chain must separate them.
TEST(GpuApp, ForkSaltsDistinctWhereOldXorKeyCollided) {
  const auto oldKey = [](const hw::MatMulConfig& cfg) {
    return (static_cast<std::uint64_t>(cfg.bs) << 32) ^
           (static_cast<std::uint64_t>(cfg.g) << 16) ^
           static_cast<std::uint64_t>(cfg.r) ^
           (static_cast<std::uint64_t>(cfg.n) << 40);
  };
  const hw::MatMulConfig a{10240, 32, 2, 1 << 18};
  const hw::MatMulConfig b{10240, 32, 4, 1 << 17};
  ASSERT_EQ(oldKey(a), oldKey(b)) << "collision premise no longer holds";
  EXPECT_NE(GpuMatMulApp::forkSalt(a), GpuMatMulApp::forkSalt(b));
}

TEST(GpuApp, ForkSaltsPairwiseDistinctAcrossConfigSpace) {
  const GpuMatMulApp app = makeApp();
  std::set<std::uint64_t> salts;
  std::size_t configs = 0;
  for (int n : {8192, 10240, 18432}) {
    for (const auto& cfg : app.enumerateConfigs(n)) {
      salts.insert(GpuMatMulApp::forkSalt(cfg));
      ++configs;
    }
  }
  EXPECT_EQ(salts.size(), configs);
}

TEST(CpuApp, ForkSaltsPairwiseDistinctAcrossConfigSpace) {
  CpuDgemmOptions opts;
  opts.useMeter = false;
  const CpuDgemmApp app(hw::CpuModel(hw::haswellE52670v3()), opts);
  std::set<std::uint64_t> salts;
  std::size_t configs = 0;
  for (const auto variant :
       {hw::BlasVariant::IntelMklLike, hw::BlasVariant::OpenBlasLike}) {
    for (const auto& cfg : app.enumerateConfigs(512, variant)) {
      salts.insert(CpuDgemmApp::forkSalt(cfg));
      ++configs;
    }
  }
  EXPECT_EQ(salts.size(), configs);
}

// --- parallel == serial determinism ---

void expectSameGpuData(const std::vector<GpuDataPoint>& a,
                       const std::vector<GpuDataPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].time.value(), b[i].time.value()) << "i=" << i;
    EXPECT_DOUBLE_EQ(a[i].dynamicEnergy.value(), b[i].dynamicEnergy.value())
        << "i=" << i;
    EXPECT_EQ(a[i].repetitions, b[i].repetitions) << "i=" << i;
  }
}

// Metered configurations fan out over the pool; model-direct ones never
// touch it (they run inline on the caller).  Either way the result is
// bitwise the serial one.
TEST(GpuStudyIntegration, ParallelWorkloadBitwiseEqualsSerial) {
  const obs::Counter& parallelFors = obs::Registry::global().counter(
      "ep_threadpool_parallel_for_total",
      "parallelFor invocations (all pools)");
  for (const bool meter : {true, false}) {
    GpuMatMulOptions opts;
    opts.useMeter = meter;
    const GpuMatMulApp app(hw::GpuModel(hw::nvidiaP100Pcie()), opts);
    Rng rng(7);
    const auto serial = app.runWorkload(8192, rng);
    for (std::size_t threads : {1u, 4u, 8u}) {
      ThreadPool pool(threads);
      Rng prng(7);
      const std::uint64_t before = parallelFors.value();
      const auto parallel = app.runWorkload(8192, prng, &pool);
      SCOPED_TRACE(std::string(meter ? "metered" : "model-direct") +
                   " threads=" + std::to_string(threads));
      if (meter) {
        EXPECT_GT(parallelFors.value(), before);
      } else {
        EXPECT_EQ(parallelFors.value(), before);
      }
      expectSameGpuData(parallel, serial);
    }
  }
}

// --- one-sort finalize against an independent quadratic reference ---

// Level 1 = the points no other point dominates; level 2 = the same
// over what level 1 leaves.  Each level in (time, energy, configId)
// order.  O(n^2) pairwise dominance; shares no code with the peel.
std::vector<std::vector<pareto::BiPoint>> quadraticFronts(
    std::vector<pareto::BiPoint> rest, int levels) {
  std::vector<std::vector<pareto::BiPoint>> fronts;
  for (int k = 0; k < levels; ++k) {
    std::vector<pareto::BiPoint> front;
    std::vector<pareto::BiPoint> deeper;
    for (const auto& p : rest) {
      const bool dominated =
          std::any_of(rest.begin(), rest.end(), [&p](const auto& q) {
            return pareto::dominates(q, p);
          });
      (dominated ? deeper : front).push_back(p);
    }
    std::sort(front.begin(), front.end(), [](const auto& a, const auto& b) {
      if (a.time != b.time) return a.time < b.time;
      if (a.energy != b.energy) return a.energy < b.energy;
      return a.configId < b.configId;
    });
    fronts.push_back(std::move(front));
    rest = std::move(deeper);
  }
  return fronts;
}

void expectSamePoint(const pareto::BiPoint& got, const pareto::BiPoint& want) {
  EXPECT_EQ(got.configId, want.configId);
  EXPECT_EQ(got.time, want.time);
  EXPECT_EQ(got.energy, want.energy);
  EXPECT_EQ(got.label, want.label);
}

void expectSameFront(const std::vector<pareto::BiPoint>& got,
                     const std::vector<pareto::BiPoint>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("i=" + std::to_string(i));
    expectSamePoint(got[i], want[i]);
  }
}

// Both points with their label and configId, and both ratios, bit for
// bit.
void expectSameTradeoff(const pareto::Tradeoff& got,
                        const pareto::Tradeoff& want) {
  {
    SCOPED_TRACE("performance-optimal");
    expectSamePoint(got.performanceOptimal, want.performanceOptimal);
  }
  {
    SCOPED_TRACE("energy-optimal");
    expectSamePoint(got.energyOptimal, want.energyOptimal);
  }
  EXPECT_EQ(got.maxEnergySavings, want.maxEnergySavings);
  EXPECT_EQ(got.performanceDegradation, want.performanceDegradation);
}

// The fronts against the quadratic reference; the global trade-off
// against analyzeTradeoff over every point (first-in-input among
// ties), and the local one against analyzeTradeoff over the reference
// level-2 front.
void expectFinalizeMatchesReference(const core::WorkloadResult& r) {
  const std::vector<pareto::BiPoint> points = GpuMatMulApp::toPoints(r.data);
  const auto want = quadraticFronts(points, 2);
  {
    SCOPED_TRACE("global front");
    expectSameFront(r.globalFront, want[0]);
  }
  {
    SCOPED_TRACE("local front");
    expectSameFront(r.localFront, want[1]);
  }
  {
    SCOPED_TRACE("global trade-off");
    expectSameTradeoff(r.globalTradeoff, pareto::analyzeTradeoff(points));
  }
  {
    SCOPED_TRACE("local trade-off");
    ASSERT_EQ(r.localTradeoff.has_value(), !want[1].empty());
    if (r.localTradeoff) {
      expectSameTradeoff(*r.localTradeoff, pareto::analyzeTradeoff(want[1]));
    }
  }
}

TEST(FinalizeWorkload, FrontsMatchQuadraticReferenceOnRealStudies) {
  GpuMatMulOptions opts;
  opts.useMeter = false;
  for (const auto& spec : {hw::nvidiaK40c(), hw::nvidiaP100Pcie()}) {
    const core::GpuEpStudy study(GpuMatMulApp(hw::GpuModel(spec), opts));
    std::size_t sizes = 0;
    for (int n = 1024; n <= 20480; n += 1024) {
      SCOPED_TRACE(spec.name + " n=" + std::to_string(n));
      Rng rng(static_cast<std::uint64_t>(n));
      const core::WorkloadResult r = study.runWorkload(n, rng);
      expectFinalizeMatchesReference(r);
      ++sizes;
    }
    EXPECT_GE(sizes, 16u);
  }
}

TEST(FinalizeWorkload, FrontsMatchQuadraticReferenceWithTiesAndDuplicates) {
  // Coarse grids force equal times, equal energies and exact
  // duplicate-objective points.
  Rng rng(20261017);
  for (int trial = 0; trial < 200; ++trial) {
    core::WorkloadResult r;
    const int n = 1 + static_cast<int>(rng.uniformInt(0, 127));
    const auto grid = static_cast<std::uint64_t>(2 + trial % 6);
    for (int i = 0; i < n; ++i) {
      GpuDataPoint d;
      d.config = {1024, 1 + i % 32, 1 + i / 32, 8};
      d.time = Seconds{static_cast<double>(rng.uniformInt(1, grid))};
      d.dynamicEnergy = Joules{static_cast<double>(rng.uniformInt(1, grid))};
      r.data.push_back(d);
    }
    core::finalizeWorkload(r);
    SCOPED_TRACE("trial " + std::to_string(trial));
    expectFinalizeMatchesReference(r);
  }
}

TEST(GpuApp, LabelMatchesConcatenatedTextForEveryLaunchableConfig) {
  std::size_t checked = 0;
  for (const auto& spec : {hw::nvidiaK40c(), hw::nvidiaP100Pcie()}) {
    for (const int products : {8, 64}) {
      GpuMatMulOptions opts;
      opts.totalProducts = products;
      opts.useMeter = false;
      const GpuMatMulApp app(hw::GpuModel(spec), opts);
      for (const int n : {1024, 10240, 20480}) {
        for (const auto& cfg : app.enumerateConfigs(n)) {
          GpuDataPoint p;
          p.config = cfg;
          EXPECT_EQ(p.label(), "BS=" + std::to_string(cfg.bs) +
                                   " G=" + std::to_string(cfg.g) +
                                   " R=" + std::to_string(cfg.r));
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

// --- one metered pass over a list of workloads == each one alone ---

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Every field of a data point, doubles by their bits.
void expectSameDataPoint(const GpuDataPoint& got, const GpuDataPoint& want) {
  EXPECT_EQ(got.config.n, want.config.n);
  EXPECT_EQ(got.config.bs, want.config.bs);
  EXPECT_EQ(got.config.g, want.config.g);
  EXPECT_EQ(got.config.r, want.config.r);
  EXPECT_EQ(bits(got.time.value()), bits(want.time.value()));
  EXPECT_EQ(bits(got.dynamicEnergy.value()), bits(want.dynamicEnergy.value()));
  EXPECT_EQ(got.repetitions, want.repetitions);
  EXPECT_EQ(got.remeasures, want.remeasures);
  const hw::KernelModel& a = got.model;
  const hw::KernelModel& b = want.model;
  EXPECT_EQ(bits(a.time.value()), bits(b.time.value()));
  EXPECT_EQ(bits(a.corePower.value()), bits(b.corePower.value()));
  EXPECT_EQ(bits(a.boostRatio), bits(b.boostRatio));
  EXPECT_EQ(a.uncoreActive, b.uncoreActive);
  EXPECT_EQ(bits(a.uncorePower.value()), bits(b.uncorePower.value()));
  EXPECT_EQ(bits(a.uncoreTail.value()), bits(b.uncoreTail.value()));
  EXPECT_EQ(a.occupancy.blocksPerSm, b.occupancy.blocksPerSm);
  EXPECT_EQ(a.occupancy.threadsPerSm, b.occupancy.threadsPerSm);
  EXPECT_EQ(bits(a.occupancy.fraction), bits(b.occupancy.fraction));
  EXPECT_STREQ(a.occupancy.limitedBy, b.occupancy.limitedBy);
  EXPECT_EQ(bits(a.achievedGflops), bits(b.achievedGflops));
  EXPECT_EQ(bits(a.achievedBandwidthGBs), bits(b.achievedBandwidthGBs));
  EXPECT_EQ(a.flopCount, b.flopCount);
  EXPECT_EQ(a.dramBytes, b.dramBytes);
  EXPECT_EQ(a.sharedLoadStore, b.sharedLoadStore);
  EXPECT_EQ(a.globalLoadTransactions, b.globalLoadTransactions);
}

// The data, the failures, both fronts and both trade-offs.
void expectSameWorkload(const core::WorkloadResult& got,
                        const core::WorkloadResult& want) {
  EXPECT_EQ(got.n, want.n);
  ASSERT_EQ(got.data.size(), want.data.size());
  for (std::size_t i = 0; i < got.data.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    expectSameDataPoint(got.data[i], want.data[i]);
  }
  ASSERT_EQ(got.failures.size(), want.failures.size());
  for (std::size_t i = 0; i < got.failures.size(); ++i) {
    EXPECT_EQ(got.failures[i].config.bs, want.failures[i].config.bs);
    EXPECT_EQ(got.failures[i].config.g, want.failures[i].config.g);
    EXPECT_EQ(got.failures[i].error, want.failures[i].error);
  }
  {
    SCOPED_TRACE("global front");
    expectSameFront(got.globalFront, want.globalFront);
  }
  {
    SCOPED_TRACE("local front");
    expectSameFront(got.localFront, want.localFront);
  }
  expectSameTradeoff(got.globalTradeoff, want.globalTradeoff);
  ASSERT_EQ(got.localTradeoff.has_value(), want.localTradeoff.has_value());
  if (got.localTradeoff) {
    expectSameTradeoff(*got.localTradeoff, *want.localTradeoff);
  }
}

std::string errorOf(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  }
}

// What a workload's lone, serial run returns, or the error it throws.
struct LoneRun {
  core::WorkloadResult result;
  std::string error;
};

std::vector<LoneRun> loneRuns(const core::GpuEpStudy& study,
                              const std::vector<int>& sizes,
                              const std::vector<std::uint64_t>& seeds) {
  std::vector<LoneRun> out(sizes.size());
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    Rng rng(seeds[k]);
    try {
      out[k].result = study.runWorkload(sizes[k], rng);
    } catch (const std::exception& e) {
      out[k].error = e.what();
    }
  }
  return out;
}

// Against each workload's lone serial run, with no pool and pools of 1,
// 3 and 8 workers: runWorkloads over the first 1, 2, 3 and 1 sizes, and
// runSweep over all four.  A list of 2+ sizes interleaves its
// workloads' pairs in one longest-window-first schedule, so a stream
// shared across a workload's configurations, or a slot written in
// schedule order, shows up as a mismatch.  `wantErrors` lone runs must
// throw; their entries must carry the same error, and runSweep throws.
// Adds the configurations the lone runs recorded as failed to
// `*recorded`.
void expectPassesEqualLoneRuns(const core::GpuEpStudy& study,
                               const std::vector<int>& sizes,
                               std::size_t wantErrors,
                               std::size_t* recorded = nullptr) {
  ASSERT_EQ(sizes.size(), 4u);
  // runSweep's streams, so its result compares against the same runs.
  Rng sweepRng(7);
  std::vector<std::uint64_t> seeds;
  for (const int n : sizes) {
    const auto salt = static_cast<std::uint64_t>(n) * 0x9E37ULL;
    seeds.push_back(sweepRng.fork(salt).seed());
  }
  const std::vector<LoneRun> alone = loneRuns(study, sizes, seeds);
  ASSERT_EQ(static_cast<std::size_t>(std::count_if(
                alone.begin(), alone.end(),
                [](const LoneRun& r) { return !r.error.empty(); })),
            wantErrors);
  for (const LoneRun& r : alone) {
    if (recorded != nullptr) *recorded += r.result.failures.size();
  }
  const std::size_t poolSizes[] = {0, 1, 3, 8};
  for (std::size_t p = 0; p < std::size(poolSizes); ++p) {
    SCOPED_TRACE("pool " + std::to_string(poolSizes[p]));
    std::unique_ptr<ThreadPool> pool;
    if (poolSizes[p] > 0) pool = std::make_unique<ThreadPool>(poolSizes[p]);
    const std::size_t len = 1 + p % 3;
    const std::vector<core::WorkloadAttempt> got = study.runWorkloads(
        std::span(sizes).first(len), std::span(seeds).first(len), pool.get());
    ASSERT_EQ(got.size(), len);
    for (std::size_t k = 0; k < len; ++k) {
      SCOPED_TRACE("list of " + std::to_string(len) +
                   ", n=" + std::to_string(sizes[k]));
      if (!alone[k].error.empty()) {
        ASSERT_TRUE(got[k].error != nullptr);
        EXPECT_EQ(errorOf(got[k].error), alone[k].error);
        continue;
      }
      ASSERT_TRUE(got[k].error == nullptr) << errorOf(got[k].error);
      expectSameWorkload(got[k].result, alone[k].result);
    }
    Rng rng(7);
    if (wantErrors > 0) {
      EXPECT_THROW((void)study.runSweep(sizes, rng, pool.get()), EpError);
      const std::vector<core::WorkloadAttempt> all =
          study.runWorkloads(sizes, seeds, pool.get());
      for (std::size_t k = 0; k < sizes.size(); ++k) {
        SCOPED_TRACE("list of 4, n=" + std::to_string(sizes[k]));
        ASSERT_EQ(all[k].error != nullptr, !alone[k].error.empty());
        if (all[k].error) {
          EXPECT_EQ(errorOf(all[k].error), alone[k].error);
        } else {
          expectSameWorkload(all[k].result, alone[k].result);
        }
      }
      continue;
    }
    const std::vector<core::WorkloadResult> sweep =
        study.runSweep(sizes, rng, pool.get());
    ASSERT_EQ(sweep.size(), sizes.size());
    for (std::size_t k = 0; k < sizes.size(); ++k) {
      SCOPED_TRACE("sweep n=" + std::to_string(sizes[k]));
      expectSameWorkload(sweep[k], alone[k].result);
    }
  }
}

// Both devices, clean under FailFast and under a 5 % SkipAndRecord
// meter campaign with the serving path's hardening (epserved --fault-*):
// each entry must equal its lone run bit for bit, failures included.
TEST(GpuStudyIntegration, PassOverWorkloadsEqualsEachAloneBitForBit) {
  std::size_t recorded = 0;
  for (const auto& spec : {hw::nvidiaK40c(), hw::nvidiaP100Pcie()}) {
    for (const bool campaign : {false, true}) {
      SCOPED_TRACE(spec.name + (campaign ? " SkipAndRecord campaign(0.05)"
                                         : " clean FailFast"));
      GpuMatMulOptions opts;
      opts.useMeter = true;
      if (campaign) {
        opts.faults = fault::FaultInjectionOptions::campaign(0.05);
        opts.failPolicy = fault::FailPolicy::SkipAndRecord;
        opts.robustness.sanitizeSamples = true;
        opts.robustness.maxPlausibleWatts = 600.0;
        opts.robustness.validation.enabled = true;
        opts.robustness.validation.maxGapFactor = 5.0;
        opts.robustness.validation.stuckRunLength = 8;
        opts.robustness.rejectOutliers = true;
      }
      const core::GpuEpStudy study(GpuMatMulApp(hw::GpuModel(spec), opts));
      expectPassesEqualLoneRuns(study, {3072, 4096, 5120, 6144}, 0,
                                &recorded);
    }
  }
  EXPECT_GT(recorded, 0u) << "the campaign recorded no failure to compact";
}

// A FailFast timeout campaign that fails exactly one workload of the
// list, its third (found by lone runs at these sizes and this seed): it
// fails that entry alone.
TEST(GpuStudyIntegration, PassFailsOnlyTheWorkloadThatFailed) {
  GpuMatMulOptions opts;
  opts.useMeter = true;
  opts.faults.timeoutRate = 0.0005;
  opts.robustness.timeoutRetries = 0;
  const core::GpuEpStudy study(
      GpuMatMulApp(hw::GpuModel(hw::nvidiaP100Pcie()), opts));
  expectPassesEqualLoneRuns(study, {7168, 8192, 9216, 10240}, 1);
}

// A P100 whose SMs hold only 800 threads: blocks of BS >= 29 (841+
// threads) pass the per-block limits, so they enumerate as launchable,
// but cannot be resident at all.
hw::GpuSpec thinSmSpec() {
  hw::GpuSpec spec = hw::nvidiaP100Pcie();
  spec.maxThreadsPerSM = 800;
  return spec;
}

std::string residencyError(const hw::GpuModel& model, int bs) {
  try {
    (void)model.occupancyFor(bs);
  } catch (const EpError& e) {
    return e.what();
  }
  return "";
}

TEST(GpuApp, ModelDirectSkipAndRecordKeepsEveryResidentConfig) {
  GpuMatMulOptions opts;
  opts.useMeter = false;
  opts.failPolicy = fault::FailPolicy::SkipAndRecord;
  const GpuMatMulApp app(hw::GpuModel(thinSmSpec()), opts);
  const auto configs = app.enumerateConfigs(10240);
  ASSERT_EQ(configs.size(), 32u * 4u);
  Rng rng(3);
  std::vector<GpuConfigFailure> failures;
  const auto points = app.runWorkload(10240, rng, nullptr, &failures);

  std::vector<hw::MatMulConfig> wantFailed;
  std::vector<hw::MatMulConfig> wantKept;
  for (const auto& c : configs) (c.bs >= 29 ? wantFailed : wantKept).push_back(c);
  ASSERT_EQ(failures.size(), wantFailed.size());
  for (std::size_t i = 0; i < failures.size(); ++i) {
    const auto& c = failures[i].config;
    EXPECT_EQ(c.bs, wantFailed[i].bs) << i;
    EXPECT_EQ(c.g, wantFailed[i].g) << i;
    EXPECT_EQ(c.r, wantFailed[i].r) << i;
    const std::string want = residencyError(app.model(), c.bs);
    EXPECT_NE(want.find("block cannot be resident at all"),
              std::string::npos);
    EXPECT_EQ(failures[i].error, want) << i;
  }
  ASSERT_EQ(points.size(), wantKept.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    EXPECT_EQ(p.config.bs, wantKept[i].bs) << i;
    EXPECT_EQ(p.config.g, wantKept[i].g) << i;
    const hw::KernelModel m = app.model().modelMatMul(wantKept[i]);
    EXPECT_EQ(p.time.value(), m.time.value()) << i;
    EXPECT_EQ(p.dynamicEnergy.value(), m.dynamicEnergy().value()) << i;
    EXPECT_EQ(p.repetitions, 1u);
    EXPECT_EQ(p.remeasures, 0u);
  }
}

TEST(GpuApp, ModelDirectFailFastThrowsTheResidencyError) {
  GpuMatMulOptions opts;
  opts.useMeter = false;
  const GpuMatMulApp app(hw::GpuModel(thinSmSpec()), opts);
  Rng rng(3);
  try {
    (void)app.runWorkload(10240, rng);
    ADD_FAILURE() << "expected the first non-resident block to throw";
  } catch (const PreconditionError& e) {
    EXPECT_EQ(std::string(e.what()), residencyError(app.model(), 29));
  }
}

TEST(GpuApp, ModelConstructsForDegenerateSpecs) {
  // Building the per-BS rows must not throw for any spec that
  // constructs: a row that cannot be resident is recorded, not raised.
  std::vector<hw::GpuSpec> specs(6, hw::nvidiaK40c());
  specs[0] = hw::GpuSpec{};
  specs[1].maxThreadsPerSM = 0;
  specs[2].maxBlocksPerSM = 0;
  specs[3].warpSize = 0;
  specs[4].sharedMemPerSMKB = 0;
  specs[5].baseClockMHz = 0.0;
  specs[5].hasAutoBoost = true;
  for (const auto& spec : specs) {
    EXPECT_NO_THROW(hw::GpuModel{spec});
    EXPECT_NO_THROW((hw::GpuModel{spec, hw::GpuTuning{}}));
  }
  EXPECT_FALSE(hw::GpuModel(specs[0]).isLaunchable({1024, 1, 1, 1}));
  EXPECT_THROW((void)hw::GpuModel(specs[1]).modelMatMul({1024, 1, 1, 1}),
               PreconditionError);
}

TEST(CpuApp, ParallelWorkloadBitwiseEqualsSerial) {
  CpuDgemmOptions opts;
  opts.useMeter = true;
  const CpuDgemmApp app(hw::CpuModel(hw::haswellE52670v3()), opts);
  Rng rng(9);
  const auto serial = app.runWorkload(512, hw::BlasVariant::IntelMklLike, rng);
  for (std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    Rng prng(9);
    const auto parallel =
        app.runWorkload(512, hw::BlasVariant::IntelMklLike, prng, &pool);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < parallel.size(); ++i) {
      EXPECT_DOUBLE_EQ(parallel[i].time.value(), serial[i].time.value());
      EXPECT_DOUBLE_EQ(parallel[i].dynamicEnergy.value(),
                       serial[i].dynamicEnergy.value());
      EXPECT_DOUBLE_EQ(parallel[i].avgUtilizationPct,
                       serial[i].avgUtilizationPct);
    }
  }
}

}  // namespace
}  // namespace ep::apps
