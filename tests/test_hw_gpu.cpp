// Unit tests for ephw's GPU model: Table I specs, CUDA occupancy
// arithmetic, roofline behaviour, the decision-variable mechanisms
// (BS, G, R), boost bins, and the 58 W uncore component gating.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "hw/gpu_model.hpp"
#include "hw/spec.hpp"

namespace ep::hw {
namespace {

std::uint64_t bitsOf(double v) { return std::bit_cast<std::uint64_t>(v); }

// Every field of a kernel model, folded into h bit for bit.
std::uint64_t hashModel(std::uint64_t h, const KernelModel& m) {
  for (const double v :
       {m.time.value(), m.corePower.value(), m.boostRatio,
        m.uncorePower.value(), m.uncoreTail.value(), m.occupancy.fraction,
        m.achievedGflops, m.achievedBandwidthGBs,
        m.dynamicEnergy().value()}) {
    h = mix64(h, bitsOf(v));
  }
  for (const std::uint64_t v :
       {static_cast<std::uint64_t>(m.uncoreActive),
        static_cast<std::uint64_t>(m.occupancy.blocksPerSm),
        static_cast<std::uint64_t>(m.occupancy.threadsPerSm), m.flopCount,
        m.dramBytes, m.sharedLoadStore, m.globalLoadTransactions}) {
    h = mix64(h, v);
  }
  for (const char* c = m.occupancy.limitedBy; *c != '\0'; ++c) {
    h = mix64(h, static_cast<unsigned char>(*c));
  }
  return h;
}

// Both Table I parts plus the autoboost-off ablation (a P100 on fixed
// clocks with the P100's tuning).
std::vector<GpuModel> pinnedModels() {
  GpuSpec fixedClocks = nvidiaP100Pcie();
  fixedClocks.hasAutoBoost = false;
  return {GpuModel(nvidiaP100Pcie()), GpuModel(nvidiaK40c()),
          GpuModel(fixedClocks, GpuModel(nvidiaP100Pcie()).tuning())};
}

// --- Table I specs ---

TEST(GpuSpec, K40cMatchesTableI) {
  const GpuSpec s = nvidiaK40c();
  EXPECT_EQ(s.cudaCores, 2880);
  EXPECT_DOUBLE_EQ(s.baseClockMHz, 745.0);
  EXPECT_EQ(s.memoryGB, 12);
  EXPECT_EQ(s.l2KB, 1536);
  EXPECT_DOUBLE_EQ(s.tdp.value(), 235.0);
  EXPECT_FALSE(s.hasAutoBoost);
  EXPECT_DOUBLE_EQ(s.uncorePower.value(), 58.0);      // paper: Fig 6
  EXPECT_EQ(s.additivityThresholdN, 10240);           // paper: Sec V-A
}

TEST(GpuSpec, P100MatchesTableI) {
  const GpuSpec s = nvidiaP100Pcie();
  EXPECT_EQ(s.cudaCores, 3584);
  EXPECT_DOUBLE_EQ(s.boostClockMHz, 1328.0);
  EXPECT_EQ(s.memoryGB, 12);
  EXPECT_EQ(s.l2KB, 4096);
  EXPECT_DOUBLE_EQ(s.tdp.value(), 250.0);
  EXPECT_TRUE(s.hasAutoBoost);
  EXPECT_DOUBLE_EQ(s.uncorePower.value(), 58.0);      // paper: Fig 6
  EXPECT_EQ(s.additivityThresholdN, 15360);           // paper: Sec V-A
}

// --- occupancy arithmetic (checked against the CUDA occupancy rules) ---

TEST(Occupancy, Bs32IsSharedLimitedFullOccupancyOnP100) {
  const GpuModel m(nvidiaP100Pcie());
  const Occupancy o = m.occupancyFor(32);
  // 1024 threads and 16 KB shared per block: 2 blocks fit (threads).
  EXPECT_EQ(o.blocksPerSm, 2);
  EXPECT_EQ(o.threadsPerSm, 2048);
  EXPECT_DOUBLE_EQ(o.fraction, 1.0);
}

TEST(Occupancy, Bs24IsThreadLimitedOnP100) {
  const GpuModel m(nvidiaP100Pcie());
  const Occupancy o = m.occupancyFor(24);
  // 576 threads, 9.2 KB shared: 3 blocks by threads (2048/576), 6 by shared.
  EXPECT_EQ(o.blocksPerSm, 3);
  EXPECT_EQ(o.threadsPerSm, 1728);
  EXPECT_NEAR(o.fraction, 0.84375, 1e-9);
}

TEST(Occupancy, Bs16ReachesFullOccupancy) {
  for (const auto& spec : {nvidiaK40c(), nvidiaP100Pcie()}) {
    const GpuModel m(spec);
    const Occupancy o = m.occupancyFor(16);
    EXPECT_EQ(o.threadsPerSm, 2048) << spec.name;
  }
}

TEST(Occupancy, TinyBlocksAreSlotLimited) {
  const GpuModel k40(nvidiaK40c());
  const Occupancy o = k40.occupancyFor(1);
  EXPECT_EQ(o.blocksPerSm, 16);  // maxBlocksPerSM
  EXPECT_EQ(o.threadsPerSm, 16);
  EXPECT_STREQ(o.limitedBy, "blocks");
}

TEST(Occupancy, OversizedBlockThrows) {
  const GpuModel m(nvidiaP100Pcie());
  EXPECT_THROW((void)m.occupancyFor(33), ResourceError);  // 1089 threads
  EXPECT_THROW((void)m.occupancyFor(0), PreconditionError);
}

TEST(Occupancy, SharedMemoryPerBlockIsTwoTilesOfDoubles) {
  // 2 * 8 * BS^2 must drive the shared limit: BS=32 uses 16 KB.
  const GpuModel m(nvidiaP100Pcie());
  // With 64 KB per SM and 16 KB per block, shared would allow 4 blocks;
  // threads (2048/1024 = 2) must be the binding limit.
  EXPECT_STREQ(m.occupancyFor(32).limitedBy, "threads");
}

// --- launchability ---

TEST(Launchable, MemoryCapacityGatesLargeN) {
  const GpuModel m(nvidiaP100Pcie());  // 12 GB
  MatMulConfig ok{18432, 32, 1, 1};    // 3 * 8 * 18432^2 = 8.1 GB
  MatMulConfig tooBig{25000, 32, 1, 1};  // 15 GB
  EXPECT_TRUE(m.isLaunchable(ok));
  EXPECT_FALSE(m.isLaunchable(tooBig));
}

TEST(Launchable, RejectsDegenerateConfigs) {
  const GpuModel m(nvidiaK40c());
  EXPECT_FALSE(m.isLaunchable({0, 32, 1, 1}));
  EXPECT_FALSE(m.isLaunchable({1024, 0, 1, 1}));
  EXPECT_FALSE(m.isLaunchable({1024, 33, 1, 1}));
  EXPECT_FALSE(m.isLaunchable({1024, 32, 0, 1}));
  EXPECT_THROW((void)m.modelMatMul({1024, 33, 1, 1}), ResourceError);
}

// --- kernel model: the outputs, bit for bit ---

TEST(MatMulModel, OutputsPinnedBitForBit) {
  // Every field of every launchable (n, BS, G, R), at n values spanning
  // tile steps, both additivity thresholds +- 1 and the 12 GB memory
  // edge (23170 fits, 23171 does not); G reaches past the per-G rows.
  // The expected digest was recorded from the one-pass equations the
  // staged model replaced, so any change in an operand, an association
  // or a libm call moves it.
  std::uint64_t h = 0;
  std::size_t launchable = 0;
  for (const GpuModel& model : pinnedModels()) {
    for (const int n : {1, 2, 7, 31, 32, 33, 63, 64, 65, 1000, 1023, 1024,
                        1025, 4096, 8703, 8704, 10239, 10240, 10241, 14336,
                        15359, 15360, 15361, 18432, 23170, 23171}) {
      for (int bs = 1; bs <= 33; ++bs) {
        for (const int g : {1, 2, 3, 4, 5, 6, 7, 8, 16, 17, 32}) {
          for (const int r : {1, 2, 3, 8}) {
            const MatMulConfig cfg{n, bs, g, r};
            if (!model.isLaunchable(cfg)) {
              h = mix64(h, 0xDEAD);
              continue;
            }
            h = hashModel(h, model.modelMatMul(cfg));
            ++launchable;
          }
        }
      }
    }
  }
  EXPECT_EQ(launchable, 3u * 25u * 32u * 11u * 4u);
  EXPECT_EQ(h, 0x0854308F90FBEC8AULL);
}

// --- kernel model: work accounting ---

TEST(MatMulModel, FlopAndByteCountsExactWhenBsDividesN) {
  const GpuModel m(nvidiaP100Pcie());
  const auto k = m.modelMatMul({1024, 32, 1, 1});
  EXPECT_EQ(k.flopCount, 2ULL * 1024 * 1024 * 1024);
  // 2*8*N^2*(N/BS) + 3*8*N^2.
  const std::uint64_t expectedBytes =
      16ULL * 1024 * 1024 * 32 + 24ULL * 1024 * 1024;
  EXPECT_EQ(k.dramBytes, expectedBytes);
}

TEST(MatMulModel, WorkScalesWithGAndR) {
  const GpuModel m(nvidiaP100Pcie());
  const auto k1 = m.modelMatMul({2048, 16, 1, 1});
  const auto k4 = m.modelMatMul({2048, 16, 2, 2});
  EXPECT_EQ(k4.flopCount, 4 * k1.flopCount);
  EXPECT_EQ(k4.dramBytes, 4 * k1.dramBytes);
}

TEST(MatMulModel, TilePaddingInflatesWork) {
  const GpuModel m(nvidiaP100Pcie());
  const auto exact = m.modelMatMul({1024, 32, 1, 1});
  const auto padded = m.modelMatMul({1000, 32, 1, 1});  // 32 tiles of 32
  // ceil(1000/32) = 32 tiles -> padded volume equals the 1024 case.
  EXPECT_EQ(padded.flopCount, exact.flopCount);
}

TEST(MatMulModel, ExecutionTimesAreAdditiveInProducts) {
  // The paper observes execution times to be additive (Section V-A);
  // textual repetition costs only a small icache overhead.
  const GpuModel m(nvidiaP100Pcie());
  const auto k1 = m.modelMatMul({10240, 32, 1, 1});
  const auto k4 = m.modelMatMul({10240, 32, 4, 1});
  EXPECT_NEAR(k4.time.value() / k1.time.value(), 4.0, 0.25);
}

// --- mechanisms ---

TEST(MatMulModel, LargerBsIsFasterInTheMemoryBoundRegion) {
  // BS 1..14: global traffic ~1/BS dominates.
  const GpuModel m(nvidiaP100Pcie());
  double prev = m.modelMatMul({4096, 1, 1, 1}).time.value();
  for (int bs = 2; bs <= 12; ++bs) {
    const double t = m.modelMatMul({4096, bs, 1, 1}).time.value();
    EXPECT_LT(t, prev) << "BS=" << bs;
    prev = t;
  }
}

TEST(MatMulModel, Bs32IsThePerformanceOptimum) {
  for (const auto& spec : {nvidiaK40c(), nvidiaP100Pcie()}) {
    const GpuModel m(spec);
    const double t32 = m.modelMatMul({10240, 32, 1, 1}).time.value();
    for (int bs = 1; bs < 32; ++bs) {
      EXPECT_GT(m.modelMatMul({10240, bs, 1, 1}).time.value(), t32)
          << spec.name << " BS=" << bs;
    }
  }
}

TEST(MatMulModel, IcachePressureSlowsLargeG) {
  const GpuModel m(nvidiaK40c());
  const auto g1 = m.modelMatMul({8192, 32, 1, 8});
  const auto g8 = m.modelMatMul({8192, 32, 8, 1});
  EXPECT_GT(g8.time.value() / 8.0 * 8.0, g1.time.value() * 0.99);
  // Same total products; G=8 strictly slower per product.
  EXPECT_GT(g8.time.value(), g1.time.value() * 0.98);
}

TEST(MatMulModel, BoostOnlyOnAutoBoostParts) {
  const GpuModel k40(nvidiaK40c());
  const GpuModel p100(nvidiaP100Pcie());
  EXPECT_DOUBLE_EQ(k40.modelMatMul({10240, 32, 1, 1}).boostRatio, 1.0);
  EXPECT_GT(p100.modelMatMul({10240, 32, 1, 1}).boostRatio, 1.1);
}

TEST(MatMulModel, BoostBinsFollowResidentBlockCount) {
  const GpuModel m(nvidiaP100Pcie());
  const double top = m.modelMatMul({10240, 32, 1, 1}).boostRatio;   // 2 blocks
  const double mid = m.modelMatMul({10240, 24, 1, 1}).boostRatio;   // 3 blocks
  const double base = m.modelMatMul({10240, 16, 1, 1}).boostRatio;  // 8 blocks
  EXPECT_GT(top, mid);
  EXPECT_GT(mid, base);
  EXPECT_DOUBLE_EQ(base, 1.0);
  EXPECT_NEAR(top, nvidiaP100Pcie().clockRatioBoost(), 1e-12);
}

// --- the 58 W uncore component (Fig 6 machinery) ---

TEST(Uncore, GatedBySizeThresholdOnK40c) {
  const GpuModel m(nvidiaK40c());
  EXPECT_TRUE(m.modelMatMul({10240, 32, 1, 1}).uncoreActive);
  EXPECT_FALSE(m.modelMatMul({12288, 32, 1, 1}).uncoreActive);
}

TEST(Uncore, GatedBySizeAndTopBinOnP100) {
  const GpuModel m(nvidiaP100Pcie());
  EXPECT_TRUE(m.modelMatMul({10240, 32, 1, 1}).uncoreActive);   // top bin
  EXPECT_FALSE(m.modelMatMul({10240, 24, 1, 1}).uncoreActive);  // mid bin
  EXPECT_FALSE(m.modelMatMul({16384, 32, 1, 1}).uncoreActive);  // above thr
  EXPECT_TRUE(m.modelMatMul({15360, 32, 1, 1}).uncoreActive);   // at thr
}

TEST(Uncore, Draws58Watts) {
  const GpuModel m(nvidiaP100Pcie());
  const auto k = m.modelMatMul({10240, 32, 1, 1});
  EXPECT_DOUBLE_EQ(k.uncorePower.value(), 58.0);  // paper: Section V-A
  EXPECT_GT(k.uncoreTail.value(), 0.0);
}

TEST(Uncore, DynamicEnergyIncludesTailOncePerLaunch) {
  const GpuModel m(nvidiaP100Pcie());
  const auto k = m.modelMatMul({10240, 32, 1, 1});
  const double expected =
      k.corePower.value() * k.time.value() +
      58.0 * (k.time.value() + k.uncoreTail.value());
  EXPECT_NEAR(k.dynamicEnergy().value(), expected, 1e-9);
}

TEST(Uncore, NonAdditivityDecreasesWithN) {
  // Fig 6: relative non-additivity shrinks as N grows.
  const GpuModel m(nvidiaP100Pcie());
  auto nonAdditivity = [&](int n) {
    const double e1 = m.modelMatMul({n, 32, 1, 1}).dynamicEnergy().value();
    const double e4 = m.modelMatMul({n, 32, 4, 1}).dynamicEnergy().value();
    return std::fabs(e4 - 4.0 * e1) / (4.0 * e1);
  };
  const double at5120 = nonAdditivity(5120);
  const double at10240 = nonAdditivity(10240);
  const double at15360 = nonAdditivity(15360);
  EXPECT_GT(at5120, at10240);
  EXPECT_GT(at10240, at15360);
  EXPECT_GT(at5120, 0.10);  // "highly non-additive"
}

TEST(Uncore, AdditiveAboveThreshold) {
  const GpuModel m(nvidiaP100Pcie());
  const double e1 =
      m.modelMatMul({16384, 32, 1, 1}).dynamicEnergy().value();
  const double e4 =
      m.modelMatMul({16384, 32, 4, 1}).dynamicEnergy().value();
  EXPECT_NEAR(e4 / (4.0 * e1), 1.0, 0.05);
}

// --- power sanity ---

TEST(Power, DynamicPowerWithinBoardLimits) {
  for (const auto& spec : {nvidiaK40c(), nvidiaP100Pcie()}) {
    const GpuModel m(spec);
    for (int bs : {4, 8, 16, 24, 27, 32}) {
      const auto k = m.modelMatMul({10240, bs, 1, 1});
      EXPECT_GT(k.dynamicPower().value(), 0.0) << spec.name << " " << bs;
      EXPECT_LT(k.dynamicPower().value(),
                spec.tdp.value() - spec.boardIdlePower.value() + 15.0)
          << spec.name << " BS=" << bs;
    }
  }
}

TEST(Power, AchievedThroughputBelowPeak) {
  const GpuModel m(nvidiaP100Pcie());
  const auto k = m.modelMatMul({10240, 32, 1, 1});
  EXPECT_LT(k.achievedGflops,
            nvidiaP100Pcie().peakGflopsDouble *
                nvidiaP100Pcie().clockRatioBoost());
  EXPECT_LT(k.achievedBandwidthGBs, nvidiaP100Pcie().memBandwidthGBs);
}

// --- FFT model (Fig 1 GPU curves) ---

TEST(FftModel, WorkMetricIsPaperFormula) {
  const GpuModel m(nvidiaK40c());
  const auto k = m.modelFft2d(1024);
  EXPECT_NEAR(static_cast<double>(k.flopCount),
              5.0 * 1024.0 * 1024.0 * 10.0, 1.0);
}

TEST(FftModel, ThroughputImprovesWithSize) {
  // Small transforms underutilize the device.
  const GpuModel m(nvidiaP100Pcie());
  const auto small = m.modelFft2d(256);
  const auto large = m.modelFft2d(8192);
  EXPECT_GT(large.achievedGflops, small.achievedGflops);
}

TEST(FftModel, NonPowerOfTwoPaysRadixPenalty) {
  const GpuModel m(nvidiaP100Pcie());
  // 4096 vs 4099 (prime): comparable W, very different efficiency.
  const auto fast = m.modelFft2d(4096);
  const auto slow = m.modelFft2d(4099);
  const double rateFast =
      static_cast<double>(fast.flopCount) / fast.time.value();
  const double rateSlow =
      static_cast<double>(slow.flopCount) / slow.time.value();
  EXPECT_GT(rateFast, rateSlow * 1.5);
}

TEST(FftModel, UncoreKinkAtThreshold) {
  const GpuModel m(nvidiaP100Pcie());
  EXPECT_TRUE(m.modelFft2d(15000).uncoreActive);
  EXPECT_FALSE(m.modelFft2d(16000).uncoreActive);
}

// Parameterized sweep: every launchable BS yields positive, finite time
// and energy, and occupancy in (0, 1].
class BsSweep : public ::testing::TestWithParam<int> {};

TEST_P(BsSweep, ModelIsWellFormedForAllBs) {
  for (const auto& spec : {nvidiaK40c(), nvidiaP100Pcie()}) {
    const GpuModel m(spec);
    const auto k = m.modelMatMul({4096, GetParam(), 2, 2});
    EXPECT_TRUE(std::isfinite(k.time.value()));
    EXPECT_GT(k.time.value(), 0.0);
    EXPECT_GT(k.dynamicEnergy().value(), 0.0);
    EXPECT_GT(k.occupancy.fraction, 0.0);
    EXPECT_LE(k.occupancy.fraction, 1.0);
    EXPECT_GE(k.boostRatio, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBlockSizes, BsSweep, ::testing::Range(1, 33));

}  // namespace
}  // namespace ep::hw

// --- mechanism-ablation invariants (appended; mirrors the ablation
// bench so regressions in mechanism attribution are caught) ---

#include "apps/gpu_matmul_app.hpp"
#include "core/study.hpp"

namespace ep::hw {
namespace {

double savingsWith(const GpuSpec& spec, const GpuTuning& tuning) {
  apps::GpuMatMulOptions opts;
  opts.useMeter = false;
  const apps::GpuMatMulApp app(GpuModel(spec, tuning), opts);
  const core::GpuEpStudy study(app);
  Rng rng(12);
  return study.runWorkload(10240, rng).globalTradeoff.maxEnergySavings;
}

TEST(Ablation, UncoreComponentCarriesTheHeadlineSavings) {
  const GpuSpec spec = nvidiaP100Pcie();
  const GpuTuning base = GpuModel(spec).tuning();
  const double baseline = savingsWith(spec, base);
  GpuSpec noUncore = spec;
  noUncore.uncorePower = Watts{0.0};
  const double without = savingsWith(noUncore, base);
  EXPECT_GT(baseline, 0.40);
  EXPECT_LT(without, 0.20);
}

TEST(Ablation, DisablingAutoboostMakesP100BehaveLikeK40c) {
  GpuSpec fixedClocks = nvidiaP100Pcie();
  fixedClocks.hasAutoBoost = false;
  const double savings =
      savingsWith(fixedClocks, GpuModel(nvidiaP100Pcie()).tuning());
  EXPECT_LT(savings, 0.10);
}

void expectSameModel(const KernelModel& a, const KernelModel& b) {
  EXPECT_EQ(bitsOf(a.time.value()), bitsOf(b.time.value()));
  EXPECT_EQ(bitsOf(a.corePower.value()), bitsOf(b.corePower.value()));
  EXPECT_EQ(bitsOf(a.boostRatio), bitsOf(b.boostRatio));
  EXPECT_EQ(a.uncoreActive, b.uncoreActive);
  EXPECT_EQ(bitsOf(a.uncorePower.value()), bitsOf(b.uncorePower.value()));
  EXPECT_EQ(bitsOf(a.uncoreTail.value()), bitsOf(b.uncoreTail.value()));
  EXPECT_EQ(a.occupancy.blocksPerSm, b.occupancy.blocksPerSm);
  EXPECT_EQ(a.occupancy.threadsPerSm, b.occupancy.threadsPerSm);
  EXPECT_EQ(bitsOf(a.occupancy.fraction), bitsOf(b.occupancy.fraction));
  EXPECT_STREQ(a.occupancy.limitedBy, b.occupancy.limitedBy);
  EXPECT_EQ(bitsOf(a.achievedGflops), bitsOf(b.achievedGflops));
  EXPECT_EQ(bitsOf(a.achievedBandwidthGBs), bitsOf(b.achievedBandwidthGBs));
  EXPECT_EQ(a.flopCount, b.flopCount);
  EXPECT_EQ(a.dramBytes, b.dramBytes);
  EXPECT_EQ(a.sharedLoadStore, b.sharedLoadStore);
  EXPECT_EQ(a.globalLoadTransactions, b.globalLoadTransactions);
}

// Every configuration of `list` through one whole-list call of
// `batch`, field by field against modelMatMul on it alone.
void expectListMatchesOneAtATime(MatMulBatch& batch, const GpuModel& model,
                                 const std::vector<MatMulConfig>& list) {
  batch.evaluate(list);
  for (std::size_t i = 0; i < list.size(); ++i) {
    const MatMulConfig& cfg = list[i];
    SCOPED_TRACE(model.spec().name + " n=" + std::to_string(cfg.n) +
                 " BS=" + std::to_string(cfg.bs) +
                 " G=" + std::to_string(cfg.g) +
                 " R=" + std::to_string(cfg.r));
    KernelModel got;
    batch.write(i, got);
    expectSameModel(got, model.modelMatMul(cfg));
  }
}

TEST(MatMulModel, BatchEqualsOneConfigAtATime) {
  for (const GpuModel& model : pinnedModels()) {
    const apps::GpuMatMulApp app(model);
    MatMulBatch batch(model);
    // A list out of enumeration order: n and BS interleave, so most
    // (n, BS) runs are one configuration long, G*R varies as
    // additivityConfigs produces it (G = 1..gMax at fixed R), and G = 17
    // and 32 lie past the per-G rows.
    std::vector<MatMulConfig> cfgs;
    for (const int r : {1, 3}) {
      for (const int bs : {32, 1, 17, 24, 8}) {
        for (const int n : {10240, 1000, 15361, 23171}) {
          for (const MatMulConfig& c : app.additivityConfigs(n, bs, 8, r)) {
            cfgs.push_back(c);
          }
          cfgs.push_back({n, bs, 17, r});
          cfgs.push_back({n, bs, 32, r});
          cfgs.push_back({n, 33, 1, r});  // unlaunchable block
        }
      }
    }
    // Interleave with stride 7: neighbours mostly differ in (n, BS).
    std::vector<MatMulConfig> order;
    for (std::size_t stride = 0; stride < 7; ++stride) {
      for (std::size_t i = stride; i < cfgs.size(); i += 7) {
        order.push_back(cfgs[i]);
      }
    }
    ASSERT_EQ(order.size(), cfgs.size());
    std::vector<MatMulConfig> launchable;
    for (const MatMulConfig& c : order) {
      if (model.isLaunchable(c)) launchable.push_back(c);
    }
    EXPECT_GT(launchable.size(), 2u * 128u);
    EXPECT_LT(launchable.size(), order.size());
    expectListMatchesOneAtATime(batch, model, launchable);

    // A list that holds an unlaunchable configuration throws before
    // computing anything: the batch still holds the last list's results.
    EXPECT_THROW(batch.evaluate(order), ResourceError);
    for (std::size_t i = 0; i < launchable.size(); i += 17) {
      KernelModel got;
      batch.write(i, got);
      expectSameModel(got, model.modelMatMul(launchable[i]));
    }

    // Every enumerated workload, whose (n, BS) runs span their G, over
    // the tile steps, both additivity thresholds and the memory edge.
    std::vector<int> sizes;
    for (int n = 1024; n <= 16320; n += 64) sizes.push_back(n);
    for (const int n :
         {1, 7, 33, 1000, 8703, 8704, 10239, 10241, 15359, 15361, 23170}) {
      sizes.push_back(n);
    }
    for (const int n : sizes) {
      const std::vector<MatMulConfig> list = app.enumerateConfigs(n);
      ASSERT_FALSE(list.empty()) << "n=" << n;
      expectListMatchesOneAtATime(batch, model, list);
    }
    EXPECT_EQ(sizes.size(), 251u);
  }
}

TEST(Ablation, ResidencyPowerShapesTheFrontNotTheHeadline) {
  const GpuSpec spec = nvidiaP100Pcie();
  GpuTuning noRes = GpuModel(spec).tuning();
  noRes.residencyPower = 0.0;
  // The headline savings survive (uncore-driven), within a band.
  EXPECT_GT(savingsWith(spec, noRes), 0.40);
}

}  // namespace
}  // namespace ep::hw
