#include "hw/gpu_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/mathutil.hpp"

namespace ep::hw {

namespace {

// Latency-hiding saturation: fraction of peak throughput reachable at a
// given occupancy.  1 - exp(-occ/scale) rises steeply and saturates, the
// standard shape of achieved-throughput-vs-occupancy curves.
double latencyHiding(double occupancy, double scale) {
  return 1.0 - std::exp(-occupancy / scale);
}

// Warp quantization: BS^2 threads occupy ceil(BS^2/32) full warps.
double warpEfficiency(int bs, int warpSize) {
  const double threads = static_cast<double>(bs) * bs;
  const double warps = std::ceil(threads / warpSize);
  return threads / (warps * warpSize);
}

// DRAM coalescing: a row segment of BS doubles spans BS*8 bytes; requests
// smaller than a 32-byte sector waste the rest of the sector.
double coalescingEfficiency(int bs) {
  const double bytesPerRow = static_cast<double>(bs) * 8.0;
  return std::min(1.0, bytesPerRow / 32.0);
}

// Issue-efficiency loss from the instruction-cache pressure of G textual
// repetitions of the device matmul code (G >= 4 exceeds the icache).
double icacheLevels(int g) {
  if (g < 4) return 0.0;
  return std::log2(static_cast<double>(g)) - 1.0;
}

// DVFS "bins" of the autoboost governor.  Kernels made of few large
// resident blocks present a sustained utilization signal and are driven
// to the top boost state; many small blocks retire frequently, the
// utilization telemetry dips at every block boundary, and the governor
// settles on a lower clock.  Returns the applied clock ratio >= 1.
double boostRatioFor(const GpuSpec& spec, const GpuTuning& tuning,
                     const Occupancy& occ) {
  if (!spec.hasAutoBoost) return 1.0;
  const double full = spec.clockRatioBoost();
  if (occ.blocksPerSm <= 2) return full;
  if (occ.blocksPerSm <= 4) {
    return 1.0 + (full - 1.0) * tuning.midBinBoostFraction;
  }
  return 1.0;
}

// Resident blocks per SM for a bs x bs block with 2*8*bs^2 bytes of
// shared memory, bound by thread slots, shared memory and block slots.
// blocksPerSm < 1 means the block cannot be resident at all; nothing
// else is filled in then.
Occupancy residency(const GpuSpec& spec, int bs) {
  const int threadsPerBlock = bs * bs;
  const int sharedBytesPerBlock = 2 * 8 * bs * bs;
  const int byThreads = spec.maxThreadsPerSM / threadsPerBlock;
  const int byShared = sharedBytesPerBlock == 0
                           ? spec.maxBlocksPerSM
                           : spec.sharedMemPerSMKB * 1024 /
                                 sharedBytesPerBlock;
  const int bySlots = spec.maxBlocksPerSM;

  Occupancy o;
  o.blocksPerSm = std::min({byThreads, byShared, bySlots});
  if (o.blocksPerSm < 1) return o;
  if (o.blocksPerSm == byThreads) {
    o.limitedBy = "threads";
  } else if (o.blocksPerSm == byShared) {
    o.limitedBy = "shared";
  } else {
    o.limitedBy = "blocks";
  }
  o.threadsPerSm = o.blocksPerSm * threadsPerBlock;
  o.fraction = static_cast<double>(o.threadsPerSm) /
               static_cast<double>(spec.maxThreadsPerSM);
  return o;
}

// The shared-memory-bound inner loop: each FMA consumes two 8-byte
// operands from shared memory, so the sustainable FP64 rate is limited by
// shared bandwidth.  Fraction of FP64 peak sustainable by this kernel.
double sharedMemoryPeakFraction(const GpuSpec& /*spec*/) {
  // 16 B of shared traffic per FMA vs ~4 B/flop deliverable: both GK110B
  // (256 B/cycle shared, 64 FP64 FMA/cycle) and GP100 (128 B/cycle, 32
  // FMA/cycle) sit at the same ~25 % ratio for this access pattern.
  return 0.25;
}

}  // namespace

Joules KernelModel::dynamicEnergy() const {
  Joules e = corePower * time;
  if (uncoreActive) {
    e += uncorePower * (time + uncoreTail);
  }
  return e;
}

GpuModel::GpuModel(GpuSpec spec)
    : spec_(std::move(spec)), tuning_(defaultTuning(spec_)) {
  buildRows();
}

GpuModel::GpuModel(GpuSpec spec, GpuTuning tuning)
    : spec_(std::move(spec)), tuning_(tuning) {
  buildRows();
}

GpuTuning GpuModel::defaultTuning(const GpuSpec& spec) {
  GpuTuning t;
  // Constants calibrated (tools/tune + analytic solution recorded in
  // DESIGN.md) so that the configuration-space structure matches the
  // paper's Section V observations: on the P100 the residency-power and
  // clock-bin mechanisms produce the 2-3 point global fronts and the
  // (50 %, 11 %) / (12.5 %, 2.5 %) trade-offs; on the K40c the absence
  // of autoboost collapses the global front to BS=32 while local fronts
  // retain a ~(18 %, 7 %) trade-off.
  if (spec.hasAutoBoost) {
    // P100-class: dominated by warp-scheduler/register-file residency
    // power in the boosted clock domain; HBM2 is cheap per byte.
    t.smEnergyPerGflop = 0.0005;  // J/Gflop at base clock
    t.memEnergyPerGB = 0.0584;    // J/GB (HBM2)
    t.residencyPower = 21.86;     // W at full occupancy, base clock
    t.fetchPowerPerLevel = 2.0;   // W per icache level
    t.constantActivePower = 15.12;
    t.occScaleCompute = 0.163;
    t.boostPowerExponent = 2.5;
    t.midBinBoostFraction = 0.396;
    t.gLinearPenalty = 0.006;
    t.runWarmupFraction = 0.02;
    t.bandwidthEfficiency = 0.847;
    t.uncoreTailSec = 0.793;
  } else {
    // K40c-class: fixed clocks; GDDR5 costs more per byte.
    t.smEnergyPerGflop = 0.0821;  // J/Gflop
    t.memEnergyPerGB = 0.163;     // J/GB (GDDR5)
    t.residencyPower = 13.24;
    t.fetchPowerPerLevel = 3.2;
    t.constantActivePower = 8.08;
    t.occScaleCompute = 0.30;
    t.gLinearPenalty = 0.0006;
    t.runWarmupFraction = 0.0323;
    t.bandwidthEfficiency = 0.782;
    t.uncoreTailSec = 2.0;
  }
  return t;
}

Occupancy GpuModel::occupancyFor(int bs) const {
  EP_REQUIRE(bs >= 1, "block dimension must be >= 1");
  const int threadsPerBlock = bs * bs;
  if (threadsPerBlock > spec_.maxThreadsPerBlock) {
    throw ResourceError("block of " + std::to_string(threadsPerBlock) +
                        " threads exceeds device limit");
  }
  const int sharedBytesPerBlock = 2 * 8 * bs * bs;
  if (sharedBytesPerBlock > spec_.sharedMemPerBlockKB * 1024) {
    throw ResourceError("shared memory per block exceeds device limit");
  }
  const Occupancy o = residency(spec_, bs);
  EP_REQUIRE(o.blocksPerSm >= 1, "block cannot be resident at all");
  return o;
}

GpuModel::BlockRow GpuModel::blockRow(int bs) const {
  BlockRow row;
  const Occupancy occ = residency(spec_, bs);
  row.occupancy = occ;
  if (occ.blocksPerSm < 1) return row;
  const double warpEff = warpEfficiency(bs, spec_.warpSize);
  const double occEffC = latencyHiding(occ.fraction, tuning_.occScaleCompute);
  const double occEffM = latencyHiding(occ.fraction, tuning_.occScaleMemory);
  row.boost = boostRatioFor(spec_, tuning_, occ);

  // Compute roofline: the shared-memory-fed FP64 pipeline at the boosted
  // clock, derated by warp fill and latency hiding (the icache stalls
  // of G repetitions are per G: MatMulBatch derates by issue efficiency).
  const double peakFlops = spec_.peakGflopsDouble * 1e9 *
                           sharedMemoryPeakFraction(spec_) * row.boost;
  row.computePeak = peakFlops * warpEff * occEffC;

  // Memory roofline: DRAM traffic at coalescing-derated bandwidth.
  row.memRate = spec_.memBandwidthGBs * 1e9 * tuning_.bandwidthEfficiency *
                coalescingEfficiency(bs) * occEffM;

  // Switching energy per flop scales with V^2 ~ boost^2; the voltage
  // exponent is part of the boost power response.
  row.boostEnergyScale =
      std::pow(row.boost, tuning_.boostPowerExponent - 1.0);
  row.residencyPower =
      tuning_.residencyPower * occ.fraction * std::pow(row.boost, 3.0);

  // The 58 W uncore component is tied to the top boost bin on autoboost
  // parts (it is part of the boosted uncore clock domain) and engages
  // on every launch below the size threshold on fixed-clock parts.
  row.uncoreBin = !spec_.hasAutoBoost ||
                  row.boost >= spec_.clockRatioBoost() - 1e-12;
  return row;
}

GpuModel::GroupRow GpuModel::groupRow(int g) const {
  GroupRow row;
  row.icLevels = icacheLevels(g);
  row.issueEff =
      std::max(0.5, 1.0 - tuning_.icachePenaltyPerLevel * row.icLevels -
                        tuning_.gLinearPenalty * (g - 1));
  row.fetchPower = tuning_.fetchPowerPerLevel * row.icLevels;
  return row;
}

void GpuModel::buildRows() {
  // One row per block size that passes the per-block limits; both grow
  // with BS, so the first failure ends the table.  The bounds are taken
  // in 64 bits and capped at the int range the occupancy arithmetic
  // uses, so no spec that constructs can overflow here.
  const long long maxThreads = spec_.maxThreadsPerBlock;
  const long long maxShared =
      std::min(static_cast<long long>(spec_.sharedMemPerBlockKB) * 1024,
               static_cast<long long>(std::numeric_limits<int>::max()));
  for (long long bs = 1; bs * bs <= maxThreads && 16 * bs * bs <= maxShared;
       ++bs) {
    blockRows_.push_back(blockRow(static_cast<int>(bs)));
  }
  groupRows_.reserve(kGRows);
  for (int g = 1; g <= kGRows; ++g) groupRows_.push_back(groupRow(g));
}

bool GpuModel::isLaunchable(const MatMulConfig& cfg) const {
  if (cfg.n < 1 || cfg.bs < 1 || cfg.g < 1 || cfg.r < 1) return false;
  // The block rows cover exactly the block sizes within the per-block
  // thread and shared-memory limits.
  if (static_cast<std::size_t>(cfg.bs) > blockRows_.size()) return false;
  // Three N x N double matrices must fit in board memory.
  const double bytes = 3.0 * 8.0 * static_cast<double>(cfg.n) * cfg.n;
  return bytes <= static_cast<double>(spec_.memoryGB) * 1024.0 * 1024.0 *
                      1024.0;
}

void GpuModel::requireLaunchable(const MatMulConfig& cfg) const {
  if (!isLaunchable(cfg)) {
    throw ResourceError("configuration is not launchable on " + spec_.name);
  }
  // A launchable BS passes the per-block limits, so it has a row.
  if (blockRows_[static_cast<std::size_t>(cfg.bs - 1)].occupancy.blocksPerSm <
      1) {
    (void)occupancyFor(cfg.bs);  // throws: it cannot be resident
  }
}

GpuModel::GroupRow GpuModel::groupFor(int g) const {
  return g <= kGRows ? groupRows_[static_cast<std::size_t>(g - 1)]
                     : groupRow(g);
}

KernelModel GpuModel::modelMatMul(const MatMulConfig& cfg) const {
  MatMulBatch batch(*this);
  batch.evaluate({&cfg, 1});
  KernelModel m;
  batch.write(0, m);
  return m;
}

namespace {

// Smooth-max roofline combination (p-norm) — real kernels overlap the
// two partially, so the transition is soft but close to max().
constexpr double kRooflineSharpness = 12.0;

}  // namespace

void MatMulBatch::evaluate(std::span<const MatMulConfig> configs) {
  const GpuModel& model = *model_;
  for (const MatMulConfig& cfg : configs) model.requireLaunchable(cfg);
  configs_ = configs;
  stages_.resize(configs.size());
  const auto startsRun = [&configs](std::size_t i) {
    return i == 0 || configs[i].n != configs[i - 1].n ||
           configs[i].bs != configs[i - 1].bs;
  };

  // The GigaThread engine dispatches each block once per launch.
  constexpr double kBlockDispatchSec = 64e-9;
  // The (n, BS) terms of each run's first configuration.
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (!startsRun(i)) continue;
    const MatMulConfig& cfg = configs[i];
    const GpuModel::BlockRow& row =
        model.blockRows_[static_cast<std::size_t>(cfg.bs - 1)];
    Stage& stage = stages_[i];
    // Tile padding: the grid covers ceil(N/BS) tiles per dimension and
    // the kernel loops over full tiles (bounds-checked loads), so the
    // executed volume corresponds to Nt = ceil(N/BS)*BS.
    const auto tiles = static_cast<double>(ceilDiv(cfg.n, cfg.bs));
    const double nt = tiles * cfg.bs;
    stage.flopsPerProduct = 2.0 * nt * nt * nt;
    // Each A/B element is loaded Nt/BS times (once per consuming
    // block); C is read and written once.
    stage.bytesPerProduct = 2.0 * 8.0 * nt * nt * tiles + 3.0 * 8.0 * nt * nt;
    stage.tMemoryPow = stage.bytesPerProduct / row.memRate;
    stage.dispatch = tiles * tiles * kBlockDispatchSec;
    // Per k-tile each thread performs 2 shared stores (loading As/Bs)
    // and 2*BS shared reads in the inner product loop.
    stage.sharedPerProduct = nt * nt * tiles * (2.0 + 2.0 * cfg.bs + 2.0);
  }
  // pow(tMemory, 12) once per run; the run's other configurations copy
  // their first's terms.
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (startsRun(i)) {
      stages_[i].tMemoryPow =
          std::pow(stages_[i].tMemoryPow, kRooflineSharpness);
    } else {
      stages_[i] = stages_[i - 1];
    }
  }

  // Every compute time: the compute roofline derated by the icache
  // stalls of G repetitions.
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const MatMulConfig& cfg = configs[i];
    const double computeRate =
        model.blockRows_[static_cast<std::size_t>(cfg.bs - 1)].computePeak *
        model.groupFor(cfg.g).issueEff;
    stages_[i].time = stages_[i].flopsPerProduct / computeRate;
  }
  // The roofline combination, one kind of pow at a time.
  for (Stage& stage : stages_) {
    stage.time = std::pow(stage.time, kRooflineSharpness);
  }
  for (Stage& stage : stages_) {
    stage.time = std::pow(stage.time + stage.tMemoryPow,
                          1.0 / kRooflineSharpness);
  }
}

void MatMulBatch::write(std::size_t i, KernelModel& out) const {
  const GpuModel& model = *model_;
  const GpuSpec& spec = model.spec_;
  const GpuTuning& tuning = model.tuning_;
  const MatMulConfig& cfg = configs_[i];
  const Stage& stage = stages_[i];
  const GpuModel::BlockRow& row =
      model.blockRows_[static_cast<std::size_t>(cfg.bs - 1)];
  const double products = static_cast<double>(cfg.totalProducts());
  const double flopsPerProduct = stage.flopsPerProduct;
  const double bytesPerProduct = stage.bytesPerProduct;
  const double tProduct = stage.time;

  // Every run of a group starts with cold L2/TLB state for the streamed
  // matrices: a small warm-up cost per run (R of them per launch).
  constexpr double kLaunchOverheadSec = 8e-6;
  const double warmup = tuning.runWarmupFraction * tProduct;
  const double tKernel = products * tProduct + cfg.r * warmup +
                         stage.dispatch + kLaunchOverheadSec;

  out.time = Seconds{tKernel};
  out.occupancy = row.occupancy;
  out.boostRatio = row.boost;
  out.achievedGflops = products * flopsPerProduct / tKernel / 1e9;
  out.achievedBandwidthGBs = products * bytesPerProduct / tKernel / 1e9;

  // --- Energy decomposition (dynamic, above idle) ---
  const double smEnergy = products * flopsPerProduct / 1e9 *
                          tuning.smEnergyPerGflop * row.boostEnergyScale;
  const double memEnergy =
      products * bytesPerProduct / 1e9 * tuning.memEnergyPerGB;
  const double residencyEnergy = row.residencyPower * tKernel;
  const double fetchEnergy = model.groupFor(cfg.g).fetchPower * tKernel;
  const double constEnergy = tuning.constantActivePower * tKernel;
  const double coreEnergy =
      smEnergy + memEnergy + residencyEnergy + fetchEnergy + constEnergy;
  out.corePower = Watts{coreEnergy / tKernel};

  // The 58 W uncore component: engaged for small workloads, behind the
  // row's boost-bin gate.
  out.uncoreActive = cfg.n <= spec.additivityThresholdN && row.uncoreBin;
  out.uncorePower = spec.uncorePower;
  out.uncoreTail = tuning.uncoreTailSec >= 0.0
                       ? Seconds{tuning.uncoreTailSec}
                       : spec.uncoreTail;

  // --- CUPTI ground truth ---
  out.flopCount = static_cast<std::uint64_t>(products * flopsPerProduct);
  out.dramBytes = static_cast<std::uint64_t>(products * bytesPerProduct);
  out.sharedLoadStore =
      static_cast<std::uint64_t>(products * stage.sharedPerProduct);
  out.globalLoadTransactions =
      static_cast<std::uint64_t>(products * bytesPerProduct / 32.0);
}

KernelModel GpuModel::modelFft2d(int n) const {
  EP_REQUIRE(n >= 2, "FFT size must be >= 2");
  // The paper's work metric for the 2D FFT of an N x N signal.
  const double work = 5.0 * static_cast<double>(n) * n *
                      std::log2(static_cast<double>(n));  // paper: W

  // CUFFT-like behaviour: power-of-two sizes run the fast radix path;
  // other sizes decompose and pay per extra prime-factor pass, with a
  // Bluestein fallback for large prime factors.
  double radixPenalty = 1.0;
  {
    int m = n;
    for (int p : {2, 3, 5, 7}) {
      bool used = false;
      while (m % p == 0) {
        m /= p;
        used = true;
      }
      if (p > 2 && used) radixPenalty += 0.06;  // mixed-radix passes
    }
    if (m > 1) radixPenalty += 1.6;  // Bluestein: ~3 transforms + padding
  }

  // Row + column passes, each streaming the matrix from DRAM; Bluestein
  // and mixed-radix plans move proportionally more data (padded
  // transforms, extra passes).
  const double bytes =
      2.0 * 2.0 * 16.0 * static_cast<double>(n) * n * radixPenalty;

  // Small transforms cannot fill the device: utilization ramps with the
  // number of rows relative to resident thread capacity.
  const double rowsForSaturation =
      static_cast<double>(spec_.smCount) * spec_.maxThreadsPerSM / 256.0;
  const double saturation =
      latencyHiding(static_cast<double>(n) / rowsForSaturation, 0.6);

  const double fftPeakFraction = 0.35;  // FFTs are shuffle/memory heavy
  const double rate = spec_.peakGflopsDouble * 1e9 * fftPeakFraction *
                      saturation / radixPenalty;
  const double tCompute = work / rate;
  const double tMemory = bytes / (spec_.memBandwidthGBs * 1e9 *
                                  latencyHiding(saturation, 0.5));
  const double t = std::max(tCompute, tMemory) + 20e-6;

  KernelModel m;
  m.time = Seconds{t};
  m.boostRatio = 1.0;
  m.achievedGflops = work / t / 1e9;
  m.achievedBandwidthGBs = bytes / t / 1e9;
  m.occupancy = occupancyFor(16);  // 256-thread FFT blocks

  const double smEnergy =
      work / 1e9 * tuning_.smEnergyPerGflop * radixPenalty * 0.8;
  const double memEnergy = bytes / 1e9 * tuning_.memEnergyPerGB;
  const double residencyEnergy =
      tuning_.residencyPower * saturation * t;
  const double constEnergy = tuning_.constantActivePower * t;
  m.corePower = Watts{(smEnergy + memEnergy + residencyEnergy + constEnergy) /
                      t};
  m.uncoreActive = n <= spec_.additivityThresholdN;
  m.uncorePower = spec_.uncorePower;
  m.uncoreTail = spec_.uncoreTail;

  m.flopCount = static_cast<std::uint64_t>(work);
  m.dramBytes = static_cast<std::uint64_t>(bytes);
  m.sharedLoadStore = static_cast<std::uint64_t>(work / 2.0);
  m.globalLoadTransactions = static_cast<std::uint64_t>(bytes / 32.0);
  return m;
}

}  // namespace ep::hw
