// Analytic performance + power model of a CUDA GPU executing the paper's
// blocked matrix-multiplication kernel (Fig 5).
//
// The model implements the first-order mechanisms through which the
// paper's decision variables (BS, G, R) act on real silicon:
//
//   * occupancy:     blocks/SM limited by thread slots, shared memory and
//                    block slots; BS^2 threads and 2*8*BS^2 bytes of
//                    shared memory per block,
//   * warp quantization: BS^2 threads fill ceil(BS^2/32) warps,
//   * tile quantization: ceil(N/BS) tiles pad the computed volume,
//   * roofline:      compute time vs global-memory time, where global
//                    traffic is 16*N^3/BS bytes (each A/B element is
//                    loaded N/BS times thanks to shared-memory blocking),
//   * coalescing:    sub-32-byte row segments waste DRAM sectors for
//                    small BS,
//   * icache pressure: G textual repetitions of the device function grow
//                    the instruction footprint (G >= 4 starts missing),
//   * autoboost (P100): high-activity kernels raise the core clock; power
//                    rises superlinearly with the boost ratio, which is
//                    what breaks weak EP at the top of the configuration
//                    space on the P100,
//   * uncore component: a constant 58 W consumer active during kernels
//                    with N <= additivityThresholdN and for a short tail
//                    after them (the Fig 6 non-additivity).
//
// Energy decomposes into work-proportional terms (flops, bytes) plus
// residency terms (occupancy x time) plus constant-power terms — the
// combination violates weak EP exactly the way Section V observes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "hw/spec.hpp"

namespace ep::hw {

// Decision variables of the Fig 5 application for one workload.
struct MatMulConfig {
  int n = 0;   // matrix dimension
  int bs = 0;  // per-block shared-memory dimension, 1..32
  int g = 1;   // group size: device matmul codes textually repeated
  int r = 1;   // number of runs of a group
  [[nodiscard]] int totalProducts() const { return g * r; }
};

struct Occupancy {
  int blocksPerSm = 0;
  int threadsPerSm = 0;
  double fraction = 0.0;  // threadsPerSm / maxThreadsPerSM
  // Which limit bound the occupancy ("threads", "shared", "blocks").
  const char* limitedBy = "";
};

// Everything the experiment layer needs to know about one kernel launch.
struct KernelModel {
  Seconds time{0.0};          // kernel execution time (all G*R products)
  Watts corePower{0.0};       // SM + memory-system dynamic power (above idle)
  double boostRatio = 1.0;    // applied clock boost (1.0 on fixed clocks)
  bool uncoreActive = false;  // 58 W component engaged
  Watts uncorePower{0.0};
  Seconds uncoreTail{0.0};    // post-kernel tail of the uncore component
  Occupancy occupancy;
  double achievedGflops = 0.0;
  double achievedBandwidthGBs = 0.0;
  // Ground-truth event counts for the CUPTI simulation (per launch).
  std::uint64_t flopCount = 0;
  std::uint64_t dramBytes = 0;
  std::uint64_t sharedLoadStore = 0;
  std::uint64_t globalLoadTransactions = 0;

  // Average dynamic power over the kernel window (core + uncore).
  [[nodiscard]] Watts dynamicPower() const {
    return corePower + (uncoreActive ? uncorePower : Watts{0.0});
  }
  // Dynamic energy a perfect (noise-free) wall meter would attribute to
  // the launch, including the uncore tail.
  [[nodiscard]] Joules dynamicEnergy() const;
};

// Tunable architecture-response constants.  Defaults are produced per
// GPU by GpuModel; exposed so ablation benches can switch mechanisms off.
struct GpuTuning {
  double kernelPeakFraction = 0.72;  // best-case fraction of FP64 peak
  double occScaleCompute = 0.22;     // latency-hiding saturation (compute)
  double occScaleMemory = 0.08;      // latency-hiding saturation (memory)
  double icachePenaltyPerLevel = 0.02;  // issue-eff loss per log2(G) >= 2
  double gLinearPenalty = 0.004;     // small issue-eff loss per extra repeat
  double runWarmupFraction = 0.008;  // cold-cache warm-up per run (of one
                                     // product's time)
  double smEnergyPerGflop = 0.0;     // J per Gflop of SM work (set per GPU)
  double memEnergyPerGB = 0.0;       // J per GB of DRAM traffic
  double residencyPower = 0.0;       // W at full occupancy (scheduler/RF)
  double fetchPowerPerLevel = 0.0;   // W per log2(G) >= 2 (icache refills)
  double constantActivePower = 0.0;  // W whenever any kernel is resident
  // Autoboost response (only used when spec.hasAutoBoost): the governor
  // maps the residency pattern to a clock bin; few large blocks sustain
  // the utilization signal (top bin), medium counts settle mid-bin,
  // many small blocks stay at base clock.
  double midBinBoostFraction = 0.40;  // mid bin = 1 + fraction*(full-1)
  double boostPowerExponent = 4.0;   // P ~ beta^exponent (f*V^2 with V~f^1.5)
  // Fraction of datasheet DRAM bandwidth this access pattern sustains.
  double bandwidthEfficiency = 0.80;
  // Post-kernel decay of the uncore component (seconds); negative means
  // "use the spec's value".  The wall-meter measurement window includes
  // this tail (HCLWattsUp waits for power to settle).
  double uncoreTailSec = -1.0;
};

// The model is staged by what each term depends on, so a workload's
// configurations pay only for the terms that vary between them:
//   * per BS, one row built at construction for every block size that
//     passes the per-block limits: occupancy, both latency-hiding exps,
//     the boost ratio and its two pows, the compute peak, the memory
//     rate and the uncore bin gate;
//   * per G, one row built at construction for G <= kGRows (computed
//     in place beyond): icache levels, issue efficiency, fetch power;
//   * per (n, BS), computed by MatMulBatch once per run of equal
//     (n, BS) in its list: tiles, flops, bytes, pow(tMemory, 12), block
//     dispatch, shared traffic;
//   * per configuration: the compute time and the two pows of the
//     roofline combination, then time, energy and counts.
// MatMulBatch runs each of these as its own pass over a whole list
// (every pow of a kind back to back, so the calls overlap), and
// modelMatMul is that code on a list of one.  Every product keeps the
// operands and association of the one-pass equations, so each output
// is bit-identical to evaluating them in one go (the build's
// -ffp-contract=off keeps FMA out).
class GpuModel {
 public:
  explicit GpuModel(GpuSpec spec);
  GpuModel(GpuSpec spec, GpuTuning tuning);

  [[nodiscard]] const GpuSpec& spec() const { return spec_; }
  [[nodiscard]] const GpuTuning& tuning() const { return tuning_; }

  // Occupancy for a block of bs x bs threads with 2*8*bs^2 bytes of
  // shared memory.  Throws ResourceError for invalid block shapes.
  [[nodiscard]] Occupancy occupancyFor(int bs) const;

  // True iff the configuration can launch at all (block limits + device
  // memory for the three N x N matrices).
  [[nodiscard]] bool isLaunchable(const MatMulConfig& cfg) const;

  // Throws what modelMatMul(cfg) throws, and nothing else: ResourceError
  // if !isLaunchable(cfg), and what occupancyFor(cfg.bs) throws if the
  // block cannot be resident.
  void requireLaunchable(const MatMulConfig& cfg) const;

  // Model one kernel launch computing cfg.g * cfg.r matrix products:
  // MatMulBatch on a list of one.  Throws what requireLaunchable(cfg)
  // throws.
  [[nodiscard]] KernelModel modelMatMul(const MatMulConfig& cfg) const;

  // Model of the 2D-FFT application of Fig 1 (CUFFT-like): returns the
  // kernel model for one forward 2D FFT of an N x N complex signal.
  [[nodiscard]] KernelModel modelFft2d(int n) const;

 private:
  friend class MatMulBatch;

  // The terms of modelMatMul that depend on BS alone.
  struct BlockRow {
    Occupancy occupancy;  // blocksPerSm < 1: occupancyFor(bs) throws
    double boost = 1.0;
    double computePeak = 0.0;        // peakFlops * warpEff * occEffC
    double memRate = 0.0;            // coalescing- and occupancy-derated
    double boostEnergyScale = 0.0;   // boost^(boostPowerExponent - 1)
    double residencyPower = 0.0;     // residencyPower * occ * boost^3
    bool uncoreBin = false;          // the uncore's boost-bin gate
  };
  // The terms that depend on G alone.
  struct GroupRow {
    double icLevels = 0.0;
    double issueEff = 0.0;
    double fetchPower = 0.0;  // fetchPowerPerLevel * icLevels
  };
  static constexpr int kGRows = 16;

  [[nodiscard]] static GpuTuning defaultTuning(const GpuSpec& spec);
  [[nodiscard]] BlockRow blockRow(int bs) const;
  [[nodiscard]] GroupRow groupRow(int g) const;
  // groupRows_[g - 1], or groupRow(g) beyond kGRows.
  [[nodiscard]] GroupRow groupFor(int g) const;
  void buildRows();

  GpuSpec spec_;
  GpuTuning tuning_;
  std::vector<BlockRow> blockRows_;  // [bs - 1]
  std::vector<GroupRow> groupRows_;  // [g - 1], g <= kGRows
};

// Evaluates a list of configurations in passes: the (n, BS) terms of
// each run of equal (n, BS), with their pow(tMemory, 12); then every
// compute time; every pow(tCompute, 12); every 12th root of a sum; and
// last, by write(), time, energy and counts into the caller's storage.
// Each result is bit-identical to GpuModel::modelMatMul(cfg) whatever
// the order of the list.  Holds a pointer to the model, which must
// outlive it, and a view of the list, which must outlive every write()
// and config() call.
class MatMulBatch {
 public:
  explicit MatMulBatch(const GpuModel& model) : model_(&model) {}

  // Runs every pass but the last over `configs`, replacing what the
  // batch held.  Throws what modelMatMul would for the first
  // configuration that cannot launch, before computing anything.
  void evaluate(std::span<const MatMulConfig> configs);

  // configs[i] of the last evaluate.
  [[nodiscard]] const MatMulConfig& config(std::size_t i) const {
    return configs_[i];
  }

  // Writes the kernel model of config(i) into `out` (every field).
  void write(std::size_t i, KernelModel& out) const;

 private:
  // One configuration's terms, pass by pass.  Those that depend on
  // (n, BS) alone are computed for the first configuration of each run
  // of equal (n, BS) and copied to the rest of the run.
  struct Stage {
    double flopsPerProduct = 0.0;
    double bytesPerProduct = 0.0;
    double tMemoryPow = 0.0;  // tMemory, then pow(tMemory, 12)
    double dispatch = 0.0;    // tiles^2 block dispatches
    double sharedPerProduct = 0.0;
    double time = 0.0;        // tCompute, then its pow, then tProduct
  };

  const GpuModel* model_;
  std::span<const MatMulConfig> configs_;
  std::vector<Stage> stages_;  // one per configuration
};

}  // namespace ep::hw
