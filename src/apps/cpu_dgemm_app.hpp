// The Section III parallel DGEMM application on the multicore CPU:
// enumerates the paper's configuration space (type of partitioning,
// number of threadgroups, threads per group) for the MKL-like and
// OpenBLAS-like variants and measures each configuration through the
// wall-meter + statistics stack, producing the Fig 4 data set
// (dynamic power vs average CPU utilization, performance vs utilization).
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "fault/fault.hpp"
#include "hw/cpu_model.hpp"
#include "pareto/point.hpp"
#include "power/measurer.hpp"
#include "stats/ttest.hpp"

namespace ep::apps {

struct CpuDataPoint {
  hw::CpuDgemmConfig config;
  Seconds time{0.0};
  Joules dynamicEnergy{0.0};
  Watts dynamicPower{0.0};
  double avgUtilizationPct = 0.0;  // 0..100, as /proc/stat reports
  double gflops = 0.0;
  hw::CpuRunModel model;  // ground truth

  [[nodiscard]] pareto::BiPoint toPoint(std::uint64_t id) const;
  [[nodiscard]] std::string label() const;
};

struct CpuDgemmOptions {
  bool useMeter = true;
  stats::MeasurementOptions measurement{};
  power::MeterOptions meter{};
  // Fault campaign + hardening; all off by default (see GpuMatMulOptions).
  fault::FaultInjectionOptions faults{};
  power::RobustnessOptions robustness{};
  fault::FailPolicy failPolicy = fault::FailPolicy::FailFast;
};

// A configuration whose measurement failed under FailPolicy::SkipAndRecord.
struct CpuConfigFailure {
  hw::CpuDgemmConfig config;
  std::string error;
};

class CpuDgemmApp {
 public:
  explicit CpuDgemmApp(hw::CpuModel model, CpuDgemmOptions options = {});

  [[nodiscard]] const hw::CpuModel& model() const { return model_; }

  // The paper's configuration space for one workload/variant: both
  // partition schemes, threadgroup counts dividing the core count, and
  // threads-per-group values such that p*t <= logical cores.
  [[nodiscard]] std::vector<hw::CpuDgemmConfig> enumerateConfigs(
      int n, hw::BlasVariant variant) const;

  [[nodiscard]] CpuDataPoint runConfig(const hw::CpuDgemmConfig& cfg,
                                       Rng& rng) const;

  // mix64-chained fork salt over every distinguishing field (n,
  // variant, partition, threadgroups, threadsPerGroup) — see
  // GpuMatMulApp::forkSalt for why shifted XOR is not good enough.
  [[nodiscard]] static std::uint64_t forkSalt(const hw::CpuDgemmConfig& cfg);

  // With a pool, configurations are measured in parallel and the result
  // is bitwise-identical to the serial path (per-config forked streams,
  // per-index output slots).  Safe to call from inside a task on pool.
  // Failure handling follows GpuMatMulApp::runWorkload: SkipAndRecord
  // drops failing configs into `failures`, FailFast propagates.
  [[nodiscard]] std::vector<CpuDataPoint> runWorkload(
      int n, hw::BlasVariant variant, Rng& rng, ThreadPool* pool = nullptr,
      std::vector<CpuConfigFailure>* failures = nullptr) const;

  [[nodiscard]] static std::vector<pareto::BiPoint> toPoints(
      const std::vector<CpuDataPoint>& data);

  // Functional mode: really execute the Fig 3 decomposition (epblas) for
  // a small matrix with the configuration's threadgroup structure and
  // return the maximum absolute error against the naive reference.
  // Validates that every modeled configuration corresponds to a correct
  // parallel computation.
  [[nodiscard]] static double functionalCheck(const hw::CpuDgemmConfig& cfg,
                                              std::size_t smallN, Rng& rng);

 private:
  // Per-repetition utilization jitter (OS noise, interrupts) applied to
  // every core's utilization, in absolute utilization units.
  static constexpr double kUtilizationJitter = 0.006;

  hw::CpuModel model_;
  CpuDgemmOptions options_;
};

}  // namespace ep::apps
