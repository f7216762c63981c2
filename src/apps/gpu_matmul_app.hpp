// The Section IV matrix-multiplication application for GPU weak-EP
// analysis, end to end:
//
//   configuration (BS, G, R)  ->  ephw::GpuModel kernel model
//                             ->  eppower profile + WattsUp meter
//                             ->  epstats measurement protocol
//                             ->  (execution time, dynamic energy) point
//
// Configurations solving the same workload hold the total product count
// G x R fixed (the weak-EP "same workload" invariant); enumerateConfigs
// produces every launchable (BS, G, R) combination for it.
#pragma once

#include <exception>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "fault/fault.hpp"
#include "hw/gpu_model.hpp"
#include "pareto/point.hpp"
#include "power/measurer.hpp"
#include "stats/ttest.hpp"

namespace ep::apps {

struct GpuDataPoint {
  hw::MatMulConfig config;
  Seconds time{0.0};
  Joules dynamicEnergy{0.0};
  hw::KernelModel model;  // noise-free ground truth
  std::size_t repetitions = 0;
  // Fault recoveries spent measuring this config (re-recorded windows
  // after validation/outlier rejection); feeds request attribution.
  std::uint64_t remeasures = 0;

  [[nodiscard]] pareto::BiPoint toPoint(std::uint64_t id) const;
  // toPoint written into `p` in place (its label's buffer is reused).
  void writePoint(std::uint64_t id, pareto::BiPoint& p) const;
  [[nodiscard]] std::string label() const;
};

// BS runs from 1 to bsMax and G from 1 to 8 (Fig 5 provides
// dgemmG1..dgemmG8); the node hosting the GPU idles at
// GpuMatMulApp::kHostIdlePower, which feeds the wall meter.
struct GpuMatMulOptions {
  int totalProducts = 8;  // the fixed G x R workload multiplier
  int bsMax = 32;
  // Use the simulated wall meter + measurement protocol (true) or the
  // noise-free model energies (false; for fast sweeps in tests).
  bool useMeter = true;
  stats::MeasurementOptions measurement{};
  power::MeterOptions meter{};
  // Fault campaign + hardening, all off by default (the clean path is
  // bit-identical to the pre-fault pipeline): the meter is wrapped in
  // an epfault FaultyMeter when faults.enabled(), the measurement loop
  // applies `robustness`, and failPolicy decides whether a config whose
  // measurement failed aborts the workload or is skipped and recorded.
  fault::FaultInjectionOptions faults{};
  power::RobustnessOptions robustness{};
  fault::FailPolicy failPolicy = fault::FailPolicy::FailFast;
};

// A configuration whose measurement failed under FailPolicy::SkipAndRecord.
struct GpuConfigFailure {
  hw::MatMulConfig config;
  std::string error;
};

// One workload of GpuMatMulApp::runWorkloads.  In: its size and the
// seed of its stream (runWorkload's `rng` with rng.seed() == seed: a
// configuration draws from Rng(seed).fork(forkSalt(cfg))).  Out: the
// points and failures runWorkload returns and records for it, or the
// error it throws.
struct GpuWorkload {
  int n = 0;
  std::uint64_t seed = 0;
  std::vector<GpuDataPoint> data;
  std::vector<GpuConfigFailure> failures;
  std::exception_ptr error;
};

class GpuMatMulApp {
 public:
  static constexpr Watts kHostIdlePower{85.0};

  explicit GpuMatMulApp(hw::GpuModel model, GpuMatMulOptions options = {});

  [[nodiscard]] const hw::GpuModel& model() const { return model_; }
  [[nodiscard]] const GpuMatMulOptions& options() const { return options_; }
  [[nodiscard]] Watts nodeIdlePower() const;

  // All launchable configurations (bs, g, r) with g*r == totalProducts.
  [[nodiscard]] std::vector<hw::MatMulConfig> enumerateConfigs(int n) const;

  // Configurations for the Fig 6 additivity study: fixed bs, g in
  // [1, gMax], r fixed (defaults 1) — the workload *varies* with g here.
  [[nodiscard]] std::vector<hw::MatMulConfig> additivityConfigs(
      int n, int bs, int gMax = 4, int r = 1) const;

  // Run one configuration: its kernel model, then, metered, the
  // measurement step each pair of runWorkloads takes.
  [[nodiscard]] GpuDataPoint runConfig(const hw::MatMulConfig& cfg,
                                       Rng& rng) const;

  // Fork salt for a configuration's private RNG stream: every field is
  // chained through mix64, so distinct (n, bs, g, r) tuples get
  // distinct streams (the old shifted-XOR key collided for large R).
  [[nodiscard]] static std::uint64_t forkSalt(const hw::MatMulConfig& cfg);

  // Run every configuration of a workload; returns points in
  // enumeration order.  Metered configurations (useMeter) each draw
  // from their own forked stream and write only their own slot; with a
  // pool they are evaluated in parallel (runWorkloads on a list of
  // one), so the result is bitwise-identical to the serial path for any
  // pool size.  Safe to call from inside a task on `pool`.
  // Model-direct configurations (useMeter == false) draw nothing and
  // cost well under a microsecond each, so they always run inline on
  // the calling thread through one hw::MatMulBatch call over the whole
  // list, each written in place: no forked stream, and the pool is not
  // used.
  //
  // Under FailPolicy::SkipAndRecord a configuration whose measurement
  // throws (budget exhausted, unlaunchable, ...) is dropped from the
  // returned points and appended to `failures` (when non-null) in
  // enumeration order; under FailFast the error of the first failing
  // configuration in enumeration order propagates.
  [[nodiscard]] std::vector<GpuDataPoint> runWorkload(
      int n, Rng& rng, ThreadPool* pool = nullptr,
      std::vector<GpuConfigFailure>* failures = nullptr) const;

  // runWorkload over several workloads: each entry ends up holding, bit
  // for bit, what runWorkload returns and records for it, or in `error`
  // what it throws, so a failing workload fails no other.  Metered, one
  // parallelFor runs every (workload, configuration) pair of the list,
  // longest model window (kernel time plus the uncore tail when that is
  // active) first, ties in list and then enumeration order, so the long
  // BS = 1 windows of every size start first and no size waits on
  // another's tail.  Model-direct workloads run one after another on
  // the calling thread.
  void runWorkloads(std::span<GpuWorkload> workloads,
                    ThreadPool* pool = nullptr) const;

  // Convert data points to bi-objective points (ids = indices).
  [[nodiscard]] static std::vector<pareto::BiPoint> toPoints(
      const std::vector<GpuDataPoint>& data);

 private:
  static constexpr int kGMax = 8;

  // The model-direct point of batch.config(i), written into `out`
  // (every field).
  static void modelPoint(const hw::MatMulBatch& batch, std::size_t i,
                         GpuDataPoint& out);

  // Measures p.config over its kernel model p.model through the meter
  // and the protocol: writes p's time, energy, repetitions and
  // remeasures.
  void measure(GpuDataPoint& p, Rng& rng) const;

  hw::GpuModel model_;
  GpuMatMulOptions options_;
};

}  // namespace ep::apps
