// The Section V experiment runner: execute the GPU matrix-multiplication
// application over a range of workloads, compute global and local Pareto
// fronts per workload, and aggregate the front statistics the paper
// reports ("the observed average and maximum points in the local Pareto
// fronts are 4 and 5 for the K40c", "(50 %, 11 %) for the P100", ...).
#pragma once

#include <exception>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "apps/gpu_matmul_app.hpp"
#include "pareto/front.hpp"
#include "pareto/tradeoff.hpp"

namespace ep::core {

struct WorkloadResult {
  int n = 0;
  std::vector<apps::GpuDataPoint> data;
  // Both fronts hold labelled points whose configId is the member's
  // index into data.
  std::vector<pareto::BiPoint> globalFront;
  std::vector<pareto::BiPoint> localFront;  // level-2 front
  // Trade-off over all points (energy-optimal vs performance-optimal),
  // read off the global front, which holds both.
  pareto::Tradeoff globalTradeoff;
  // Trade-off within the local front (the paper's K40c analysis, where
  // the global front collapses to one point); absent if the local front
  // is empty.
  std::optional<pareto::Tradeoff> localTradeoff;
  // Configurations skipped under FailPolicy::SkipAndRecord; the fronts
  // above are built from the surviving points only.
  std::vector<apps::GpuConfigFailure> failures;
};

// One workload of GpuEpStudy::runWorkloads: its result, or the error
// that failed it (and it alone).
struct WorkloadAttempt {
  WorkloadResult result;
  std::exception_ptr error;
};

// Rebuild the fronts and trade-offs of `r` from r.data (deterministic,
// measurement-free): one peelFronts over the data's (time, energy,
// index) keys, labelling only the front members.  Used by runWorkload
// and by journal resume.
void finalizeWorkload(WorkloadResult& r);

// What one completed study cost to measure, summed over its surviving
// configurations.  This is the ledger entry the serve layer attributes
// to the request that actually executed the study (cache hits and
// coalesced joins attribute zero new joules).
struct EnergyAttribution {
  double joules = 0.0;             // sum of measured dynamic energy
  std::uint64_t windows = 0;       // accepted measurement windows
  std::uint64_t remeasures = 0;    // fault recoveries along the way
  std::uint64_t skippedConfigs = 0;
};

[[nodiscard]] EnergyAttribution attributeEnergy(const WorkloadResult& r);

// A whole workload that failed under SweepOptions with SkipAndRecord
// (e.g. every configuration's measurement budget was exhausted).
struct SweepFailure {
  int n = 0;
  std::string error;
};

struct SweepOptions {
  // How runSweepChecked treats a workload whose study threw: FailFast
  // propagates (the historical behaviour), SkipAndRecord drops the
  // workload into SweepResult::failures and carries on.
  fault::FailPolicy workloadPolicy = fault::FailPolicy::FailFast;
  // Non-empty: crash-safe append-only journal.  Workloads already
  // completed in the journal are restored instead of re-measured, and
  // every newly completed workload is appended, so an interrupted sweep
  // resumes where it stopped and ends bitwise-identical to an
  // uninterrupted run.
  std::string checkpointPath;
};

struct SweepResult {
  std::vector<WorkloadResult> results;  // completed workloads, sweep order
  std::vector<SweepFailure> failures;   // skipped workloads (SkipAndRecord)
  std::size_t resumedWorkloads = 0;     // restored from the journal
};

struct FrontStatistics {
  std::size_t workloads = 0;
  double avgGlobalFrontSize = 0.0;
  std::size_t maxGlobalFrontSize = 0;
  double avgLocalFrontSize = 0.0;
  std::size_t maxLocalFrontSize = 0;
  // Largest global-front trade-off over the workload range.
  double maxGlobalSavings = 0.0;
  double degradationAtMaxGlobalSavings = 0.0;
  // Largest local-front trade-off over the workload range.
  double maxLocalSavings = 0.0;
  double degradationAtMaxLocalSavings = 0.0;
};

class GpuEpStudy {
 public:
  explicit GpuEpStudy(apps::GpuMatMulApp app);

  [[nodiscard]] const apps::GpuMatMulApp& app() const { return app_; }

  // With a pool, a metered configuration space is evaluated in parallel
  // with results bitwise-identical to serial; a model-direct one always
  // runs inline (see GpuMatMulApp::runWorkload).
  [[nodiscard]] WorkloadResult runWorkload(int n, Rng& rng,
                                           ThreadPool* pool = nullptr) const;

  // runWorkload over several workloads in one pass: entry k holds, bit
  // for bit, what runWorkload(sizes[k], rng, pool) returns for an `rng`
  // whose seed() is seeds[k], or in `error` what it throws.  Metered
  // workloads share one parallelFor over all their configurations
  // (GpuMatMulApp::runWorkloads).
  [[nodiscard]] std::vector<WorkloadAttempt> runWorkloads(
      std::span<const int> sizes, std::span<const std::uint64_t> seeds,
      ThreadPool* pool = nullptr) const;

  // runWorkloads over `sizes`, workload n drawing from
  // rng.fork(n * 0x9E37): one pass, so the result is bitwise-identical
  // at any pool size.  Throws the error of the first failing workload
  // in sweep order.
  [[nodiscard]] std::vector<WorkloadResult> runSweep(
      const std::vector<int>& sizes, Rng& rng,
      ThreadPool* pool = nullptr) const;

  // runSweep with failure tolerance and optional checkpoint/resume.
  // Each workload runs as its own runWorkload, in parallel over the
  // sizes with a pool, and is journalled as it completes; its streams
  // are runSweep's, so for a fixed seed the surviving results are
  // bitwise-identical to runSweep's at any pool size, whether or not
  // the sweep was interrupted and resumed.
  [[nodiscard]] SweepResult runSweepChecked(const std::vector<int>& sizes,
                                            Rng& rng,
                                            const SweepOptions& options = {},
                                            ThreadPool* pool = nullptr) const;

  // The identity of this study under seed `seed`: a hash of everything
  // its results depend on — the device spec, the model constants, every
  // app option (measurement, meter, faults, robustness, fail policy)
  // and the seed.  It guards the journal (resuming a checkpoint
  // recorded under anything else is an error, not a silently wrong
  // merge) and keys the serve cache (EpStudyEngine::tuningHash).
  [[nodiscard]] std::uint64_t checkpointHash(std::uint64_t seed) const;

  [[nodiscard]] static FrontStatistics summarize(
      const std::vector<WorkloadResult>& results);

 private:
  // r's points and failures in, its fronts out; throws when no point
  // survived.
  static void finishWorkload(WorkloadResult& r);

  apps::GpuMatMulApp app_;
};

}  // namespace ep::core
