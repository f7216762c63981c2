// Section V-B front statistics over a wide range of workloads: average
// and maximum points in global/local Pareto fronts and the maximum
// savings/degradation trade-offs, for both GPUs — the numbers the
// paper's abstract reports.
#include <iostream>

#include "apps/gpu_matmul_app.hpp"
#include "bench_util.hpp"
#include "core/study.hpp"
#include "hw/gpu_model.hpp"

using namespace ep;

namespace {

void runGpu(const hw::GpuSpec& spec, const std::vector<int>& sizes,
            const char* paperLine) {
  apps::GpuMatMulOptions opts;
  opts.useMeter = false;  // statistics over many workloads: model path
  const apps::GpuMatMulApp app(hw::GpuModel(spec), opts);
  const core::GpuEpStudy study(app);
  Rng rng(11);
  const auto results = study.runSweep(sizes, rng);

  Table t({"N", "configs", "global front", "local front",
           "global savings", "global degr.", "local savings",
           "local degr."});
  t.setTitle(spec.name + " front statistics per workload");
  for (const auto& r : results) {
    t.addRow(
        {std::to_string(r.n), std::to_string(r.data.size()),
         std::to_string(r.globalFront.size()),
         std::to_string(r.localFront.size()),
         formatDouble(100.0 * r.globalTradeoff.maxEnergySavings, 1) + "%",
         formatDouble(100.0 * r.globalTradeoff.performanceDegradation, 1) +
             "%",
         r.localTradeoff
             ? formatDouble(100.0 * r.localTradeoff->maxEnergySavings, 1) +
                   "%"
             : "-",
         r.localTradeoff
             ? formatDouble(
                   100.0 * r.localTradeoff->performanceDegradation, 1) +
                   "%"
             : "-"});
  }
  t.print(std::cout);

  const auto s = core::GpuEpStudy::summarize(results);
  std::printf(
      "%s summary: global fronts avg %.1f / max %zu; local fronts avg "
      "%.1f / max %zu\n",
      spec.name.c_str(), s.avgGlobalFrontSize, s.maxGlobalFrontSize,
      s.avgLocalFrontSize, s.maxLocalFrontSize);
  std::printf(
      "  max global savings %.1f%% @ %.1f%% degradation; max local "
      "savings %.1f%% @ %.1f%% degradation\n",
      100.0 * s.maxGlobalSavings, 100.0 * s.degradationAtMaxGlobalSavings,
      100.0 * s.maxLocalSavings, 100.0 * s.degradationAtMaxLocalSavings);
  std::printf("  paper: %s\n\n", paperLine);
}

}  // namespace

int main() {
  bench::printHeader(
      "Section V-B: Pareto front statistics over a range of workloads",
      "K40c: local fronts avg 4 / max 5, (18%, 7%); P100: global fronts "
      "avg 2 / max 3, (50%, 11%)");
  runGpu(hw::nvidiaK40c(),
         {8704, 9216, 9728, 10240, 11264, 12288, 13312, 14336},
         "local fronts avg 4 / max 5; up to 18% savings at 7% degradation");
  runGpu(hw::nvidiaP100Pcie(),
         {10240, 11264, 12288, 13312, 14336, 15360, 16384, 17408, 18432},
         "global fronts avg 2 / max 3; up to 50% savings at 11% "
         "degradation");
  return 0;
}
