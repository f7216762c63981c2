// Model-calibration inspector.
//
// Dumps, for the paper's headline workloads, the noise-free model
// outputs: per-configuration (time, energy), the global and local Pareto
// fronts, trade-off numbers, and Fig 6 additivity errors — next to the
// paper's target values.  Used while tuning ephw response constants;
// kept in-tree so future model changes can be re-checked quickly.
#include <cstdio>

#include <fstream>
#include <string_view>

#include "apps/gpu_matmul_app.hpp"
#include "core/study.hpp"
#include "energymodel/additivity.hpp"
#include "hw/gpu_model.hpp"
#include "hw/spec.hpp"
#include "obs/trace.hpp"

using namespace ep;

namespace {

void dumpResult(const char* tag, const core::WorkloadResult& r, bool listAll) {
  std::printf("\n=== %s N=%d: %zu configs ===\n", tag, r.n, r.data.size());
  if (listAll) {
    for (const auto& d : r.data) {
      std::printf("  %-18s t=%9.3f s  E=%10.1f J  occ=%.2f boost=%.3f%s\n",
                  d.label().c_str(), d.time.value(),
                  d.dynamicEnergy.value(), d.model.occupancy.fraction,
                  d.model.boostRatio, d.model.uncoreActive ? " UNCORE" : "");
    }
  }
  std::printf("global front (%zu):\n", r.globalFront.size());
  for (const auto& p : r.globalFront) {
    std::printf("  %-18s t=%9.3f s  E=%10.1f J\n", p.label.c_str(),
                p.time.value(), p.energy.value());
  }
  std::printf("local front (%zu):\n", r.localFront.size());
  for (const auto& p : r.localFront) {
    std::printf("  %-18s t=%9.3f s  E=%10.1f J\n", p.label.c_str(),
                p.time.value(), p.energy.value());
  }
  std::printf("global tradeoff: savings=%.1f%% degradation=%.1f%%\n",
              100.0 * r.globalTradeoff.maxEnergySavings,
              100.0 * r.globalTradeoff.performanceDegradation);
  if (r.localTradeoff) {
    std::printf("local tradeoff:  savings=%.1f%% degradation=%.1f%%\n",
                100.0 * r.localTradeoff->maxEnergySavings,
                100.0 * r.localTradeoff->performanceDegradation);
  }
}

// Evaluate `sizes` for one device, optionally through the crash-safe
// sweep journal (--checkpoint): workloads already recorded are restored
// instead of recomputed, and each completed workload is appended, so an
// interrupted calibration run resumes where it stopped.
void dumpWorkloads(const char* tag, const core::GpuEpStudy& study,
                   const std::vector<int>& sizes, bool listAll,
                   const char* checkpointDir) {
  Rng rng(42);
  core::SweepOptions opts;
  if (checkpointDir) {
    opts.checkpointPath =
        std::string(checkpointDir) + "/calibrate-" + tag + ".journal";
  }
  const auto sweep = study.runSweepChecked(sizes, rng, opts);
  if (checkpointDir) {
    std::printf("\n%s: resumed %zu of %zu workloads from %s\n", tag,
                sweep.resumedWorkloads, sizes.size(),
                opts.checkpointPath.c_str());
  }
  for (const auto& r : sweep.results) dumpResult(tag, r, listAll);
}

void dumpAdditivity(const char* tag, const apps::GpuMatMulApp& app, int bs) {
  std::printf("\n=== %s Fig6 additivity (BS=%d) ===\n", tag, bs);
  for (int n : {5120, 8192, 10240, 12288, 14336, 15360, 16384, 18432}) {
    hw::MatMulConfig base{n, bs, 1, 1};
    if (!app.model().isLaunchable(base)) continue;
    const auto m1 = app.model().modelMatMul(base);
    std::printf("  N=%6d:", n);
    for (int g : {2, 4}) {
      hw::MatMulConfig cfg{n, bs, g, 1};
      const auto mg = app.model().modelMatMul(cfg);
      const auto rec = model::analyzeEnergyAdditivity(
          m1.dynamicEnergy().value(), mg.dynamicEnergy().value(), g);
      std::printf("  G=%d err=%5.1f%%", g, 100.0 * rec.error);
    }
    std::printf("   (t1=%.2f s, uncore=%d)\n", m1.time.value(),
                m1.uncoreActive ? 1 : 0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool listAll = false;
  const char* tracePath = nullptr;
  const char* checkpointDir = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--all") {
      listAll = true;
    } else if (a == "--trace" && i + 1 < argc) {
      tracePath = argv[++i];
    } else if (a == "--checkpoint" && i + 1 < argc) {
      checkpointDir = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: calibrate [--all] [--trace out.json]"
                   " [--checkpoint dir]\n");
      return 2;
    }
  }
  if (tracePath) obs::Tracer::global().setEnabled(true);

  {
    // Top-level span so the exported trace attributes the whole run;
    // it must close before export, so the scope ends before the dump.
    obs::Span run("calibrate/run");

    apps::GpuMatMulOptions fast;
    fast.useMeter = false;  // noise-free model output for calibration

    apps::GpuMatMulApp p100(hw::GpuModel(hw::nvidiaP100Pcie()), fast);
    apps::GpuMatMulApp k40c(hw::GpuModel(hw::nvidiaK40c()), fast);
    core::GpuEpStudy p100Study(p100);
    core::GpuEpStudy k40cStudy(k40c);

    std::printf("paper targets:\n");
    std::printf("  P100 N=10240: global front 3 pts, (50%%, 11%%)\n");
    std::printf("  P100 N=18432: front 2 pts, (12.5%%, 2.5%%); BS<=30: (24%%, 8%%)\n");
    std::printf("  P100 sweep:   global fronts avg 2 / max 3\n");
    std::printf("  K40c:         global front 1 pt (BS=32); local avg 4 / max 5; (18%%, 7%%)\n");

    dumpWorkloads("P100", p100Study, {10240, 14336, 18432}, listAll,
                  checkpointDir);
    dumpWorkloads("K40c", k40cStudy, {8704, 10240}, listAll, checkpointDir);

    dumpAdditivity("P100", p100, 32);
    dumpAdditivity("K40c", k40c, 32);
  }

  if (tracePath) {
    std::ofstream out(tracePath);
    out << obs::Tracer::global().exportChromeTrace();
    if (!out) {
      std::fprintf(stderr, "calibrate: cannot write trace to %s\n", tracePath);
      return 1;
    }
    std::fprintf(stderr, "calibrate: wrote %zu trace events to %s\n",
                 obs::Tracer::global().recordedCount(), tracePath);
  }
  return 0;
}
