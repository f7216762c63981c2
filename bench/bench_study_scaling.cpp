// Study-engine scaling: the metered Fig-7 workload (full K40c
// configuration space through the wall-meter + CI measurement protocol)
// evaluated serially and on a shared thread pool at 2..N threads.  The
// thread count is what runs: parallelFor puts its caller to work beside
// the pool, so T threads are T-1 pool workers plus the caller.
//
// Two invariants are checked on every parallel run:
//   * results are bitwise-identical to the serial baseline (per-config
//     forked RNG streams + per-index output slots), and
//   * a nested shape — runSweep over sizes, each workload itself
//     parallel on the same pool — completes and matches too.
//
// Emits BENCH_study.json (ns/op, configs/s, thread count) so the perf
// trajectory is tracked across PRs.
//
// Run as:  bench_study_scaling [maxThreads]   (default 8, at least 2)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/gpu_matmul_app.hpp"
#include "bench_util.hpp"
#include "common/thread_pool.hpp"
#include "core/study.hpp"
#include "hw/gpu_model.hpp"
#include "hw/spec.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace ep;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool bitwiseEqual(const std::vector<apps::GpuDataPoint>& a,
                  const std::vector<apps::GpuDataPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time.value() != b[i].time.value() ||
        a[i].dynamicEnergy.value() != b[i].dynamicEnergy.value() ||
        a[i].repetitions != b[i].repetitions) {
      return false;
    }
  }
  return true;
}

bool sweepEqual(const std::vector<core::WorkloadResult>& a,
                const std::vector<core::WorkloadResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].n != b[i].n || !bitwiseEqual(a[i].data, b[i].data)) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const int maxThreads = std::max(2, argc > 1 ? std::atoi(argv[1]) : 8);
  const int n = 10240;  // Fig 7's larger K40c workload
  const std::vector<int> sweepSizes{8704, 10240};

  bench::printHeader(
      "Study-engine scaling: metered K40c N=" + std::to_string(n) +
          " across pool sizes",
      "n/a (performance harness; paper's Fig 7 study parallelized)");

  apps::GpuMatMulApp app(hw::GpuModel(hw::nvidiaK40c()), {});  // metered
  core::GpuEpStudy study(app);
  Rng rng(7);

  // Serial baseline (best of 3 to shed scheduler noise).
  double serialS = 1e300;
  core::WorkloadResult serial;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    serial = study.runWorkload(n, rng);
    serialS = std::min(serialS, secondsSince(t0));
  }
  const auto configs = static_cast<double>(serial.data.size());
  std::printf("serial: %zu configs in %.3f s (%.0f ns/config)\n\n",
              serial.data.size(), serialS, 1e9 * serialS / configs);

  std::vector<bench::BenchRecord> records;
  records.push_back({"runWorkload/metered", 1, 1e9 * serialS / configs,
                     configs / serialS});

  Table t({"threads", "pool workers", "wall [s]", "speedup", "configs/s",
           "bitwise"});
  t.setTitle("parallel runWorkload vs serial (threads = workers + caller)");
  bool allIdentical = true;
  std::vector<std::size_t> threadCounts;
  for (std::size_t c = 2; c <= static_cast<std::size_t>(maxThreads); c *= 2) {
    threadCounts.push_back(c);
  }
  for (std::size_t threads : threadCounts) {
    ThreadPool pool(threads - 1);
    double bestS = 1e300;
    core::WorkloadResult parallel;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      parallel = study.runWorkload(n, rng, &pool);
      bestS = std::min(bestS, secondsSince(t0));
    }
    const bool same = bitwiseEqual(parallel.data, serial.data);
    allIdentical = allIdentical && same;
    t.addRow({std::to_string(threads), std::to_string(pool.size()),
              formatDouble(bestS, 3), formatDouble(serialS / bestS, 2),
              formatDouble(configs / bestS, 0), same ? "yes" : "NO"});
    records.push_back({"runWorkload/metered/pool",
                       static_cast<int>(threads), 1e9 * bestS / configs,
                       configs / bestS});
  }
  t.print(std::cout);

  // Nested shape: parallel sweep over sizes, each workload parallel on
  // the same pool (what a serve-broker study job exercises).
  Rng sweepRng(7);
  const auto sweepT0 = Clock::now();
  const auto sweepSerial = study.runSweep(sweepSizes, sweepRng);
  const double sweepSerialS = secondsSince(sweepT0);
  ThreadPool pool(static_cast<std::size_t>(maxThreads) - 1);
  const auto sweepT1 = Clock::now();
  const auto sweepParallel = study.runSweep(sweepSizes, sweepRng, &pool);
  const double sweepParallelS = secondsSince(sweepT1);
  const bool sweepSame = sweepEqual(sweepParallel, sweepSerial);
  allIdentical = allIdentical && sweepSame;
  std::printf(
      "\nnested sweep (%zu sizes): serial %.3f s, %d-thread %.3f s "
      "(%.2fx), bitwise %s\n",
      sweepSizes.size(), sweepSerialS, maxThreads, sweepParallelS,
      sweepSerialS / sweepParallelS, sweepSame ? "yes" : "NO");

  if (!bench::writeBenchJson("BENCH_study.json", "study_scaling", records)) {
    return 1;
  }
  std::printf("wrote BENCH_study.json (%zu records)\n", records.size());

  if (!allIdentical) {
    std::fprintf(stderr,
                 "FAIL: parallel results are not bitwise-identical to "
                 "serial\n");
    return 1;
  }
  return 0;
}
