// Study-engine scaling: the metered Fig-7 workload (full K40c
// configuration space through the wall-meter + CI measurement protocol)
// evaluated serially and on a shared thread pool at 2..N threads.  The
// thread count is what runs: parallelFor puts its caller to work beside
// the pool, so T threads are T-1 pool workers plus the caller.
//
// Every parallel run must be bitwise-identical to the serial baseline
// (per-config forked RNG streams + per-index output slots).
//
// Then one e2ebench study_metered request per device — four sizes, K40c
// n = 7168..10240 and P100 at twice those — run from a task on a
// 3-worker pool as the broker runs it, two ways, reps alternated: its
// sizes one after another (runWorkload each, one parallelFor per size)
// and one pass over all of them (runWorkloads, one parallelFor over
// every configuration of the sweep, longest window first).  It prints
// the median wall time, CPU / wall and whether both give the same bits.
//
// Emits BENCH_study.json (ns/config, configs/s, thread count) so the
// perf trajectory is tracked across PRs.  Exits 1 when any result is
// not bitwise-identical to its reference.
//
// Run as:  bench_study_scaling [maxThreads]   (default 8, at least 2)
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
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

double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// One schedule of the request: every wall time and CPU / wall, and the
// results of its last rep.
struct Schedule {
  const char* name;
  std::vector<double> wallS;
  std::vector<double> cpuPerWall;
  std::vector<core::WorkloadResult> results;
};

// Runs `schedule` as one task on `pool`, as the broker runs a study job,
// and records its wall time and CPU / wall.
template <typename Fn>
void timeOnPool(ThreadPool& pool, Schedule& out, Fn schedule) {
  std::promise<std::vector<core::WorkloadResult>> done;
  auto results = done.get_future();
  const double cpu0 = processCpuSeconds();
  const auto t0 = Clock::now();
  pool.submit([&done, &schedule] {
    try {
      done.set_value(schedule());
    } catch (...) {
      done.set_exception(std::current_exception());
    }
  });
  out.results = results.get();
  const double wall = secondsSince(t0);
  out.wallS.push_back(wall);
  out.cpuPerWall.push_back((processCpuSeconds() - cpu0) / wall);
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

  // One study_metered request per device, sizes one after another
  // against one pass, from a task on a 3-worker pool.
  constexpr int kReps = 9;
  constexpr int kWorkers = 3;
  Table sweepTable({"device", "sizes", "schedule", "median wall [ms]",
                    "CPU / wall", "vs one by one", "bitwise"});
  sweepTable.setTitle("study_metered request: 4 sizes on a " +
                      std::to_string(kWorkers) + "-worker pool, median of " +
                      std::to_string(kReps) + " alternated reps");
  ThreadPool brokerPool(kWorkers);
  for (const auto& [spec, nFirst] :
       {std::pair{hw::nvidiaK40c(), 7168}, std::pair{hw::nvidiaP100Pcie(),
                                                     2 * 7168}}) {
    const core::GpuEpStudy sweepStudy(
        apps::GpuMatMulApp(hw::GpuModel(spec), {}));
    std::vector<int> sizes;
    std::vector<std::uint64_t> seeds;
    Rng sweepRng(7);
    double sweepConfigs = 0.0;
    for (int k = 0; k < 4; ++k) {
      sizes.push_back(nFirst + k * nFirst / 7);  // steps of 1024 on K40c
      seeds.push_back(
          sweepRng.fork(static_cast<std::uint64_t>(sizes.back()) * 0x9E37ULL)
              .seed());
      sweepConfigs += static_cast<double>(
          sweepStudy.app().enumerateConfigs(sizes.back()).size());
    }
    Schedule oneByOne{"one by one", {}, {}, {}};
    Schedule onePass{"one pass", {}, {}, {}};
    bool same = true;
    for (int rep = 0; rep < kReps; ++rep) {
      timeOnPool(brokerPool, oneByOne, [&] {
        std::vector<core::WorkloadResult> out;
        for (std::size_t k = 0; k < sizes.size(); ++k) {
          Rng stream(seeds[k]);
          out.push_back(
              sweepStudy.runWorkload(sizes[k], stream, &brokerPool));
        }
        return out;
      });
      timeOnPool(brokerPool, onePass, [&] {
        std::vector<core::WorkloadResult> out;
        for (auto& a : sweepStudy.runWorkloads(sizes, seeds, &brokerPool)) {
          if (a.error) std::rethrow_exception(a.error);
          out.push_back(std::move(a.result));
        }
        return out;
      });
      same = same && sweepEqual(onePass.results, oneByOne.results);
    }
    allIdentical = allIdentical && same;
    const double byOneS = median(oneByOne.wallS);
    const std::string label = spec.name.substr(spec.name.find(' ') + 1);
    const std::string range = std::to_string(sizes.front()) + ".." +
                              std::to_string(sizes.back());
    for (const Schedule* sched : {&oneByOne, &onePass}) {
      const double wallS = median(sched->wallS);
      sweepTable.addRow({label, range, sched->name,
                         formatDouble(1e3 * wallS, 1),
                         formatDouble(median(sched->cpuPerWall), 2),
                         formatDouble(wallS / byOneS, 3),
                         same ? "yes" : "NO"});
      records.push_back({std::string("study_metered/") +
                             (sched == &onePass ? "one_pass/" : "one_by_one/") +
                             label,
                         kWorkers, 1e9 * wallS / sweepConfigs,
                         sweepConfigs / wallS});
    }
  }
  std::printf("\n");
  sweepTable.print(std::cout);

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
