// google-benchmark microbenchmarks for the library's core algorithms:
// Pareto fronts, FFTs, DGEMM, the statistics stack, the noise generator,
// the meter simulation, a cold model-direct study, and the serving path's
// line-JSON codec and cold tune.  Guards against performance regressions
// in the pieces the experiment harnesses and the daemon iterate millions
// of times.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/gpu_matmul_app.hpp"
#include "blas/dgemm.hpp"
#include "common/rng.hpp"
#include "core/study.hpp"
#include "fft/fft.hpp"
#include "hw/gpu_model.hpp"
#include "pareto/front.hpp"
#include "power/meter.hpp"
#include "serve/broker.hpp"
#include "serve/engine.hpp"
#include "serve/wire.hpp"
#include "stats/distributions.hpp"
#include "stats/ttest.hpp"

namespace {

using namespace ep;

std::vector<pareto::BiPoint> randomPoints(std::size_t n, Rng& rng) {
  std::vector<pareto::BiPoint> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pareto::BiPoint p;
    p.time = Seconds{rng.uniform(1.0, 10.0)};
    p.energy = Joules{rng.uniform(1.0, 10.0)};
    p.configId = i;
    pts.push_back(p);
  }
  return pts;
}

// Each front bench cycles through 64 seeded inputs per size: sorting
// one input over and over lets the branch predictor learn its compares
// (one 128-point set read ~3x faster than rotating ones).
constexpr std::size_t kRotatingInputs = 64;

std::vector<std::vector<pareto::BiPoint>> rotatingPointSets(
    std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<pareto::BiPoint>> sets;
  for (std::size_t k = 0; k < kRotatingInputs; ++k) {
    sets.push_back(randomPoints(n, rng));
  }
  return sets;
}

void BM_ParetoFront(benchmark::State& state) {
  const auto sets =
      rotatingPointSets(static_cast<std::size_t>(state.range(0)), 1);
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pareto::paretoFront(sets[next]));
    next = (next + 1) % sets.size();
  }
}
BENCHMARK(BM_ParetoFront)->Arg(128)->Arg(1024)->Arg(8192);

void BM_NonDominatedSort(benchmark::State& state) {
  const auto sets =
      rotatingPointSets(static_cast<std::size_t>(state.range(0)), 2);
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pareto::nonDominatedSort(sets[next]));
    next = (next + 1) % sets.size();
  }
}
BENCHMARK(BM_NonDominatedSort)->Arg(128)->Arg(1024)->Arg(8192);

void BM_LocalFront(benchmark::State& state) {
  const auto sets =
      rotatingPointSets(static_cast<std::size_t>(state.range(0)), 2);
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pareto::localFront(sets[next], 2));
    next = (next + 1) % sets.size();
  }
}
BENCHMARK(BM_LocalFront)->Arg(128)->Arg(1024)->Arg(8192);

void BM_FftRadix2(benchmark::State& state) {
  Rng rng(3);
  std::vector<fft::Complex> data(static_cast<std::size_t>(state.range(0)));
  for (auto& x : data) x = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  for (auto _ : state) {
    fft::fftRadix2(data, false);
    benchmark::ClobberMemory();
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FftRadix2)->Arg(1024)->Arg(16384)->Arg(131072);

void BM_FftBluestein(benchmark::State& state) {
  Rng rng(4);
  std::vector<fft::Complex> data(static_cast<std::size_t>(state.range(0)));
  for (auto& x : data) x = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  for (auto _ : state) {
    fft::fftBluestein(data, false);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FftBluestein)->Arg(1000)->Arg(10007);

void BM_DgemmBlocked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  std::vector<double> a(n * n), b(n * n), c(n * n, 0.0);
  for (auto& x : a) x = rng.uniform(-1, 1);
  for (auto& x : b) x = rng.uniform(-1, 1);
  for (auto _ : state) {
    blas::dgemmBlocked(n, 1.0, a, b, 0.0, c, 64);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(2 * n * n * n));
}
BENCHMARK(BM_DgemmBlocked)->Arg(64)->Arg(128)->Arg(256);

void BM_ThreadgroupDgemm(benchmark::State& state) {
  const std::size_t n = 256;
  Rng rng(6);
  std::vector<double> a(n * n), b(n * n), c(n * n, 0.0);
  for (auto& x : a) x = rng.uniform(-1, 1);
  for (auto& x : b) x = rng.uniform(-1, 1);
  blas::ThreadgroupConfig cfg;
  cfg.threadgroups = static_cast<std::size_t>(state.range(0));
  cfg.threadsPerGroup = 2;
  const blas::ThreadgroupDgemm dgemm(cfg);
  for (auto _ : state) {
    dgemm.run(n, 1.0, a, b, 0.0, c);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ThreadgroupDgemm)->Arg(1)->Arg(2)->Arg(4);

// studentTCritical keeps t*(95 %, dof) per integral dof after its first
// call.  The bisection case asks at the next double past 0.95, which
// the memo does not hold, so each call bisects from scratch; the hit
// case asks what the measurement protocol asks.
void studentTCriticalOverDofs(benchmark::State& state, double confidence) {
  double dof = 4.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::studentTCritical(confidence, dof));
    dof = dof < 200.0 ? dof + 1.0 : 4.0;
  }
}
void BM_StudentTCriticalBisection(benchmark::State& state) {
  studentTCriticalOverDofs(state, std::nextafter(0.95, 1.0));
}
BENCHMARK(BM_StudentTCriticalBisection);
void BM_StudentTCriticalMemoHit(benchmark::State& state) {
  studentTCriticalOverDofs(state, 0.95);
}
BENCHMARK(BM_StudentTCriticalMemoHit);

void BM_MeasurementProtocol(benchmark::State& state) {
  Rng rng(7);
  const stats::MeasurementProtocol protocol;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        protocol.run([&] { return rng.normal(100.0, 0.5); }));
  }
}
BENCHMARK(BM_MeasurementProtocol);

void BM_MeterRecord(benchmark::State& state) {
  power::ProfilePowerSource profile(Watts{100.0});
  profile.addSegment({Seconds{0.0}, Seconds{60.0}, Watts{80.0}});
  const power::WattsUpMeter meter;
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(meter.record(profile, Seconds{60.0}, rng));
  }
}
BENCHMARK(BM_MeterRecord);

// The metered sample path's parts.  Each simulated sample draws two
// polar normals, and each normal pays at least one glibc log: with
// BM_LogThroughput that is the per-sample floor bit-identity pins.

void BM_StandardNormals(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> z(n);
  Rng rng(10);
  for (auto _ : state) {
    rng.standardNormals(z.data(), n);
    benchmark::DoNotOptimize(z.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StandardNormals)->Arg(1)->Arg(256);

// glibc log back to back over r^2 values as the polar method sees them.
void BM_LogThroughput(benchmark::State& state) {
  constexpr std::size_t kValues = 4096;
  Rng rng(11);
  std::vector<double> r2(kValues);
  for (double& v : r2) v = 1.0 - rng.uniform(0.0, 1.0);  // (0, 1]
  std::vector<double> out(kValues);
  for (auto _ : state) {
    for (std::size_t i = 0; i < kValues; ++i) out[i] = std::log(r2[i]);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kValues));
}
BENCHMARK(BM_LogThroughput);

// A ~1,000 s metered window: kernel, then a 2 s uncore tail.
power::ProfilePowerSource meteredWindowProfile() {
  power::ProfilePowerSource profile(Watts{100.0});
  profile.addSegment({Seconds{0.0}, Seconds{998.0}, Watts{80.0}});
  profile.addSegment({Seconds{0.0}, Seconds{1000.0}, Watts{58.0}});
  return profile;
}

void BM_MeterRecordInto(benchmark::State& state) {
  const power::ProfilePowerSource profile = meteredWindowProfile();
  const power::WattsUpMeter meter;
  Rng rng(12);
  power::PowerTrace trace;
  std::int64_t samples = 0;
  for (auto _ : state) {
    meter.recordInto(profile, Seconds{1000.0}, rng, trace);
    benchmark::DoNotOptimize(trace.samples().data());
    samples += static_cast<std::int64_t>(trace.size());
  }
  state.SetItemsProcessed(samples);
}
BENCHMARK(BM_MeterRecordInto);

void BM_MeterRecordEnergy(benchmark::State& state) {
  const power::ProfilePowerSource profile = meteredWindowProfile();
  const power::WattsUpMeter meter;
  Rng rng(12);
  power::PowerTrace scratch;
  meter.recordInto(profile, Seconds{1000.0}, rng, scratch);
  const auto samples = static_cast<std::int64_t>(scratch.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        meter.recordEnergy(profile, Seconds{1000.0}, rng, scratch));
  }
  state.SetItemsProcessed(state.iterations() * samples);
}
BENCHMARK(BM_MeterRecordEnergy);

void BM_GpuModelMatMul(benchmark::State& state) {
  const hw::GpuModel model(hw::nvidiaP100Pcie());
  int bs = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.modelMatMul({10240, bs, 2, 4}));
    bs = bs % 32 + 1;
  }
}
BENCHMARK(BM_GpuModelMatMul);

// glibc pow back to back over the kernel times the roofline combination
// raises to the 12th power.  A staged model-direct configuration pays
// two of these (the compute time's and the p-norm's root), and its
// (n, BS) run one more: a 128-configuration study makes ~290 pow calls,
// which is the floor bit-identity pins.
void BM_PowThroughput(benchmark::State& state) {
  constexpr std::size_t kValues = 4096;
  Rng rng(13);
  std::vector<double> t(kValues);
  for (double& v : t) v = rng.uniform(1e-4, 10.0);
  std::vector<double> out(kValues);
  for (auto _ : state) {
    for (std::size_t i = 0; i < kValues; ++i) out[i] = std::pow(t[i], 12.0);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kValues));
}
BENCHMARK(BM_PowThroughput);

// One 128-configuration P100 workload (n = 10240) through the staged
// model: one hw::MatMulBatch call over the list in enumeration order,
// then every kernel model written out.
void BM_ModelDirectGrid(benchmark::State& state) {
  apps::GpuMatMulOptions opts;
  opts.useMeter = false;
  const apps::GpuMatMulApp app(hw::GpuModel(hw::nvidiaP100Pcie()), opts);
  const std::vector<hw::MatMulConfig> configs = app.enumerateConfigs(10240);
  std::vector<hw::KernelModel> out(configs.size());
  for (auto _ : state) {
    hw::MatMulBatch batch(app.model());
    batch.evaluate(configs);
    for (std::size_t i = 0; i < configs.size(); ++i) batch.write(i, out[i]);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(configs.size()));
}
BENCHMARK(BM_ModelDirectGrid);

// A cold model-direct study's two parts: BM_ModelDirectGrid above, and
// the fronts below.

// 64 seeded sizes from e2ebench's miss_json grid (multiples of 64 in
// [1024, 16320]) for the study benches below to cycle through, so none
// of them sorts one study's points over and over.
std::vector<int> rotatingStudySizes() {
  Rng rng(9);
  std::vector<int> sizes;
  for (std::size_t k = 0; k < kRotatingInputs; ++k) {
    sizes.push_back(1024 + 64 * static_cast<int>(rng.uniformInt(0, 239)));
  }
  return sizes;
}

// Rebuilding both fronts and the trade-offs of a 128-configuration
// P100 study.
void BM_FinalizeWorkload(benchmark::State& state) {
  apps::GpuMatMulOptions opts;
  opts.useMeter = false;
  const core::GpuEpStudy study(
      apps::GpuMatMulApp(hw::GpuModel(hw::nvidiaP100Pcie()), opts));
  std::vector<core::WorkloadResult> studies;
  for (const int n : rotatingStudySizes()) {
    Rng rng(static_cast<std::uint64_t>(n));
    studies.push_back(study.runWorkload(n, rng));
  }
  std::size_t next = 0;
  for (auto _ : state) {
    core::finalizeWorkload(studies[next]);
    benchmark::DoNotOptimize(studies[next].localFront.data());
    next = (next + 1) % studies.size();
  }
  state.counters["configs"] = static_cast<double>(studies[0].data.size());
}
BENCHMARK(BM_FinalizeWorkload);

// The whole serial cold study a cache miss pays for, as epserved's
// default engine runs it.
void BM_ColdModelDirectEvaluate(benchmark::State& state) {
  const serve::EpStudyEngine engine;
  const std::vector<int> sizes = rotatingStudySizes();
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.evaluate(serve::Device::P100, sizes[next]));
    next = (next + 1) % sizes.size();
  }
}
BENCHMARK(BM_ColdModelDirectEvaluate);

// The line-JSON tune shapes e2ebench's miss_json sends: both devices,
// sizes from its grid, its three budgets, report on, its trace ids.
std::vector<std::string> tuneLines() {
  constexpr const char* kBudgets[] = {"0.05", "0.11", "0.2"};
  std::vector<std::string> lines;
  for (int i = 0; i < 64; ++i) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"op\":\"tune\",\"device\":\"%s\",\"n\":%d,"
                  "\"maxDegradation\":%s,\"report\":true,"
                  "\"trace_id\":\"c%d-%x\"}",
                  i % 2 == 0 ? "p100" : "k40c", 1024 + 64 * ((i * 37) % 240),
                  kBudgets[i % 3], i % 4, 0x1000 + 97 * i);
    lines.emplace_back(line);
  }
  return lines;
}

// What the event thread pays to decode one tune line.
void BM_DecodeTuneLine(benchmark::State& state) {
  const std::vector<std::string> lines = tuneLines();
  std::size_t next = 0;
  for (auto _ : state) {
    std::string error;
    benchmark::DoNotOptimize(serve::wire::decodeRequest(lines[next], &error));
    next = (next + 1) % lines.size();
  }
}
BENCHMARK(BM_DecodeTuneLine);

// Rendering a tune answer with its ledger (report on) and trace id, as
// a cold P100 and K40c study's recommendations under the three budgets.
void BM_EncodeTuneResponse(benchmark::State& state) {
  const serve::EpStudyEngine engine;
  std::vector<serve::TuneResponse> responses;
  for (const serve::Device device : {serve::Device::P100, serve::Device::K40c}) {
    const core::WorkloadResult r = engine.evaluate(device, 10240);
    const core::EnergyAttribution attr = core::attributeEnergy(r);
    for (const double budget : {0.05, 0.11, 0.20}) {
      serve::TuneResponse resp;
      resp.recommendation = core::BiObjectiveTuner(budget).recommend(r.globalFront);
      resp.report.attributedJoules = attr.joules;
      resp.report.measurementWindows = attr.windows;
      resp.report.studiesExecuted = 1;
      resp.latency = Seconds{3.1e-4};
      responses.push_back(std::move(resp));
    }
  }
  const std::string traceId = "c2-1a2b";
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        serve::wire::encodeTuneResponse(responses[next], traceId, true));
    next = (next + 1) % responses.size();
  }
}
BENCHMARK(BM_EncodeTuneResponse);

// Process CPU per cold tune through a Broker over the model-direct
// engine, which runs inline: admission, the study on the calling
// thread (no pool hop), the ledger, the cache insert and eviction, and
// the tuner step.  256 keys (e2ebench's grid, both devices) cycle
// through a 64-entry cache, so every tune misses.
void BM_BrokerColdTune(benchmark::State& state) {
  serve::BrokerOptions opts;
  opts.threads = 2;
  opts.cacheCapacity = 64;
  serve::Broker broker(std::make_shared<serve::EpStudyEngine>(), opts);
  std::vector<serve::TuneRequest> keys;
  for (int i = 0; i < 128; ++i) {
    for (const serve::Device device :
         {serve::Device::P100, serve::Device::K40c}) {
      serve::TuneRequest req;
      req.device = device;
      req.n = 1024 + 64 * i;
      req.maxDegradation = 0.11;
      keys.push_back(req);
    }
  }
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(broker.tune(keys[next]));
    next = (next + 1) % keys.size();
  }
}
BENCHMARK(BM_BrokerColdTune)->MeasureProcessCPUTime()->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
