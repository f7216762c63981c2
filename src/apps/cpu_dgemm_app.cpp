#include "apps/cpu_dgemm_app.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "apps/detail.hpp"
#include "common/error.hpp"
#include "blas/dgemm.hpp"
#include "common/mathutil.hpp"
#include "obs/profile_frames.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace ep::apps {

pareto::BiPoint CpuDataPoint::toPoint(std::uint64_t id) const {
  pareto::BiPoint p;
  p.time = time;
  p.energy = dynamicEnergy;
  p.configId = id;
  p.label = label();
  return p;
}

std::string CpuDataPoint::label() const {
  const char* variant =
      config.variant == hw::BlasVariant::IntelMklLike ? "mkl" : "openblas";
  const char* part =
      config.partition == hw::PartitionScheme::Horizontal ? "hor" : "sq";
  return std::string(variant) + " " + part +
         " p=" + std::to_string(config.threadgroups) +
         " t=" + std::to_string(config.threadsPerGroup);
}

CpuDgemmApp::CpuDgemmApp(hw::CpuModel model, CpuDgemmOptions options)
    : model_(std::move(model)), options_(options) {}

std::vector<hw::CpuDgemmConfig> CpuDgemmApp::enumerateConfigs(
    int n, hw::BlasVariant variant) const {
  std::vector<hw::CpuDgemmConfig> out;
  const auto& spec = model_.spec();
  const auto groupCounts = divisorsOf(spec.physicalCores());
  for (const auto scheme :
       {hw::PartitionScheme::Horizontal, hw::PartitionScheme::Square}) {
    for (const std::uint64_t p : groupCounts) {
      for (int t = 1;
           static_cast<int>(p) * t <= spec.logicalCores(); ++t) {
        hw::CpuDgemmConfig cfg;
        cfg.n = n;
        cfg.variant = variant;
        cfg.partition = scheme;
        cfg.threadgroups = static_cast<int>(p);
        cfg.threadsPerGroup = t;
        if (model_.isRunnable(cfg)) out.push_back(cfg);
      }
    }
  }
  return out;
}

CpuDataPoint CpuDgemmApp::runConfig(const hw::CpuDgemmConfig& cfg,
                                    Rng& rng) const {
  CpuDataPoint out;
  out.config = cfg;
  out.model = model_.modelDgemm(cfg);
  out.gflops = out.model.gflops;

  // Per-run utilization measurement: /proc/stat deltas include OS noise.
  double sumU = 0.0;
  for (double u : out.model.coreUtilization) {
    const double jitter =
        u > 0.0 ? rng.normal(0.0, kUtilizationJitter) : 0.0;
    sumU += std::clamp(u + jitter, 0.0, 1.0);
  }
  out.avgUtilizationPct =
      100.0 * sumU / static_cast<double>(out.model.coreUtilization.size());

  if (!options_.useMeter) {
    out.time = out.model.time;
    out.dynamicPower = out.model.dynamicPower;
    out.dynamicEnergy = out.model.dynamicEnergy();
    // epprof energy profile, model-direct mode: fold the same joules
    // the ledger attributes under the kernel frame.
    if (obs::profilerArmed()) {
      obs::ProfileFrame kernelFrame("kernel/dgemm");
      obs::Profiler::global().recordEnergySample(
          out.dynamicEnergy.value(), obs::currentContext().traceId);
    }
    return out;
  }

  // epprof kernel frame: measurement CPU/joules attribute to DGEMM.
  obs::ProfileFrame kernelFrame("kernel/dgemm");
  power::ProfilePowerSource profile(model_.spec().nodeIdlePower);
  profile.addSegment({Seconds{0.0}, out.model.time, out.model.dynamicPower});
  const power::EnergyMeasurer measurer(
      detail::makeMeter(options_.meter, options_.faults),
      model_.spec().nodeIdlePower);
  const power::MeasuredEnergy measured =
      measurer.measure(profile, out.model.time, rng, Seconds{0.0},
                       options_.measurement, options_.robustness);
  out.time = measured.mean.executionTime;
  out.dynamicEnergy = measured.mean.dynamicEnergy;
  out.dynamicPower = out.dynamicEnergy / out.time;
  return out;
}

std::uint64_t CpuDgemmApp::forkSalt(const hw::CpuDgemmConfig& cfg) {
  std::uint64_t h = mix64(0, static_cast<std::uint64_t>(cfg.n));
  h = mix64(h, cfg.variant == hw::BlasVariant::IntelMklLike ? 1ULL : 2ULL);
  h = mix64(h, cfg.partition == hw::PartitionScheme::Horizontal ? 1ULL : 2ULL);
  h = mix64(h, static_cast<std::uint64_t>(cfg.threadgroups));
  h = mix64(h, static_cast<std::uint64_t>(cfg.threadsPerGroup));
  return h;
}

std::vector<CpuDataPoint> CpuDgemmApp::runWorkload(
    int n, hw::BlasVariant variant, Rng& rng, ThreadPool* pool,
    std::vector<CpuConfigFailure>* failures) const {
  const std::vector<hw::CpuDgemmConfig> configs = enumerateConfigs(n, variant);
  std::vector<CpuDataPoint> out(configs.size());
  const bool skip = options_.failPolicy == fault::FailPolicy::SkipAndRecord;
  std::vector<std::string> errs(configs.size());
  std::vector<char> failed(configs.size(), 0);
  // Error handling mirrors GpuMatMulApp::runWorkload: capture per slot,
  // compact in enumeration order, so a failing campaign stays bitwise
  // identical between the serial and the parallel path.
  const auto evalOne = [&](std::size_t i) {
    Rng configRng = rng.fork(forkSalt(configs[i]));
    if (!skip) {
      out[i] = runConfig(configs[i], configRng);
      return;
    }
    try {
      out[i] = runConfig(configs[i], configRng);
    } catch (const EpError& e) {
      failed[i] = 1;
      errs[i] = e.what();
    }
  };
  if (pool == nullptr || configs.size() < 2) {
    for (std::size_t i = 0; i < configs.size(); ++i) evalOne(i);
  } else {
    obs::Span span("study/parallel_eval");
    pool->parallelFor(0, configs.size(), evalOne, /*grain=*/1);
  }
  if (skip) {
    std::vector<CpuDataPoint> kept;
    kept.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      if (failed[i] != 0) {
        detail::configFailureCounter().inc();
        if (failures != nullptr) {
          failures->push_back({configs[i], std::move(errs[i])});
        }
      } else {
        kept.push_back(std::move(out[i]));
      }
    }
    out = std::move(kept);
  }
  return out;
}

double CpuDgemmApp::functionalCheck(const hw::CpuDgemmConfig& cfg,
                                    std::size_t smallN, Rng& rng) {
  EP_REQUIRE(smallN >= 2, "functional check needs a real matrix");
  std::vector<double> a(smallN * smallN), b(smallN * smallN);
  for (auto& x : a) x = rng.uniform(-1.0, 1.0);
  for (auto& x : b) x = rng.uniform(-1.0, 1.0);
  std::vector<double> expected(smallN * smallN, 0.0);
  blas::dgemmNaive(smallN, 1.0, a, b, 0.0, expected);

  blas::ThreadgroupConfig tg;
  tg.threadgroups = static_cast<std::size_t>(cfg.threadgroups);
  tg.threadsPerGroup = static_cast<std::size_t>(cfg.threadsPerGroup);
  std::vector<double> c(smallN * smallN, 0.0);
  blas::ThreadgroupDgemm(tg).run(smallN, 1.0, a, b, 0.0, c);

  double maxErr = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    maxErr = std::max(maxErr, std::fabs(c[i] - expected[i]));
  }
  return maxErr;
}

std::vector<pareto::BiPoint> CpuDgemmApp::toPoints(
    const std::vector<CpuDataPoint>& data) {
  std::vector<pareto::BiPoint> pts;
  pts.reserve(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    pts.push_back(data[i].toPoint(i));
  }
  return pts;
}

}  // namespace ep::apps
