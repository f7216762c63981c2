#include "apps/gpu_matmul_app.hpp"

#include <algorithm>
#include <charconv>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "apps/detail.hpp"
#include "common/error.hpp"
#include "fault/faulty_meter.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "power/observer.hpp"

namespace ep::apps {
namespace detail {

std::shared_ptr<const power::Meter> makeMeter(
    const power::MeterOptions& meter, const fault::FaultInjectionOptions& faults) {
  if (faults.enabled()) {
    return std::make_shared<const fault::FaultyMeter>(
        power::WattsUpMeter(meter), faults);
  }
  return std::make_shared<const power::WattsUpMeter>(meter);
}

obs::Counter& configFailureCounter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "ep_study_config_failures_total",
      "Configurations skipped by SkipAndRecord after a measurement failure");
  return c;
}

}  // namespace detail
}  // namespace ep::apps

namespace ep::apps {

pareto::BiPoint GpuDataPoint::toPoint(std::uint64_t id) const {
  pareto::BiPoint p;
  writePoint(id, p);
  return p;
}

void GpuDataPoint::writePoint(std::uint64_t id, pareto::BiPoint& p) const {
  p.time = time;
  p.energy = dynamicEnergy;
  p.configId = id;
  // "BS=<bs> G=<g> R=<r>", written into one stack buffer.
  constexpr std::ptrdiff_t kIntChars = 11;  // "-2147483648"
  char buf[3 * (3 + kIntChars)];
  char* end = buf;
  const auto field = [&](std::string_view name, int v) {
    end = std::copy(name.begin(), name.end(), end);
    end = std::to_chars(end, end + kIntChars, v).ptr;
  };
  field("BS=", config.bs);
  field(" G=", config.g);
  field(" R=", config.r);
  p.label.assign(buf, end);
}

std::string GpuDataPoint::label() const { return toPoint(0).label; }

GpuMatMulApp::GpuMatMulApp(hw::GpuModel model, GpuMatMulOptions options)
    : model_(std::move(model)), options_(options) {
  EP_REQUIRE(options_.totalProducts >= 1, "workload needs >= 1 product");
  EP_REQUIRE(options_.bsMax >= 1, "invalid BS range");
}

Watts GpuMatMulApp::nodeIdlePower() const {
  return kHostIdlePower + model_.spec().boardIdlePower;
}

std::vector<hw::MatMulConfig> GpuMatMulApp::enumerateConfigs(int n) const {
  std::vector<hw::MatMulConfig> out;
  for (int bs = 1; bs <= options_.bsMax; ++bs) {
    for (int g = 1; g <= kGMax; ++g) {
      if (options_.totalProducts % g != 0) continue;
      hw::MatMulConfig cfg;
      cfg.n = n;
      cfg.bs = bs;
      cfg.g = g;
      cfg.r = options_.totalProducts / g;
      if (model_.isLaunchable(cfg)) out.push_back(cfg);
    }
  }
  return out;
}

std::vector<hw::MatMulConfig> GpuMatMulApp::additivityConfigs(int n, int bs,
                                                              int gMax,
                                                              int r) const {
  std::vector<hw::MatMulConfig> out;
  for (int g = 1; g <= gMax; ++g) {
    hw::MatMulConfig cfg;
    cfg.n = n;
    cfg.bs = bs;
    cfg.g = g;
    cfg.r = r;
    if (model_.isLaunchable(cfg)) out.push_back(cfg);
  }
  return out;
}

void GpuMatMulApp::modelPoint(const hw::MatMulBatch& batch, std::size_t i,
                              GpuDataPoint& out) {
  batch.write(i, out.model);
  out.config = batch.config(i);
  out.time = out.model.time;
  out.dynamicEnergy = out.model.dynamicEnergy();
  out.repetitions = 1;
  out.remeasures = 0;
  // epprof energy profile, model-direct mode: the ledger attributes
  // these model joules per config, so the flamegraph folds the same
  // quantity under the kernel frame to stay reconcilable.
  if (obs::profilerArmed()) {
    obs::ProfileFrame kernelFrame("kernel/dgemm");
    obs::Profiler::global().recordEnergySample(
        out.dynamicEnergy.value(), obs::currentContext().traceId);
  }
}

GpuDataPoint GpuMatMulApp::runConfig(const hw::MatMulConfig& cfg,
                                     Rng& rng) const {
  if (!options_.useMeter) {
    hw::MatMulBatch batch(model_);
    batch.evaluate({&cfg, 1});
    GpuDataPoint out;
    modelPoint(batch, 0, out);
    return out;
  }

  GpuDataPoint out;
  out.config = cfg;
  out.model = model_.modelMatMul(cfg);

  // Build the node's ground-truth power profile for one execution.
  obs::Span span("power/measure_window");
  // epprof kernel frame: CPU and energy samples taken during this
  // config's measurement attribute to the DGEMM kernel.
  obs::ProfileFrame kernelFrame("kernel/dgemm");
  // Attribution scope for the anomaly watchdog: windows measured here
  // belong to this device model.
  power::MeasureScopeLabel scopeLabel(model_.spec().name.c_str());
  power::ProfilePowerSource profile(nodeIdlePower());
  profile.addSegment({Seconds{0.0}, out.model.time, out.model.corePower});
  Seconds tail{0.0};
  if (out.model.uncoreActive) {
    tail = out.model.uncoreTail;
    profile.addSegment(
        {Seconds{0.0}, out.model.time + tail, out.model.uncorePower});
  }
  const power::EnergyMeasurer measurer(
      detail::makeMeter(options_.meter, options_.faults), nodeIdlePower());
  const power::MeasuredEnergy measured =
      measurer.measure(profile, out.model.time, rng, tail,
                       options_.measurement, options_.robustness);
  out.time = measured.mean.executionTime;
  out.dynamicEnergy = measured.mean.dynamicEnergy;
  out.repetitions = measured.dynamicEnergyStats.repetitions;
  out.remeasures = measured.faults.recoveries();
  return out;
}

std::uint64_t GpuMatMulApp::forkSalt(const hw::MatMulConfig& cfg) {
  std::uint64_t h = mix64(0, static_cast<std::uint64_t>(cfg.n));
  h = mix64(h, static_cast<std::uint64_t>(cfg.bs));
  h = mix64(h, static_cast<std::uint64_t>(cfg.g));
  h = mix64(h, static_cast<std::uint64_t>(cfg.r));
  return h;
}

std::vector<GpuDataPoint> GpuMatMulApp::runWorkload(
    int n, Rng& rng, ThreadPool* pool,
    std::vector<GpuConfigFailure>* failures) const {
  std::vector<hw::MatMulConfig> configs = enumerateConfigs(n);
  const bool skip = options_.failPolicy == fault::FailPolicy::SkipAndRecord;
  const auto recordFailure = [&](const hw::MatMulConfig& cfg,
                                 std::string error) {
    detail::configFailureCounter().inc();
    if (failures != nullptr) failures->push_back({cfg, std::move(error)});
  };
  if (!options_.useMeter) {
    // Model-direct configs cost ~0.1 us each and draw no randomness:
    // evaluated inline on the calling thread, with no forked stream and
    // no pool hand-off (either would cost more than the config), by one
    // batch over the list.  Under SkipAndRecord the configurations that
    // cannot launch leave the list first, recorded in enumeration order.
    if (skip) {
      std::size_t kept = 0;
      for (const hw::MatMulConfig& cfg : configs) {
        try {
          model_.requireLaunchable(cfg);
          configs[kept++] = cfg;
        } catch (const EpError& e) {
          recordFailure(cfg, e.what());
        }
      }
      configs.resize(kept);
    }
    hw::MatMulBatch batch(model_);
    batch.evaluate(configs);
    // Each point is written once, into `p`, and copied: GCC would
    // default-construct each element of a sized vector through a rep
    // stos, which costs ~3x the copy, before it is written.
    std::vector<GpuDataPoint> out;
    out.reserve(configs.size());
    GpuDataPoint p;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      modelPoint(batch, i, p);
      out.push_back(p);
    }
    return out;
  }

  std::vector<GpuDataPoint> out(configs.size());
  // Under SkipAndRecord errors are captured per slot (parallelFor never
  // sees an exception) and compacted below in enumeration order, which
  // keeps serial == parallel identity even for a failing campaign.
  std::vector<std::string> errs;
  std::vector<char> failed;
  if (skip) {
    errs.resize(configs.size());
    failed.assign(configs.size(), 0);
  }
  // Each slot is owned by exactly one index and each config draws only
  // from its own forked stream (fork() is const and reads just the
  // seed), so execution order cannot affect the result.
  const auto evalOne = [&](std::size_t i) {
    const auto write = [&] {
      Rng configRng = rng.fork(forkSalt(configs[i]));
      out[i] = runConfig(configs[i], configRng);
    };
    if (!skip) {
      write();
      return;
    }
    try {
      write();
    } catch (const EpError& e) {
      failed[i] = 1;
      errs[i] = e.what();
    }
  };
  if (pool == nullptr || configs.size() < 2) {
    for (std::size_t i = 0; i < configs.size(); ++i) evalOne(i);
  } else {
    // Grain 1: one CI-looped measurement per config dwarfs scheduling
    // overhead, and fine grains load-balance the uneven repetition
    // counts.
    obs::Span span("study/parallel_eval");
    pool->parallelFor(0, configs.size(), evalOne, /*grain=*/1);
  }
  if (skip) {
    std::vector<GpuDataPoint> kept;
    kept.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      if (failed[i] != 0) {
        recordFailure(configs[i], std::move(errs[i]));
      } else {
        kept.push_back(std::move(out[i]));
      }
    }
    out = std::move(kept);
  }
  return out;
}

std::vector<pareto::BiPoint> GpuMatMulApp::toPoints(
    const std::vector<GpuDataPoint>& data) {
  std::vector<pareto::BiPoint> pts(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) data[i].writePoint(i, pts[i]);
  return pts;
}

}  // namespace ep::apps
