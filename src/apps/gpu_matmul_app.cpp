#include "apps/gpu_matmul_app.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <limits>
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
  measure(out, rng);
  return out;
}

void GpuMatMulApp::measure(GpuDataPoint& p, Rng& rng) const {
  // Build the node's ground-truth power profile for one execution.
  obs::Span span("power/measure_window");
  // epprof kernel frame: CPU and energy samples taken during this
  // config's measurement attribute to the DGEMM kernel.
  obs::ProfileFrame kernelFrame("kernel/dgemm");
  // Attribution scope for the anomaly watchdog: windows measured here
  // belong to this device model.
  power::MeasureScopeLabel scopeLabel(model_.spec().name.c_str());
  const hw::KernelModel& model = p.model;
  power::ProfilePowerSource profile(nodeIdlePower());
  profile.addSegment({Seconds{0.0}, model.time, model.corePower});
  Seconds tail{0.0};
  if (model.uncoreActive) {
    tail = model.uncoreTail;
    profile.addSegment({Seconds{0.0}, model.time + tail, model.uncorePower});
  }
  const power::EnergyMeasurer measurer(
      detail::makeMeter(options_.meter, options_.faults), nodeIdlePower());
  const power::MeasuredEnergy measured =
      measurer.measure(profile, model.time, rng, tail, options_.measurement,
                       options_.robustness);
  p.time = measured.mean.executionTime;
  p.dynamicEnergy = measured.mean.dynamicEnergy;
  p.repetitions = measured.dynamicEnergyStats.repetitions;
  p.remeasures = measured.faults.recoveries();
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
  if (options_.useMeter) {
    GpuWorkload w;
    w.n = n;
    w.seed = rng.seed();
    runWorkloads({&w, 1}, pool);
    if (w.error) std::rethrow_exception(w.error);
    if (failures != nullptr) {
      failures->insert(failures->end(),
                       std::make_move_iterator(w.failures.begin()),
                       std::make_move_iterator(w.failures.end()));
    }
    return std::move(w.data);
  }

  // Model-direct configs cost ~0.1 us each and draw no randomness:
  // evaluated inline on the calling thread, with no forked stream and
  // no pool hand-off (either would cost more than the config), by one
  // batch over the list.  Under SkipAndRecord the configurations that
  // cannot launch leave the list first, recorded in enumeration order.
  std::vector<hw::MatMulConfig> configs = enumerateConfigs(n);
  if (options_.failPolicy == fault::FailPolicy::SkipAndRecord) {
    std::size_t kept = 0;
    for (const hw::MatMulConfig& cfg : configs) {
      try {
        model_.requireLaunchable(cfg);
        configs[kept++] = cfg;
      } catch (const EpError& e) {
        detail::configFailureCounter().inc();
        if (failures != nullptr) failures->push_back({cfg, e.what()});
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

namespace {

constexpr std::size_t kNoFailure = std::numeric_limits<std::size_t>::max();

// Lowers `first` to `i` unless it already holds a lower index.
void lowerTo(std::atomic<std::size_t>& first, std::size_t i) {
  std::size_t seen = first.load(std::memory_order_relaxed);
  while (i < seen &&
         !first.compare_exchange_weak(seen, i, std::memory_order_relaxed)) {
  }
}

std::string messageOf(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown measurement failure";
  }
}

}  // namespace

void GpuMatMulApp::runWorkloads(std::span<GpuWorkload> workloads,
                                ThreadPool* pool) const {
  if (!options_.useMeter) {
    for (GpuWorkload& w : workloads) {
      try {
        Rng rng(w.seed);
        w.data = runWorkload(w.n, rng, nullptr, &w.failures);
      } catch (...) {
        w.error = std::current_exception();
      }
    }
    return;
  }

  const bool skip = options_.failPolicy == fault::FailPolicy::SkipAndRecord;
  // Slot i of workload w is pass slot first[w] + i.  A slot's error is
  // fatal to its workload under FailFast, and under SkipAndRecord when
  // it is not an EpError; fatal[w] holds the lowest fatal index so far.
  // A pair above it is skipped: the serial path never reaches it, so
  // the error a workload carries is the serial one whatever the order.
  std::vector<std::size_t> first(workloads.size());
  std::vector<std::atomic<std::size_t>> fatal(workloads.size());
  std::vector<std::exception_ptr> errors;
  // Called in a handler: keeps the error of slot i of workload w.
  const auto fail = [&](std::size_t w, std::size_t i, bool fatalError) {
    errors[first[w] + i] = std::current_exception();
    if (fatalError) lowerTo(fatal[w], i);
  };
  {
    // The model first: one batch per workload writes each slot's kernel
    // model, which its measurement then reads.  A configuration that
    // cannot be resident fails here, as modelMatMul would fail it.
    hw::MatMulBatch batch(model_);
    std::vector<hw::MatMulConfig> live;
    std::vector<std::uint32_t> at;  // the slot of live[j]
    for (std::size_t w = 0; w < workloads.size(); ++w) {
      GpuWorkload& wl = workloads[w];
      const std::vector<hw::MatMulConfig> configs = enumerateConfigs(wl.n);
      first[w] = errors.size();
      fatal[w].store(kNoFailure, std::memory_order_relaxed);
      errors.resize(errors.size() + configs.size());
      wl.data.assign(configs.size(), GpuDataPoint{});
      live.clear();
      at.clear();
      for (std::uint32_t i = 0; i < configs.size(); ++i) {
        wl.data[i].config = configs[i];
        try {
          model_.requireLaunchable(configs[i]);
          live.push_back(configs[i]);
          at.push_back(i);
        } catch (const EpError&) {
          fail(w, i, !skip);
        }
      }
      batch.evaluate(live);
      for (std::size_t j = 0; j < live.size(); ++j) {
        batch.write(j, wl.data[at[j]].model);
      }
    }
  }

  // The pass's pairs: slot i of workload w for every modelled slot.
  struct Pair {
    std::uint32_t w = 0;
    std::uint32_t i = 0;
  };
  std::vector<Pair> order;
  order.reserve(errors.size());
  for (std::uint32_t w = 0; w < workloads.size(); ++w) {
    for (std::uint32_t i = 0; i < workloads[w].data.size(); ++i) {
      if (!errors[first[w] + i]) order.push_back({w, i});
    }
  }

  // Each pair forks its workload's stream (fork() reads just the seed)
  // and writes only its own slot, so the order cannot affect the bits.
  const auto measureOne = [&](std::size_t k) {
    const Pair pair = order[k];
    if (pair.i > fatal[pair.w].load(std::memory_order_relaxed)) return;
    GpuWorkload& w = workloads[pair.w];
    GpuDataPoint& p = w.data[pair.i];
    try {
      Rng rng = Rng(w.seed).fork(forkSalt(p.config));
      measure(p, rng);
    } catch (const EpError&) {
      fail(pair.w, pair.i, !skip);
    } catch (...) {
      fail(pair.w, pair.i, true);
    }
  };
  if (pool == nullptr || order.size() < 2) {
    for (std::size_t k = 0; k < order.size(); ++k) measureOne(k);
  } else {
    // Longest window first: the four BS = 1 windows hold most of a
    // size's meter samples, so starting them first leaves only short
    // pairs to fill the pool at the end.  Pairs are distinct, so the
    // order is total.  Grain 1: one CI-looped measurement per pair
    // dwarfs scheduling overhead, and fine grains load-balance the
    // uneven repetition counts.
    // A pair's window is its model's measurement window: the kernel
    // time plus the uncore tail when that is active.
    const auto window = [&workloads](const Pair& pair) {
      const hw::KernelModel& m = workloads[pair.w].data[pair.i].model;
      return m.uncoreActive ? m.time + m.uncoreTail : m.time;
    };
    std::sort(order.begin(), order.end(),
              [&window](const Pair& a, const Pair& b) {
                const Seconds wa = window(a);
                const Seconds wb = window(b);
                if (wa != wb) return wa > wb;
                if (a.w != b.w) return a.w < b.w;
                return a.i < b.i;
              });
    obs::Span span("study/parallel_eval");
    pool->parallelFor(0, order.size(), measureOne, /*grain=*/1);
  }

  // Each workload's outcome, failures compacted in enumeration order.
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    GpuWorkload& wl = workloads[w];
    const std::exception_ptr* slotErrors = errors.data() + first[w];
    if (const std::size_t f = fatal[w].load(std::memory_order_relaxed);
        f != kNoFailure) {
      wl.error = slotErrors[f];
      std::vector<GpuDataPoint>().swap(wl.data);
      continue;
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < wl.data.size(); ++i) {
      if (slotErrors[i]) {
        detail::configFailureCounter().inc();
        wl.failures.push_back({wl.data[i].config, messageOf(slotErrors[i])});
      } else {
        wl.data[kept++] = wl.data[i];
      }
    }
    wl.data.resize(kept);
  }
}

std::vector<pareto::BiPoint> GpuMatMulApp::toPoints(
    const std::vector<GpuDataPoint>& data) {
  std::vector<pareto::BiPoint> pts(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) data[i].writePoint(i, pts[i]);
  return pts;
}

}  // namespace ep::apps
