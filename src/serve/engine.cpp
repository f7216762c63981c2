#include "serve/engine.hpp"

#include "apps/gpu_matmul_app.hpp"
#include "common/rng.hpp"
#include "hw/gpu_model.hpp"
#include "hw/spec.hpp"

namespace ep::serve {

std::vector<core::WorkloadAttempt> TuningEngine::evaluateList(
    Device device, std::span<const int> sizes, ThreadPool* pool) const {
  std::vector<core::WorkloadAttempt> out(sizes.size());
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    try {
      out[k].result = evaluate(device, sizes[k], pool);
    } catch (...) {
      out[k].error = std::current_exception();
    }
  }
  return out;
}

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return splitmix64(h ^ v);
}

core::GpuEpStudy makeStudy(const hw::GpuSpec& spec,
                           const EpStudyEngineOptions& opts) {
  apps::GpuMatMulOptions appOpts;
  appOpts.useMeter = opts.useMeter;
  appOpts.faults = opts.faults;
  if (opts.faults.enabled()) {
    // A fault-injected service should degrade per config, not fail the
    // whole study: skip-and-record + the fault-campaign hardening profile
    // keep the serve path answering.  Note the hardened tiers repair
    // spikes/drops/drift but are structurally blind to a constant
    // offset — that one only the watchdog's decomposition catches.
    appOpts.failPolicy = fault::FailPolicy::SkipAndRecord;
    appOpts.robustness.sanitizeSamples = true;
    appOpts.robustness.maxPlausibleWatts = 600.0;
    appOpts.robustness.validation.enabled = true;
    appOpts.robustness.validation.maxGapFactor = 5.0;
    appOpts.robustness.validation.stuckRunLength = 8;
    appOpts.robustness.rejectOutliers = true;
  }
  return core::GpuEpStudy(apps::GpuMatMulApp(hw::GpuModel(spec), appOpts));
}

}  // namespace

EpStudyEngine::EpStudyEngine(EpStudyEngineOptions options)
    : options_(options),
      studies_(perDevice([&](const DeviceInfo& d) {
        return makeStudy(d.spec(), options_);
      })),
      hashes_(perDevice([&](const DeviceInfo& d) {
        return studies_[deviceIndex(d.device)].checkpointHash(options_.seed);
      })) {}

std::uint64_t EpStudyEngine::tuningHash(Device device) const {
  return hashes_[deviceIndex(device)];
}

Rng EpStudyEngine::stream(Device device, int n) const {
  return Rng(options_.seed)
      .fork(mix(static_cast<std::uint64_t>(device) + 1,
                static_cast<std::uint64_t>(n)));
}

core::WorkloadResult EpStudyEngine::evaluate(Device device, int n,
                                             ThreadPool* pool) const {
  // The parallel path is bitwise-identical to serial, so the pool (or
  // its size) never leaks into the cached result.
  Rng rng = stream(device, n);
  return studies_[deviceIndex(device)].runWorkload(n, rng, pool);
}

std::vector<core::WorkloadAttempt> EpStudyEngine::evaluateList(
    Device device, std::span<const int> sizes, ThreadPool* pool) const {
  std::vector<std::uint64_t> seeds(sizes.size());
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    seeds[k] = stream(device, sizes[k]).seed();
  }
  return studies_[deviceIndex(device)].runWorkloads(sizes, seeds, pool);
}

}  // namespace ep::serve
