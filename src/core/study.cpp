#include "core/study.hpp"

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "core/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ep::core {

GpuEpStudy::GpuEpStudy(apps::GpuMatMulApp app) : app_(std::move(app)) {}

void finalizeWorkload(WorkloadResult& r) {
  obs::Span frontSpan("study/front_construction");
  std::vector<pareto::FrontKey> keys(r.data.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const apps::GpuDataPoint& d = r.data[i];
    keys[i] = {d.time.value(), d.dynamicEnergy.value(), i, i, 0};
  }
  // One sort and one peel give both fronts.
  pareto::peelFronts(keys, 2);
  r.globalFront.clear();
  r.localFront.clear();
  for (const pareto::FrontKey& k : keys) {
    if (k.level > 1) continue;
    auto& front = k.level == 0 ? r.globalFront : r.localFront;
    r.data[k.index].writePoint(k.index, front.emplace_back());
  }
  // The cloud's time-optimal and energy-optimal points, and every point
  // that ties one of them in both objectives, are on the global front,
  // whose ties run in input order (configId is the index into data).
  r.globalTradeoff = pareto::analyzeTradeoff(r.globalFront);
  if (!r.localFront.empty()) {
    r.localTradeoff = pareto::analyzeTradeoff(r.localFront);
  } else {
    r.localTradeoff.reset();
  }
}

EnergyAttribution attributeEnergy(const WorkloadResult& r) {
  EnergyAttribution a;
  for (const auto& d : r.data) {
    a.joules += d.dynamicEnergy.value();
    a.windows += d.repetitions;
    a.remeasures += d.remeasures;
  }
  a.skippedConfigs = r.failures.size();
  return a;
}

namespace {

obs::Counter& workloadCounter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "ep_study_workloads_total", "Workload studies executed by GpuEpStudy");
  return c;
}

}  // namespace

void GpuEpStudy::finishWorkload(WorkloadResult& r) {
  EP_REQUIRE(!r.data.empty(),
             r.failures.empty()
                 ? std::string("no launchable configurations for workload")
                 : "every configuration failed measurement (" +
                       std::to_string(r.failures.size()) + " failures), e.g. " +
                       r.failures.front().error);
  finalizeWorkload(r);
}

WorkloadResult GpuEpStudy::runWorkload(int n, Rng& rng,
                                       ThreadPool* pool) const {
  obs::Span span("study/workload");
  workloadCounter().inc();
  WorkloadResult r;
  r.n = n;
  {
    // The expensive phase: every launchable configuration through the
    // model (and, with the meter on, the measurement protocol).
    obs::Span appSpan("study/app_eval");
    r.data = app_.runWorkload(n, rng, pool, &r.failures);
  }
  finishWorkload(r);
  return r;
}

std::vector<WorkloadAttempt> GpuEpStudy::runWorkloads(
    std::span<const int> sizes, std::span<const std::uint64_t> seeds,
    ThreadPool* pool) const {
  EP_REQUIRE(sizes.size() == seeds.size(), "one seed per workload");
  obs::Span span("study/workload");
  workloadCounter().inc(sizes.size());
  std::vector<apps::GpuWorkload> runs(sizes.size());
  for (std::size_t k = 0; k < runs.size(); ++k) {
    runs[k].n = sizes[k];
    runs[k].seed = seeds[k];
  }
  {
    obs::Span appSpan("study/app_eval");
    app_.runWorkloads(runs, pool);
  }
  std::vector<WorkloadAttempt> out(runs.size());
  for (std::size_t k = 0; k < runs.size(); ++k) {
    if (runs[k].error) {
      out[k].error = runs[k].error;
      continue;
    }
    WorkloadResult& r = out[k].result;
    r.n = sizes[k];
    r.data = std::move(runs[k].data);
    r.failures = std::move(runs[k].failures);
    try {
      finishWorkload(r);
    } catch (...) {
      out[k].error = std::current_exception();
      out[k].result = {};
    }
  }
  return out;
}

std::vector<WorkloadResult> GpuEpStudy::runSweep(const std::vector<int>& sizes,
                                                 Rng& rng,
                                                 ThreadPool* pool) const {
  std::vector<std::uint64_t> seeds(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto salt = static_cast<std::uint64_t>(sizes[i]) * 0x9E37ULL;
    seeds[i] = rng.fork(salt).seed();
  }
  std::vector<WorkloadAttempt> attempts = runWorkloads(sizes, seeds, pool);
  std::vector<WorkloadResult> out;
  out.reserve(attempts.size());
  for (WorkloadAttempt& a : attempts) {
    if (a.error) std::rethrow_exception(a.error);
    out.push_back(std::move(a.result));
  }
  return out;
}

namespace {

// The mixers behind checkpointHash.  Each binds every member of its
// struct by name, so a field added to or removed from any of them
// stops the build here instead of silently falling out of the journal
// guard and the serve cache key.
std::uint64_t mixAll(std::uint64_t h, std::initializer_list<double> vs) {
  for (const double v : vs) h = mix64(h, doubleBits(v));
  return h;
}

std::uint64_t mixCounts(std::uint64_t h,
                        std::initializer_list<std::uint64_t> vs) {
  for (const std::uint64_t v : vs) h = mix64(h, v);
  return h;
}

std::uint64_t flag(bool b) { return b ? 1ULL : 0ULL; }

template <class T>
std::uint64_t count(T v) {
  return static_cast<std::uint64_t>(v);
}

// The device: a P100 journal must not satisfy a K40c resume even with
// identical options, and neither may a retuned spec.
std::uint64_t mixSpec(std::uint64_t h, const hw::GpuSpec& spec) {
  const auto& [name, cudaCores, baseClockMHz, boostClockMHz, smCount,
               memoryGB, l2KB, tdp, boardIdlePower, memBandwidthGBs,
               peakGflopsDouble, maxThreadsPerBlock, maxThreadsPerSM,
               maxBlocksPerSM, sharedMemPerBlockKB, sharedMemPerSMKB,
               warpSize, uncorePower, uncoreTail, additivityThresholdN,
               hasAutoBoost] = spec;
  for (const char c : name) {
    h = mix64(h, static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  h = mixCounts(h, {count(cudaCores), count(smCount), count(memoryGB),
                    count(l2KB), count(maxThreadsPerBlock),
                    count(maxThreadsPerSM), count(maxBlocksPerSM),
                    count(sharedMemPerBlockKB), count(sharedMemPerSMKB),
                    count(warpSize), count(additivityThresholdN),
                    flag(hasAutoBoost)});
  return mixAll(h, {baseClockMHz, boostClockMHz, tdp.value(),
                    boardIdlePower.value(), memBandwidthGBs, peakGflopsDouble,
                    uncorePower.value(), uncoreTail.value()});
}

// The model constants.  A journal stores measurements only and
// recomputes the models on load, so a retuned constant must refuse an
// old journal.
std::uint64_t mixTuning(std::uint64_t h, const hw::GpuTuning& t) {
  const auto& [kernelPeakFraction, occScaleCompute, occScaleMemory,
               icachePenaltyPerLevel, gLinearPenalty, runWarmupFraction,
               smEnergyPerGflop, memEnergyPerGB, residencyPower,
               fetchPowerPerLevel, constantActivePower, midBinBoostFraction,
               boostPowerExponent, bandwidthEfficiency, uncoreTailSec] = t;
  return mixAll(h, {kernelPeakFraction, occScaleCompute, occScaleMemory,
                    icachePenaltyPerLevel, gLinearPenalty, runWarmupFraction,
                    smEnergyPerGflop, memEnergyPerGB, residencyPower,
                    fetchPowerPerLevel, constantActivePower,
                    midBinBoostFraction, boostPowerExponent,
                    bandwidthEfficiency, uncoreTailSec});
}

std::uint64_t mixMeasurement(std::uint64_t h,
                             const stats::MeasurementOptions& m) {
  const auto& [precision, minRepetitions, maxRepetitions] = m;
  h = mix64(h, doubleBits(precision));
  return mixCounts(h, {count(minRepetitions), count(maxRepetitions)});
}

std::uint64_t mixMeter(std::uint64_t h, const power::MeterOptions& m) {
  const auto& [sampleInterval, gainNoiseSigma, additiveNoiseSigma,
               quantization, randomPhase] = m;
  h = mixAll(h, {sampleInterval.value(), gainNoiseSigma,
                 additiveNoiseSigma.value(), quantization.value()});
  return mix64(h, flag(randomPhase));
}

std::uint64_t mixRobustness(std::uint64_t h,
                            const power::RobustnessOptions& r) {
  const auto& [validation, sanitizeSamples, maxPlausibleWatts,
               rejectOutliers, madThreshold, remeasureBudget, timeoutRetries,
               backoffBaseS] = r;
  const auto& [enabled, maxGapFactor, stuckRunLength] = validation;
  h = mix64(h, flag(enabled));
  h = mix64(h, doubleBits(maxGapFactor));
  h = mix64(h, count(stuckRunLength));
  h = mix64(h, flag(sanitizeSamples));
  h = mix64(h, doubleBits(maxPlausibleWatts));
  h = mix64(h, flag(rejectOutliers));
  h = mix64(h, doubleBits(madThreshold));
  h = mixCounts(h, {count(remeasureBudget), count(timeoutRetries)});
  return mix64(h, doubleBits(backoffBaseS));
}

// Every app option: the configuration space, the measurement protocol,
// the meter, the fault campaign and the hardening, which alter the
// accepted readings (and the draw sequence).
std::uint64_t mixApp(std::uint64_t h, const apps::GpuMatMulOptions& o) {
  const auto& [totalProducts, bsMax, useMeter, measurement, meter, faults,
               robustness, failPolicy] = o;
  h = mixCounts(h, {count(totalProducts), count(bsMax), flag(useMeter)});
  h = mixMeasurement(h, measurement);
  h = mixMeter(h, meter);
  h = fault::mixOptions(h, faults);
  h = mixRobustness(h, robustness);
  return mix64(h, flag(failPolicy == fault::FailPolicy::SkipAndRecord));
}

}  // namespace

std::uint64_t GpuEpStudy::checkpointHash(std::uint64_t seed) const {
  const hw::GpuModel& model = app_.model();
  std::uint64_t h = mix64(0, seed);
  h = mixSpec(h, model.spec());
  h = mixTuning(h, model.tuning());
  return mixApp(h, app_.options());
}

SweepResult GpuEpStudy::runSweepChecked(const std::vector<int>& sizes,
                                        Rng& rng, const SweepOptions& options,
                                        ThreadPool* pool) const {
  SweepResult out;
  std::map<int, WorkloadResult> resumed;
  std::unique_ptr<StudyJournal> journal;
  if (!options.checkpointPath.empty()) {
    const std::uint64_t hash = checkpointHash(rng.seed());
    resumed = StudyJournal::load(options.checkpointPath, hash, app_);
    journal = std::make_unique<StudyJournal>(options.checkpointPath, hash);
  }
  const bool skip = options.workloadPolicy == fault::FailPolicy::SkipAndRecord;
  std::vector<WorkloadResult> slots(sizes.size());
  std::vector<char> done(sizes.size(), 0);
  std::vector<char> wasResumed(sizes.size(), 0);
  std::vector<std::string> errs(sizes.size());
  // The sweep's parallel/deterministic contract is runSweep's; resumed
  // workloads skip evaluation entirely (their forked stream is never
  // drawn from, which is why resume == uninterrupted bit for bit), and
  // journal appends serialize inside StudyJournal.
  const auto evalOne = [&](std::size_t i) {
    const int n = sizes[i];
    if (auto it = resumed.find(n); it != resumed.end()) {
      slots[i] = it->second;
      done[i] = 1;
      wasResumed[i] = 1;
      return;
    }
    Rng nRng = rng.fork(static_cast<std::uint64_t>(n) * 0x9E37ULL);
    if (!skip) {
      slots[i] = runWorkload(n, nRng, pool);
      done[i] = 1;
    } else {
      try {
        slots[i] = runWorkload(n, nRng, pool);
        done[i] = 1;
      } catch (const EpError& e) {
        errs[i] = e.what();
      }
    }
    if (done[i] != 0 && journal != nullptr) journal->append(slots[i]);
  };
  if (pool == nullptr || sizes.size() < 2) {
    for (std::size_t i = 0; i < sizes.size(); ++i) evalOne(i);
  } else {
    obs::Span span("study/parallel_eval");
    pool->parallelFor(0, sizes.size(), evalOne, /*grain=*/1);
  }
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (done[i] != 0) {
      out.resumedWorkloads += static_cast<std::size_t>(wasResumed[i]);
      out.results.push_back(std::move(slots[i]));
    } else {
      out.failures.push_back({sizes[i], std::move(errs[i])});
    }
  }
  return out;
}

FrontStatistics GpuEpStudy::summarize(
    const std::vector<WorkloadResult>& results) {
  EP_REQUIRE(!results.empty(), "no workloads to summarize");
  FrontStatistics s;
  s.workloads = results.size();
  double sumGlobal = 0.0, sumLocal = 0.0;
  for (const auto& r : results) {
    sumGlobal += static_cast<double>(r.globalFront.size());
    sumLocal += static_cast<double>(r.localFront.size());
    s.maxGlobalFrontSize = std::max(s.maxGlobalFrontSize,
                                    r.globalFront.size());
    s.maxLocalFrontSize = std::max(s.maxLocalFrontSize, r.localFront.size());
    if (r.globalTradeoff.maxEnergySavings > s.maxGlobalSavings) {
      s.maxGlobalSavings = r.globalTradeoff.maxEnergySavings;
      s.degradationAtMaxGlobalSavings =
          r.globalTradeoff.performanceDegradation;
    }
    if (r.localTradeoff.has_value() &&
        r.localTradeoff->maxEnergySavings > s.maxLocalSavings) {
      s.maxLocalSavings = r.localTradeoff->maxEnergySavings;
      s.degradationAtMaxLocalSavings =
          r.localTradeoff->performanceDegradation;
    }
  }
  s.avgGlobalFrontSize = sumGlobal / static_cast<double>(results.size());
  s.avgLocalFrontSize = sumLocal / static_cast<double>(results.size());
  return s;
}

}  // namespace ep::core
