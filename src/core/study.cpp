#include "core/study.hpp"

#include <algorithm>
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
  r.points = apps::GpuMatMulApp::toPoints(r.data);
  // One sort and one peel give both fronts.
  auto fronts = pareto::leadingFronts(r.points, 2);
  r.globalFront = std::move(fronts[0]);
  r.localFront = std::move(fronts[1]);
  r.globalTradeoff = pareto::analyzeTradeoff(r.points);
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

WorkloadResult GpuEpStudy::runWorkload(int n, Rng& rng,
                                       ThreadPool* pool) const {
  static obs::Counter& workloads = obs::Registry::global().counter(
      "ep_study_workloads_total", "Workload studies executed by GpuEpStudy");
  obs::Span span("study/workload");
  workloads.inc();
  WorkloadResult r;
  r.n = n;
  {
    // The expensive phase: every launchable configuration through the
    // model (and, with the meter on, the measurement protocol).
    obs::Span appSpan("study/app_eval");
    r.data = app_.runWorkload(n, rng, pool, &r.failures);
  }
  EP_REQUIRE(!r.data.empty(),
             r.failures.empty()
                 ? std::string("no launchable configurations for workload")
                 : "every configuration failed measurement (" +
                       std::to_string(r.failures.size()) + " failures), e.g. " +
                       r.failures.front().error);
  finalizeWorkload(r);
  return r;
}

std::vector<WorkloadResult> GpuEpStudy::runSweep(const std::vector<int>& sizes,
                                                 Rng& rng,
                                                 ThreadPool* pool) const {
  std::vector<WorkloadResult> out(sizes.size());
  const auto evalOne = [&](std::size_t i) {
    Rng nRng = rng.fork(static_cast<std::uint64_t>(sizes[i]) * 0x9E37ULL);
    out[i] = runWorkload(sizes[i], nRng, pool);
  };
  if (pool == nullptr || sizes.size() < 2) {
    for (std::size_t i = 0; i < sizes.size(); ++i) evalOne(i);
    return out;
  }
  // Each workload nests its own parallelFor over configurations on the
  // same pool; caller work-participation keeps that deadlock-free.
  obs::Span span("study/parallel_eval");
  pool->parallelFor(0, sizes.size(), evalOne, /*grain=*/1);
  return out;
}

std::uint64_t GpuEpStudy::checkpointHash(std::uint64_t seed) const {
  const auto& o = app_.options();
  std::uint64_t h = mix64(0, seed);
  // The device identity matters as much as the options: a P100 journal
  // must not satisfy a K40c resume even with identical tuning knobs.
  for (const char c : app_.model().spec().name) {
    h = mix64(h, static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  h = mix64(h, static_cast<std::uint64_t>(o.totalProducts));
  h = mix64(h, static_cast<std::uint64_t>(o.bsMin));
  h = mix64(h, static_cast<std::uint64_t>(o.bsMax));
  h = mix64(h, static_cast<std::uint64_t>(o.gMax));
  h = mix64(h, o.useMeter ? 1ULL : 0ULL);
  h = mix64(h, doubleBits(o.hostIdlePower.value()));
  h = fault::mixOptions(h, o.faults);
  // Robustness knobs alter the accepted readings (and the draw
  // sequence), so they are part of the journal identity too.
  h = mix64(h, o.robustness.validation.enabled ? 1ULL : 0ULL);
  h = mix64(h, doubleBits(o.robustness.validation.maxGapFactor));
  h = mix64(h, static_cast<std::uint64_t>(o.robustness.validation.stuckRunLength));
  h = mix64(h, o.robustness.sanitizeSamples ? 1ULL : 0ULL);
  h = mix64(h, doubleBits(o.robustness.maxPlausibleWatts));
  h = mix64(h, o.robustness.rejectOutliers ? 1ULL : 0ULL);
  h = mix64(h, doubleBits(o.robustness.madThreshold));
  h = mix64(h, static_cast<std::uint64_t>(o.robustness.minSamplesForMad));
  h = mix64(h, static_cast<std::uint64_t>(o.robustness.remeasureBudget));
  h = mix64(h, static_cast<std::uint64_t>(o.robustness.timeoutRetries));
  h = mix64(h, doubleBits(o.robustness.backoffBaseS));
  h = mix64(h, o.failPolicy == fault::FailPolicy::SkipAndRecord ? 1ULL : 0ULL);
  return h;
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
