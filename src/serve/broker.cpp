#include "serve/broker.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/error.hpp"
#include "obs/profile_frames.hpp"
#include "obs/trace.hpp"

namespace ep::serve {

namespace {

// Elapsed helpers take the broker's current time explicitly: every time
// read in this file goes through Broker::now(), so an injected clock
// governs deadlines, breaker windows, latency and admission uniformly.
Seconds elapsedSince(Clock::time_point start, Clock::time_point now) {
  return Seconds{std::chrono::duration<double>(now - start).count()};
}

double elapsedMsSince(Clock::time_point start, Clock::time_point now) {
  return std::chrono::duration<double, std::milli>(now - start).count();
}

// A study as the broker holds it: n, the fronts, the trade-offs and
// the failures.  The per-configuration data is released with its
// capacity (assigning {} would keep it), so the cache, the stale store
// and fleet replicas hold only what an answer reads.
std::shared_ptr<const core::WorkloadResult> answersOnly(
    core::WorkloadResult r) {
  std::vector<apps::GpuDataPoint>().swap(r.data);
  return std::make_shared<const core::WorkloadResult>(std::move(r));
}

std::string breakerOpenMessage(Device device) {
  return "circuit breaker open for device " + std::string(deviceName(device));
}

std::string describe(const std::exception_ptr& err) {
  try {
    std::rethrow_exception(err);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown engine failure";
  }
}

}  // namespace

Broker::Broker(std::shared_ptr<const TuningEngine> engine,
               BrokerOptions options)
    : engine_(std::move(engine)),
      options_(options),
      cAccepted_(registry_.counter("ep_serve_accepted_total",
                                   "Requests admitted into the service")),
      cCompleted_(registry_.counter("ep_serve_completed_total",
                                    "Requests answered with Status::Ok")),
      cFailed_(registry_.counter("ep_serve_failed_total",
                                 "Requests that failed (engine or input)")),
      cRejectedQueueFull_(
          registry_.counter("ep_serve_rejected_queue_full_total",
                            "Submissions rejected by backpressure")),
      cRejectedDeadline_(
          registry_.counter("ep_serve_rejected_deadline_total",
                            "Requests expired before completion")),
      cRejectedShutdown_(
          registry_.counter("ep_serve_rejected_shutdown_total",
                            "Submissions rejected during shutdown")),
      cCoalesced_(registry_.counter(
          "ep_serve_coalesced_total",
          "Requests that joined an in-flight identical study")),
      cStudiesExecuted_(registry_.counter("ep_serve_studies_executed_total",
                                          "Cold engine evaluations")),
      cCacheHits_(registry_.counter("ep_serve_cache_hits_total",
                                    "Result-cache lookups that hit")),
      cCacheMisses_(registry_.counter("ep_serve_cache_misses_total",
                                      "Result-cache lookups that missed")),
      cCacheEvictions_(registry_.counter("ep_serve_cache_evictions_total",
                                         "Result-cache LRU evictions")),
      cRejectedCircuitOpen_(registry_.counter(
          "ep_serve_rejected_circuit_open_total",
          "Requests rejected by an open circuit breaker")),
      cBreakerOpens_(registry_.counter("ep_serve_breaker_opens_total",
                                       "Circuit-breaker open transitions")),
      cStaleServed_(registry_.counter(
          "ep_serve_stale_served_total",
          "Responses served from the stale-while-error store")),
      cRejectedOverload_(registry_.counter(
          "ep_serve_rejected_overload_total",
          "Submissions shed by the adaptive admission limit")),
      cShedDeadline_(registry_.counter(
          "ep_serve_shed_deadline_total",
          "Uncached submissions shed as deadline-infeasible at admission")),
      gAdmissionLimit_(registry_.gauge(
          "ep_serve_admission_limit",
          "Adaptive concurrency limit (0 = admission control disabled)")),
      gQueueDepth_(registry_.gauge("ep_serve_queue_depth",
                                   "Admitted, not yet started jobs")),
      gInFlightStudies_(registry_.gauge("ep_serve_in_flight_studies",
                                        "Engine evaluations running now")),
      gCacheSize_(registry_.gauge("ep_serve_cache_size",
                                  "Result-cache entries resident")),
      gCacheCapacity_(registry_.gauge("ep_serve_cache_capacity",
                                      "Result-cache capacity")),
      gBreakerState_(perDevice([&](const DeviceInfo& d) {
        return &registry_.gauge(
            std::string("ep_serve_breaker_state_") + d.name,
            std::string(d.label) +
                " breaker state (0 closed, 1 half-open, 2 open)");
      })),
      hLatencyMs_(registry_.histogram(
          "ep_serve_request_latency_ms",
          "Completed-request latency, submit to response (ms)",
          std::vector<double>(LatencyHistogram::kUpperBoundsMs.begin(),
                              LatencyHistogram::kUpperBoundsMs.end()))),
      // Row by row, so each family's children follow table order.
      ledger_(perDevice([&](const DeviceInfo& d) {
        const obs::Labels device{{"device", d.label}};
        return DeviceLedger{
            registry_.doubleCounter(
                "ep_request_energy_joules",
                "Dynamic energy attributed to the requests that measured it",
                device),
            registry_.counter(
                "ep_request_windows_total",
                "Accepted measurement windows attributed to requests", device),
            registry_.histogram("ep_request_energy_hist_joules",
                                "Attributed joules per executed cold study",
                                {0.1, 1.0, 10.0, 50.0, 100.0, 500.0, 1000.0,
                                 5000.0, 10000.0, 50000.0},
                                device)};
      })),
      cache_(options.cacheCapacity),
      staleStore_(std::max<std::size_t>(1, options.staleCapacity)),
      breakers_(perDevice([&](const DeviceInfo&) {
        return CircuitBreaker(options.breaker);
      })),
      admission_(options.admission) {
  EP_REQUIRE(engine_ != nullptr, "broker needs an engine");
  if (!engine_->runsInline()) {
    pool_ = std::make_unique<ThreadPool>(options_.threads,
                                         options_.profileLabel);
  }
  EP_REQUIRE(options_.queueCapacity >= 1, "queue capacity must be >= 1");
  // Every broker exposition (including federated cluster views)
  // carries build identity.
  obs::registerBuildInfo(registry_);
}

Broker::~Broker() { shutdown(); }

StudyKey Broker::keyFor(Device device, int n) const {
  return StudyKey{device, n, engine_->tuningHash(device)};
}

Clock::time_point Broker::deadlineFor(double deadlineMs,
                                      Clock::time_point now) const {
  double ms = deadlineMs;
  if (!(ms > 0.0)) ms = options_.defaultDeadlineMs;  // NaN too
  if (!(ms > 0.0)) return Clock::time_point::max();
  // A wait the clock cannot add to `now` (half its headroom leaves room
  // for rounding) is no deadline: converting it would overflow.
  const std::chrono::duration<double, std::milli> wait(ms);
  if (!(wait < (Clock::time_point::max() - now) / 2)) {
    return Clock::time_point::max();
  }
  return now + std::chrono::duration_cast<Clock::duration>(wait);
}

// Everything the admission mutex must witness for one tune job; the
// unlocked consequences are returned for the caller to perform.
Broker::TuneAdmission Broker::admitTuneLocked(const TuneJobPtr& job) {
  TuneAdmission a;
  if (!accepting_) {
    cRejectedShutdown_.inc();
    a.act = TuneAdmission::Act::Reject;
    a.status = Status::ShuttingDown;
    return a;
  }
  const StudyKey key = keyFor(job->req.device, job->req.n);
  if (auto hit = cache_.get(key)) {
    cCacheHits_.inc();
    cAccepted_.inc();
    a.act = TuneAdmission::Act::CompleteHit;
    a.result = *hit;
    return a;
  }
  a = admitColdTuneLocked(job, key);
  // One lookup per tune: a queued job's is counted when it runs, since
  // the cache may answer it by then.
  if (a.act != TuneAdmission::Act::Queued) cCacheMisses_.inc();
  return a;
}

Broker::TuneAdmission Broker::admitColdTuneLocked(const TuneJobPtr& job,
                                                  const StudyKey& key) {
  TuneAdmission a;
  if (auto it = inFlight_.find(key); it != inFlight_.end()) {
    // The futures map: join the in-flight computation instead of
    // queueing a duplicate study.
    cAccepted_.inc();
    cCoalesced_.inc();
    it->second->waiters.push_back(job);
    a.act = TuneAdmission::Act::Coalesced;
    return a;
  }
  if (breakers_[deviceIndex(job->req.device)].wouldReject(now())) {
    // Fail fast while the breaker is open: serve a stale result
    // synchronously when one exists, reject otherwise — either way no
    // queue slot or worker time is spent on a broken engine.
    // (wouldReject never claims a half-open probe; probes are admitted
    // here and claimed by the worker's allow().)
    if (options_.staleCapacity > 0) {
      if (auto st = staleStore_.get(key)) {
        cAccepted_.inc();
        cStaleServed_.inc();
        a.act = TuneAdmission::Act::CompleteStale;
        a.result = *st;
        return a;
      }
    }
    a.act = TuneAdmission::Act::Reject;
    a.status = Status::CircuitOpen;
    a.error = "circuit breaker open";
    return a;
  }
  if (admission_.enabled()) {
    // This request needs a cold study (cache, in-flight and breaker
    // paths all returned above).  Shed it now if it cannot finish in
    // time or the adaptive concurrency limit is saturated — a clean
    // fast-fail instead of queue time plus a guaranteed timeout.
    if (job->deadline != Clock::time_point::max()) {
      const double remainingMs =
          std::chrono::duration<double, std::milli>(job->deadline - now())
              .count();
      if (!admission_.deadlineFeasible(remainingMs)) {
        cShedDeadline_.inc();
        a.act = TuneAdmission::Act::Reject;
        a.status = Status::DeadlineExceeded;
        a.error = "deadline cannot cover the expected cold-study cost";
        return a;
      }
    }
    if (!admission_.tryAcquire()) {
      cRejectedOverload_.inc();
      a.act = TuneAdmission::Act::Reject;
      a.status = Status::Overloaded;
      a.error = "adaptive admission limit reached";
      return a;
    }
    job->admitted = true;
  }
  if (queueDepth_ >= options_.queueCapacity) {
    if (job->admitted) {
      admission_.release(-1.0);
      job->admitted = false;
    }
    cRejectedQueueFull_.inc();
    a.act = TuneAdmission::Act::Reject;
    a.status = Status::QueueFull;
    return a;
  }
  cAccepted_.inc();
  ++queueDepth_;
  a.act = TuneAdmission::Act::Queued;
  return a;
}

void Broker::settleAdmission(const TuneJobPtr& job, const TuneAdmission& a) {
  switch (a.act) {
    case TuneAdmission::Act::CompleteHit:
      completeTune(job, a.result, /*cacheHit=*/true, /*coalesced=*/false);
      break;
    case TuneAdmission::Act::CompleteStale:
      completeTune(job, a.result, /*cacheHit=*/false, /*coalesced=*/false,
                   /*stale=*/true);
      break;
    case TuneAdmission::Act::Reject:
      rejectTune(job, a.status, a.error);
      break;
    case TuneAdmission::Act::Queued:
    case TuneAdmission::Act::Coalesced:
      break;  // nothing unlocked to do here
  }
}

template <typename Work>
void Broker::execute(Work&& work) {
  if (pool_ != nullptr) {
    pool_->submit(std::forward<Work>(work));
    return;
  }
  obs::ProfileFrame frame(
      options_.profileLabel.empty() ? nullptr : options_.profileLabel.c_str());
  work();
}

namespace {

bool validTune(const TuneRequest& req) {
  return req.n > 0 && req.maxDegradation >= 0.0;
}

// Answered before the lock, so its latency is zero.
TuneResponse invalidTuneResponse() {
  TuneResponse resp;
  resp.status = Status::Error;
  resp.error = "invalid tune request (need n > 0, maxDegradation >= 0)";
  return resp;
}

}  // namespace

std::future<TuneResponse> Broker::submitTune(const TuneRequest& req) {
  auto promise = std::make_shared<std::promise<TuneResponse>>();
  auto future = promise->get_future();
  std::vector<TuneBatchItem> one(1);
  one[0].req = req;
  one[0].ctx = obs::currentContext();
  one[0].done = [promise](TuneResponse&& resp) {
    promise->set_value(std::move(resp));
  };
  submitTuneBatch(std::move(one));
  return future;
}

void Broker::submitTuneBatch(std::vector<TuneBatchItem> items) {
  if (items.empty()) return;
  const Clock::time_point now = this->now();

  std::vector<TuneJobPtr> jobs;
  jobs.reserve(items.size());
  for (auto& item : items) {
    auto job = std::make_shared<TuneJob>();
    job->req = item.req;
    job->submitted = now;
    job->deadline = deadlineFor(item.req.deadlineMs, now);
    job->ctx = item.ctx;
    job->deliver = std::move(item.done);
    jobs.push_back(std::move(job));
  }

  // Invalid requests never reach the lock.
  std::vector<TuneJobPtr> valid;
  valid.reserve(jobs.size());
  for (auto& job : jobs) {
    if (!validTune(job->req)) {
      cAccepted_.inc();
      cFailed_.inc();
      obs::ScopedTraceContext tctx(job->ctx);
      job->deliver(invalidTuneResponse());
    } else {
      valid.push_back(std::move(job));
    }
  }

  // Phase 1 — everything that needs mu_, for every item, under ONE
  // acquisition.
  std::vector<TuneAdmission> admissions(valid.size());
  std::vector<TuneJobPtr> queued;
  {
    std::lock_guard lk(mu_);
    for (std::size_t i = 0; i < valid.size(); ++i) {
      admissions[i] = admitTuneLocked(valid[i]);
      if (admissions[i].act == TuneAdmission::Act::Queued) {
        queued.push_back(valid[i]);
      }
    }
  }

  // Phase 2 — unlocked consequences: inline completions (cache hits,
  // stale serves) and rejections, each under its own trace context
  // (completeTune/rejectTune install job->ctx themselves).
  for (std::size_t i = 0; i < valid.size(); ++i) {
    settleAdmission(valid[i], admissions[i]);
  }

  // Phase 3 — the queued members, in order, in ONE execution: in place
  // on this thread for an inline engine (a model-direct study costs
  // less than a pool hand-off), else as one pool task, where a metered
  // study still fans out across the whole pool via the engine's nested
  // parallelFor.  Duplicate keys inside the batch resolve to cache hits
  // / coalesced joins exactly as queued siblings always have.
  if (!queued.empty()) {
    execute([this, queued = std::move(queued)] {
      for (const auto& job : queued) runTuneJob(job);
    });
  }
}

std::future<StudyResponse> Broker::submitStudy(const StudyRequest& req) {
  auto promise = std::make_shared<std::promise<StudyResponse>>();
  auto future = promise->get_future();
  const Clock::time_point submitted = now();
  const Clock::time_point deadline = deadlineFor(req.deadlineMs, submitted);

  auto respondNow = [&](Status status, const std::string& error) {
    StudyResponse resp;
    resp.status = status;
    resp.error = error;
    resp.latency = elapsedSince(submitted, now());
    promise->set_value(std::move(resp));
  };

  if (req.sizes().empty()) {
    cAccepted_.inc();
    cFailed_.inc();
    respondNow(Status::Error,
               "invalid study request (need 0 < nBegin <= nEnd, nStep > 0)");
    return future;
  }

  std::unique_lock lk(mu_);
  if (!accepting_) {
    cRejectedShutdown_.inc();
    lk.unlock();
    respondNow(Status::ShuttingDown, "");
    return future;
  }
  if (queueDepth_ >= options_.queueCapacity) {
    cRejectedQueueFull_.inc();
    lk.unlock();
    respondNow(Status::QueueFull, "");
    return future;
  }
  cAccepted_.inc();
  ++queueDepth_;
  lk.unlock();
  auto reqCopy = std::make_shared<StudyRequest>(req);
  // Carry the caller's request context onto the worker (as TuneJob::ctx
  // does) so the sweep's latency exemplar and energy attribution land
  // on the paying request's trace.
  const obs::TraceContext ctx = obs::currentContext();
  execute([this, reqCopy, submitted, deadline, promise, ctx] {
    obs::ScopedTraceContext tctx(ctx);
    runStudyJob(reqCopy, submitted, deadline, promise);
  });
  return future;
}

void Broker::runTuneJob(const TuneJobPtr& job) {
  obs::Span span("serve/tune_job");
  std::unique_lock lk(mu_);
  --queueDepth_;
  ++activeJobs_;

  if (now() > job->deadline) {
    cCacheMisses_.inc();
    lk.unlock();
    rejectTune(job, Status::DeadlineExceeded, "");
    lk.lock();
    finishJobLocked();
    return;
  }
  const StudyKey key = keyFor(job->req.device, job->req.n);
  if (auto hit = cache_.get(key)) {
    // Filled while this job sat in the queue.
    cCacheHits_.inc();
    ResultPtr result = *hit;
    lk.unlock();
    completeTune(job, result, /*cacheHit=*/true, /*coalesced=*/false);
    lk.lock();
    finishJobLocked();
    return;
  }
  cCacheMisses_.inc();
  if (auto it = inFlight_.find(key); it != inFlight_.end()) {
    // Another thread owns the study (a sibling queued before either of
    // us started, or another event thread's inline run); hand our
    // promise to it rather than blocking this thread.
    cCoalesced_.inc();
    it->second->waiters.push_back(job);
    finishJobLocked();
    return;
  }

  // Still under the acquisition that saw the key neither cached nor in
  // flight: computeStudy claims it (or answers from the breaker path)
  // and never block-joins, so a submitting event thread never waits on
  // a study that another thread owns.
  try {
    const StudyOutcome outcome =
        computeStudy(lk, job->req.device, job->req.n, key);
    completeTune(job, outcome.result, /*cacheHit=*/false,
                 /*coalesced=*/false, outcome.stale, outcome.attr,
                 outcome.executed);
  } catch (const BreakerOpenError& e) {
    rejectTune(job, Status::CircuitOpen, e.what());
  } catch (...) {
    if (lk.owns_lock()) lk.unlock();  // thrown before computeStudy let go
    rejectTune(job, Status::Error, describe(std::current_exception()));
  }
  lk.lock();
  finishJobLocked();
}

void Broker::runStudyJob(
    const std::shared_ptr<StudyRequest>& req, Clock::time_point submitted,
    Clock::time_point deadline,
    const std::shared_ptr<std::promise<StudyResponse>>& promise) {
  obs::Span span("serve/study_job");
  const Device device = req->device;
  const std::vector<int> sizes = req->sizes();
  // How each size of the sweep is answered: from the cache, by joining
  // another thread's in-flight study after the pass, stale from a
  // breaker refusal, or by this job's one engine call (a claim).
  struct SweepSize {
    StudyKey key;
    StudyOutcome outcome;  // result set once answered
    bool hit = false;
    std::shared_future<StudyOutcome> join;
    std::shared_ptr<InFlightStudy> claim;
    std::exception_ptr error;
  };
  std::vector<SweepSize> answers(sizes.size());
  std::vector<int> claimed;
  // The size whose breaker refusal, with nothing stale, ended the claims.
  std::size_t refused = sizes.size();
  bool expired = false;
  {
    // One acquisition resolves every size, in sweep order.
    std::lock_guard lk(mu_);
    --queueDepth_;
    ++activeJobs_;
    expired = now() > deadline;
    for (std::size_t k = 0; !expired && k < sizes.size(); ++k) {
      SweepSize& s = answers[k];
      s.key = keyFor(device, sizes[k]);
      if (auto hit = cache_.get(s.key)) {
        cCacheHits_.inc();
        s.hit = true;
        s.outcome.result = *hit;
        continue;
      }
      cCacheMisses_.inc();
      if (auto it = inFlight_.find(s.key); it != inFlight_.end()) {
        cCoalesced_.inc();
        s.join = it->second->future;
        continue;
      }
      ResultPtr stale;
      s.claim = claimLocked(device, s.key, &stale);
      if (s.claim != nullptr) {
        claimed.push_back(sizes[k]);
      } else if (stale != nullptr) {
        s.outcome = {stale, true};
      } else {
        refused = k;
        break;
      }
    }
  }

  if (!claimed.empty()) {
    // Every claimed size in one engine call: a metered engine runs all
    // their configurations as one pass over the pool.
    std::vector<core::WorkloadAttempt> attempts;
    try {
      obs::Span evalSpan("serve/engine_evaluate");
      attempts = engine_->evaluateList(device, claimed, pool_.get());
      EP_REQUIRE(attempts.size() == claimed.size(),
                 "engine answered a different number of sizes");
    } catch (...) {
      const std::exception_ptr err = std::current_exception();
      attempts.assign(claimed.size(), {});
      for (core::WorkloadAttempt& a : attempts) a.error = err;
    }
    std::size_t next = 0;
    for (std::size_t k = 0; k < sizes.size(); ++k) {
      SweepSize& s = answers[k];
      if (s.claim == nullptr) continue;
      try {
        s.outcome = publishStudy(device, sizes[k], s.key, s.claim,
                                 std::move(attempts[next++]));
      } catch (...) {
        s.error = std::current_exception();
      }
    }
  }
  // Joined only now, with every claim of this job published, so a sweep
  // never blocks while it holds an in-flight entry.
  for (SweepSize& s : answers) {
    if (!s.join.valid()) continue;
    try {
      // The shared outcome carries the *owner's* attribution; zero it
      // on this copy so a coalesced join never double-counts the energy.
      s.outcome = s.join.get();  // rethrows the owner's failure
      s.outcome.executed = false;
      s.outcome.attr = {};
    } catch (...) {
      s.error = std::current_exception();
    }
  }

  // The response, in sweep order: the first size that failed decides
  // the status; every answered size counts in the report.
  StudyResponse resp;
  if (expired) resp.status = Status::DeadlineExceeded;
  std::vector<core::WorkloadResult> results;
  results.reserve(sizes.size());
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    const SweepSize& s = answers[k];
    if (resp.status == Status::Ok && k == refused) {
      resp.status = Status::CircuitOpen;
      resp.error = breakerOpenMessage(device);
    }
    if (resp.status == Status::Ok && s.error) {
      resp.status = Status::Error;
      resp.error = describe(s.error);
    }
    if (s.outcome.result == nullptr) continue;
    results.push_back(*s.outcome.result);
    if (s.hit) {
      ++resp.workloadCacheHits;
      ++resp.report.cacheHits;
    }
    if (s.join.valid()) ++resp.report.coalesced;
    if (s.outcome.stale) {
      ++resp.staleWorkloads;
      ++resp.report.staleServed;
    }
    if (s.outcome.executed) {
      ++resp.report.studiesExecuted;
      resp.report.attributedJoules += s.outcome.attr.joules;
      resp.report.measurementWindows += s.outcome.attr.windows;
      resp.report.remeasures += s.outcome.attr.remeasures;
      resp.report.skippedConfigs += s.outcome.attr.skippedConfigs;
    }
  }
  if (resp.status == Status::Ok && results.size() == sizes.size()) {
    resp.statistics = core::GpuEpStudy::summarize(results);
  } else if (resp.status == Status::Ok) {
    resp.status = Status::Error;
    resp.error = "study incomplete";
  }
  const Clock::time_point finished = now();
  resp.latency = elapsedSince(submitted, finished);

  switch (resp.status) {
    case Status::Ok:
      hLatencyMs_.observe(elapsedMsSince(submitted, finished),
                          obs::currentContext().traceId);
      cCompleted_.inc();
      break;
    case Status::DeadlineExceeded:
      cRejectedDeadline_.inc();
      break;
    case Status::CircuitOpen:
      cRejectedCircuitOpen_.inc();
      break;
    default:
      cFailed_.inc();
      break;
  }
  feedWatchdog(device,
               resp.status == Status::Error ||
                   resp.status == Status::CircuitOpen,
               resp.staleWorkloads > 0);
  {
    std::lock_guard lk(mu_);
    finishJobLocked();
  }
  promise->set_value(std::move(resp));
}

std::shared_ptr<Broker::InFlightStudy> Broker::claimLocked(
    Device device, const StudyKey& key, ResultPtr* stale) {
  // Breaker admission sits right before claiming the computation, so
  // every allow() == true is balanced by exactly one onSuccess()/
  // onFailure() in publishStudy (cache hits and coalesced joins never
  // consume half-open probes).
  if (!breakers_[deviceIndex(device)].allow(now())) {
    if (options_.staleCapacity > 0) {
      if (auto st = staleStore_.get(key)) {
        cStaleServed_.inc();
        *stale = *st;
      }
    }
    return nullptr;
  }
  auto entry = std::make_shared<InFlightStudy>();
  entry->future = entry->promise.get_future().share();
  inFlight_[key] = entry;
  cStudiesExecuted_.inc();
  return entry;
}

Broker::StudyOutcome Broker::computeStudy(std::unique_lock<std::mutex>& lk,
                                          Device device, int n,
                                          const StudyKey& key) {
  ResultPtr stale;
  const std::shared_ptr<InFlightStudy> entry = claimLocked(device, key, &stale);
  lk.unlock();
  if (entry == nullptr) {
    if (stale != nullptr) return {stale, true};
    throw BreakerOpenError(breakerOpenMessage(device));
  }

  core::WorkloadAttempt attempt;
  // Cold-study wall time feeds the admission controller's deadline
  // shedding; only read the clock when that consumer exists.
  const bool timeStudy = admission_.enabled();
  const Clock::time_point evalStart =
      timeStudy ? now() : Clock::time_point{};
  try {
    obs::Span span("serve/engine_evaluate");
    // On a pooled engine this thread is itself a pool worker; handing
    // the pool to the engine lets idle workers help with a metered
    // study's configuration loop (nested parallelFor — safe since the
    // caller participates).  An inline engine gets no pool.
    attempt.result = engine_->evaluate(device, n, pool_.get());
  } catch (...) {
    attempt.error = std::current_exception();
  }
  if (timeStudy && !attempt.error) {
    admission_.observeColdStudyMs(elapsedMsSince(evalStart, now()));
  }
  return publishStudy(device, n, key, entry, std::move(attempt));
}

Broker::StudyOutcome Broker::publishStudy(
    Device device, int n, const StudyKey& key,
    const std::shared_ptr<InFlightStudy>& entry,
    core::WorkloadAttempt attempt) {
  ResultPtr result;
  core::EnergyAttribution attribution;
  std::exception_ptr err = std::move(attempt.error);
  if (!err) {
    try {
      // The ledger entry is the only reader of the per-configuration
      // data: take it, then keep just what answers read.
      attribution = core::attributeEnergy(attempt.result);
      result = answersOnly(std::move(attempt.result));
    } catch (...) {
      err = std::current_exception();
    }
  }

  ResultPtr stale;
  std::unique_lock lk(mu_);
  inFlight_.erase(key);
  if (result) {
    if (cache_.put(key, result)) cCacheEvictions_.inc();
    if (options_.staleCapacity > 0) staleStore_.put(key, result);
  } else if (options_.staleCapacity > 0) {
    if (auto st = staleStore_.get(key)) stale = *st;
  }
  std::vector<TuneJobPtr> waiters = std::move(entry->waiters);
  lk.unlock();

  CircuitBreaker& breaker = breakers_[deviceIndex(device)];
  if (err) {
    const auto opensBefore = breaker.opens();
    breaker.onFailure(now());
    if (breaker.opens() != opensBefore) cBreakerOpens_.inc();
    if (stale) {
      // Stale-while-error: the engine failed but a previously-good
      // result can still answer — flagged, so callers know.
      cStaleServed_.inc();
      entry->promise.set_value({stale, true});
      for (const auto& w : waiters) {
        completeTune(w, stale, /*cacheHit=*/false, /*coalesced=*/true,
                     /*stale=*/true);
      }
      return {stale, true};
    }
    entry->promise.set_exception(err);
    const std::string msg = describe(err);
    for (const auto& w : waiters) rejectTune(w, Status::Error, msg);
    std::rethrow_exception(err);
  }
  breaker.onSuccess();
  // The executing caller owns the study's full energy ledger entry;
  // waiters and future joiners get the result with zero attribution.
  StudyOutcome owned{result, false, /*executed=*/true, attribution};
  accountStudyEnergy(device, owned.attr);
  if (options_.onStudyExecuted) options_.onStudyExecuted(device, n, result);
  entry->promise.set_value(owned);
  for (const auto& w : waiters) {
    completeTune(w, result, /*cacheHit=*/false, /*coalesced=*/true);
  }
  return owned;
}

void Broker::completeTune(const TuneJobPtr& job, const ResultPtr& result,
                          bool cacheHit, bool coalesced, bool stale,
                          const core::EnergyAttribution& attribution,
                          bool executed) {
  // Completion may run on a foreign thread (the study owner's thread
  // fulfilling coalesced followers): re-install the follower's own
  // context so its completion span joins its trace, not the owner's.
  obs::ScopedTraceContext tctx(job->ctx);
  obs::Span span("serve/complete_tune");
  if (now() > job->deadline) {
    rejectTune(job, Status::DeadlineExceeded, "");
    return;
  }
  TuneResponse resp;
  resp.status = Status::Ok;
  resp.cacheHit = cacheHit;
  resp.coalesced = coalesced;
  resp.stale = stale;
  resp.report.attributedJoules = attribution.joules;
  resp.report.measurementWindows = attribution.windows;
  resp.report.remeasures = attribution.remeasures;
  resp.report.skippedConfigs = attribution.skippedConfigs;
  resp.report.studiesExecuted = executed ? 1 : 0;
  resp.report.cacheHits = cacheHit ? 1 : 0;
  resp.report.coalesced = coalesced ? 1 : 0;
  resp.report.staleServed = stale ? 1 : 0;
  // The study (expensive) is shared/cached; the budget-specific tuner
  // step (cheap) runs per request.  Recommending over the cached global
  // front is equivalent to recommending over all points: the optima and
  // every budget-admissible energy minimum are Pareto-optimal.
  const core::BiObjectiveTuner tuner(job->req.maxDegradation);
  resp.recommendation = tuner.recommend(result->globalFront);
  const Clock::time_point finished = now();
  const double latencyMs = elapsedMsSince(job->submitted, finished);
  resp.latency = elapsedSince(job->submitted, finished);
  hLatencyMs_.observe(latencyMs, obs::currentContext().traceId);
  if (job->admitted) {
    // AIMD feedback: this queued request's full latency against the
    // SLO target grows or shrinks the concurrency limit.
    admission_.release(latencyMs);
    job->admitted = false;
  }
  cCompleted_.inc();
  feedWatchdog(job->req.device, /*error=*/false, stale);
  if (options_.onTuneComplete) options_.onTuneComplete(job->req, resp);
  job->deliver(std::move(resp));
}

void Broker::rejectTune(const TuneJobPtr& job, Status status,
                        const std::string& error) {
  obs::ScopedTraceContext tctx(job->ctx);
  obs::Span span("serve/complete_tune");
  switch (status) {
    case Status::DeadlineExceeded:
      cRejectedDeadline_.inc();
      break;
    case Status::Error:
      cFailed_.inc();
      break;
    case Status::CircuitOpen:
      cRejectedCircuitOpen_.inc();
      break;
    default:
      break;  // QueueFull / ShuttingDown counted at admission
  }
  if (status == Status::Error || status == Status::CircuitOpen) {
    feedWatchdog(job->req.device, /*error=*/true, /*stale=*/false);
  }
  const Clock::time_point finished = now();
  if (job->admitted) {
    // A deadline blown *after* admission is the strongest overload
    // signal there is — feed the elapsed time so AIMD backs off.  Other
    // rejections say nothing about service time: release silently.
    admission_.release(status == Status::DeadlineExceeded
                           ? elapsedMsSince(job->submitted, finished)
                           : -1.0);
    job->admitted = false;
  }
  TuneResponse resp;
  resp.status = status;
  resp.error = error;
  resp.latency = elapsedSince(job->submitted, finished);
  if (options_.onTuneComplete) options_.onTuneComplete(job->req, resp);
  job->deliver(std::move(resp));
}

void Broker::installStaleResult(
    Device device, int n,
    std::shared_ptr<const core::WorkloadResult> result) {
  if (result == nullptr || options_.staleCapacity == 0) return;
  std::lock_guard lk(mu_);
  staleStore_.put(keyFor(device, n), std::move(result));
}

std::optional<TuneResponse> Broker::tuneFromStale(const TuneRequest& req) {
  if (req.n <= 0 || req.maxDegradation < 0.0) return std::nullopt;
  const Clock::time_point submitted = now();
  ResultPtr result;
  {
    std::lock_guard lk(mu_);
    if (!accepting_ || options_.staleCapacity == 0) return std::nullopt;
    if (auto st = staleStore_.get(keyFor(req.device, req.n))) result = *st;
  }
  if (result == nullptr) return std::nullopt;
  obs::Span span("serve/tune_from_stale");
  cAccepted_.inc();
  cStaleServed_.inc();
  TuneResponse resp;
  resp.status = Status::Ok;
  resp.stale = true;
  resp.report.staleServed = 1;
  const core::BiObjectiveTuner tuner(req.maxDegradation);
  resp.recommendation = tuner.recommend(result->globalFront);
  const Clock::time_point finished = now();
  resp.latency = elapsedSince(submitted, finished);
  hLatencyMs_.observe(elapsedMsSince(submitted, finished),
                      obs::currentContext().traceId);
  cCompleted_.inc();
  feedWatchdog(req.device, /*error=*/false, /*stale=*/true);
  if (options_.onTuneComplete) options_.onTuneComplete(req, resp);
  return resp;
}

void Broker::accountStudyEnergy(Device device,
                                const core::EnergyAttribution& a) {
  // Runs on the executing owner's worker, whose trace context is the
  // paying request's — so the energy histogram's exemplar links the
  // bucket straight to that request's span tree.
  const DeviceLedger& ledger = ledger_[deviceIndex(device)];
  ledger.joules.add(a.joules);
  ledger.windows.inc(a.windows);
  ledger.joulesHist.observe(a.joules, obs::currentContext().traceId);
}

void Broker::feedWatchdog(Device device, bool error, bool stale) {
  if (options_.watchdog == nullptr) return;
  options_.watchdog->observeRequestOutcome(deviceName(device), error, stale);
}

void Broker::finishJobLocked() {
  --activeJobs_;
  if (queueDepth_ == 0 && activeJobs_ == 0) drained_.notify_all();
}

ServeMetrics Broker::metrics() const {
  ServeMetrics out;
  // Outcome counters are read before `accepted`: a request's accepted
  // increment happens before its outcome increment, so this order
  // keeps completed + failed + rejectedDeadline <= accepted even for
  // snapshots taken mid-flight.
  out.completed = cCompleted_.value();
  out.failed = cFailed_.value();
  out.rejectedDeadline = cRejectedDeadline_.value();
  out.rejectedQueueFull = cRejectedQueueFull_.value();
  out.rejectedShutdown = cRejectedShutdown_.value();
  out.rejectedCircuitOpen = cRejectedCircuitOpen_.value();
  out.coalesced = cCoalesced_.value();
  out.studiesExecuted = cStudiesExecuted_.value();
  out.staleServed = cStaleServed_.value();
  out.rejectedOverload = cRejectedOverload_.value();
  out.shedDeadline = cShedDeadline_.value();
  out.accepted = cAccepted_.value();
  out.admissionLimit = admission_.enabled() ? admission_.limit() : 0;
  const Clock::time_point now = this->now();
  for (std::size_t i = 0; i < kDeviceCount; ++i) {
    out.breakerOpens += breakers_[i].opens();
    out.breakerState[i] = breakerStateName(breakers_[i].state(now));
  }
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    out.latency.counts[i] = hLatencyMs_.bucketValue(i);
  }
  // Every cache counter moves under mu_, so these read as one snapshot
  // with the cache and queue state.
  std::lock_guard lk(mu_);
  out.cacheHits = cCacheHits_.value();
  out.cacheMisses = cCacheMisses_.value();
  out.cacheEvictions = cCacheEvictions_.value();
  out.cacheSize = cache_.size();
  out.cacheCapacity = cache_.capacity();
  out.queueDepth = queueDepth_;
  out.inFlightStudies = inFlight_.size();
  return out;
}

void Broker::syncInstantaneous() const {
  // Mirror the instantaneous state into gauges.
  std::lock_guard lk(mu_);
  gCacheSize_.set(static_cast<std::int64_t>(cache_.size()));
  gCacheCapacity_.set(static_cast<std::int64_t>(cache_.capacity()));
  gQueueDepth_.set(static_cast<std::int64_t>(queueDepth_));
  gInFlightStudies_.set(static_cast<std::int64_t>(inFlight_.size()));
  gAdmissionLimit_.set(admission_.enabled()
                           ? static_cast<std::int64_t>(admission_.limit())
                           : 0);
  const Clock::time_point now = this->now();
  for (std::size_t i = 0; i < kDeviceCount; ++i) {
    gBreakerState_[i]->set(static_cast<std::int64_t>(breakers_[i].state(now)));
  }
}

std::string Broker::renderPrometheus() const {
  syncInstantaneous();
  return registry_.renderPrometheus();
}

obs::RegistrySnapshot Broker::snapshotRegistry() const {
  syncInstantaneous();
  return registry_.snapshot();
}

void Broker::shutdown() {
  std::unique_lock lk(mu_);
  accepting_ = false;
  drained_.wait(lk, [this] { return queueDepth_ == 0 && activeJobs_ == 0; });
}

}  // namespace ep::serve
