// The epserve request broker: a transport-agnostic, concurrent front
// door to the bi-objective tuning stack.
//
// Execution model
//   * Requests are validated and admitted under a single mutex.
//     Admission is O(1).  What runs a queued cold study depends on the
//     engine (TuningEngine::runsInline):
//       - an inline engine (model-direct EpStudyEngine: tens of µs, no
//         pool) runs it to completion on the submitting thread — in
//         epserved, the net event thread that decoded the request, so a
//         cold miss pays no cross-thread hand-off.  Such a broker owns
//         no pool, and pushes its profileLabel as a profiler frame
//         around the run instead of making it its workers' root frame;
//       - any other engine (metered, chaos decorators, test fakes) runs
//         on the broker's ep::ThreadPool, as one task per batch.
//   * Result cache: completed studies are kept in an LRU keyed by
//     (device, N, tuning-constants hash).  A cache hit is served
//     synchronously at submission — no queue round trip.  The broker
//     keeps answers, not studies: a held result carries n, the fronts,
//     the trade-offs and the failures.  The per-configuration data is
//     read once, for the executing request's energy ledger, and
//     released before the result is cached, stored or replicated.
//   * Request coalescing: while a study for key K is being computed,
//     further requests for K do not queue; they register as waiters on
//     the in-flight entry and are all fulfilled by the one computing
//     thread (each with its own degradation budget — the tuner step is
//     cheap, only the study is shared).
//   * Backpressure: at most `queueCapacity` admitted-but-not-started
//     jobs; beyond that submissions are rejected with QueueFull.
//   * Deadlines: a request may carry a relative deadline; expired
//     requests are rejected (DeadlineExceeded) instead of served late.
//   * Shutdown: stops admission immediately, then drains every queued
//     and in-flight job before returning — no future is ever abandoned.
//
// Invariant that keeps the blocking paths deadlock-free: an in-flight
// map entry exists only while its owning thread is inside the one
// engine call that computes it — TuningEngine::evaluate() for a tune,
// one TuningEngine::evaluateList() over every size a sweep claimed —
// or is publishing what that call returned.  Anyone who blocks on an
// in-flight future therefore waits on a *running* computation, never
// on queued work.  Tune jobs never block at all: one lock acquisition
// sees a key neither cached nor in flight and claims it, or registers
// the job as a waiter that the owner completes.  Only study sweeps (off
// the event threads) block-join another thread's study, and only after
// publishing every claim of their own.
//
// Study sweeps resolve every size under one mu_ acquisition, in sweep
// order: a cache hit is counted once; a key in flight elsewhere is
// joined after the pass; a breaker refusal is answered stale, or else
// ends the claims (the response is CircuitOpen); anything else is
// claimed.  One evaluateList() call computes the claimed sizes, and
// each is published through the code a tune's cold study uses.  So:
//   * the deadline is checked once, before the claims;
//   * a failing size fails only itself: the other sizes are computed
//     and cached, the breaker sees one failure per failing size, and
//     the response is Error with the first failing size's message;
//   * sweep sizes do not feed AdmissionController::observeColdStudyMs,
//     since a size inside a shared pass has no wall time of its own;
//     cold tunes still do.  (No binary arms admission.)
#pragma once

#include <array>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/watchdog.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/admission.hpp"
#include "serve/breaker.hpp"
#include "serve/engine.hpp"
#include "serve/lru_cache.hpp"
#include "serve/metrics.hpp"
#include "serve/request.hpp"

namespace ep::serve {

struct BrokerOptions {
  // Pool workers, for an engine that does not run inline (an inline
  // engine's broker has no pool); 0 = hardware concurrency.
  std::size_t threads = 0;
  std::size_t queueCapacity = 64; // admitted-but-not-started jobs
  // epprof frame for this broker's work: the root frame of its worker
  // threads (empty keeps the pool default "pool/worker"), or, for an
  // inline engine, a frame pushed on the submitting thread around each
  // cold study (empty pushes none).  The fleet router sets "shard/<id>"
  // so cluster CPU/energy profiles partition by shard.
  std::string profileLabel;
  std::size_t cacheCapacity = 128;
  // Applied to requests that carry no deadline; <= 0 keeps them
  // deadline-free.
  double defaultDeadlineMs = 0.0;
  // Per-device circuit breaker over engine evaluations; disabled by
  // default (failureThreshold == 0).
  CircuitBreakerOptions breaker{};
  // Stale-while-error store: every successful study (as held: no data)
  // is also remembered here, independently of the LRU result cache,
  // and served — flagged stale — when the engine fails or the breaker
  // is open.  0 disables.
  std::size_t staleCapacity = 128;
  // Optional anomaly watchdog fed one outcome per finished request
  // (error / stale / healthy), for the ErrorBudget detector.  Must
  // outlive the broker.
  core::PowerAnomalyWatchdog* watchdog = nullptr;
  // Adaptive overload control (see serve/admission.hpp); disabled by
  // default — the admission path then skips it entirely.
  AdmissionOptions admission{};
  // Injectable time source for deadlines, breaker windows, latency
  // accounting and admission AIMD; unset = steady clock.  Tests and
  // drills drive overload/recovery scenarios deterministically with a
  // fake clock; production brokers leave it unset.
  std::function<Clock::time_point()> clock;
  // Fleet-integration hooks; both may be empty.  Called from broker
  // worker (or submitter) threads with no broker lock held, so they may
  // call back into any Broker API except shutdown().
  //   onStudyExecuted: fires once per cold engine evaluation that
  //     succeeded — the fleet router replicates the result to the key's
  //     ring successor and streams its front into the cluster fronts.
  //     The result is the held one: no data.
  //   onTuneComplete: fires for every fulfilled tune promise (success
  //     or rejection) — the router's EWMA J/req price signal and
  //     latency accounting feed off it.
  std::function<void(Device, int,
                     std::shared_ptr<const core::WorkloadResult>)>
      onStudyExecuted;
  std::function<void(const TuneRequest&, const TuneResponse&)>
      onTuneComplete;
};

class Broker {
 public:
  Broker(std::shared_ptr<const TuningEngine> engine, BrokerOptions options = {});
  ~Broker();  // shutdown()

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  // A batch of one through submitTuneBatch, under the caller's trace
  // context, answered through the returned future.
  [[nodiscard]] std::future<TuneResponse> submitTune(const TuneRequest& req);
  [[nodiscard]] std::future<StudyResponse> submitStudy(const StudyRequest& req);

  // One member of a submitTuneBatch() call.  `done` is invoked exactly
  // once — possibly inline during submission (cache hit, rejection),
  // possibly later from a worker thread — with the item's trace
  // context installed, so batch members' spans never cross-contaminate.
  struct TuneBatchItem {
    TuneRequest req;
    obs::TraceContext ctx;  // completion runs under this context
    std::function<void(TuneResponse&&)> done;
  };

  // Admit a whole batch under ONE mutex acquisition, then run every
  // queued member in order: in place for an inline engine, as ONE pool
  // task otherwise (the event-loop frontend drains all ready sockets
  // per epoll round and submits here, so lock and pool-hop costs
  // amortize across connections).  Each item gets the same validation,
  // cache-hit, coalescing, breaker, deadline and backpressure behavior
  // as it would alone.
  void submitTuneBatch(std::vector<TuneBatchItem> items);

  // Blocking conveniences.
  [[nodiscard]] TuneResponse tune(const TuneRequest& req) {
    return submitTune(req).get();
  }
  [[nodiscard]] StudyResponse study(const StudyRequest& req) {
    return submitStudy(req).get();
  }

  // Consistent-enough snapshot of the broker's epobs registry plus the
  // instantaneous cache/queue state.  Counter reads are ordered so the
  // admission identity (completed + failed + rejectedDeadline <=
  // accepted) holds even while requests are in flight.
  [[nodiscard]] ServeMetrics metrics() const;

  // Prometheus text exposition of the same registry (plus gauges for
  // the instantaneous state, synced at render time).
  [[nodiscard]] std::string renderPrometheus() const;

  // Sync the instantaneous gauges and snapshot the broker's registry —
  // the scrape source for eptsdb and for cluster federation.
  [[nodiscard]] obs::RegistrySnapshot snapshotRegistry() const;

  // Cross-shard stale serving: install a result computed on another
  // shard into this broker's stale-while-error store.  Deliberately
  // never touches the primary result cache — a replica must not mask
  // this shard's own cold path or its hit-rate accounting.  No-op when
  // the stale store is disabled.
  void installStaleResult(Device device, int n,
                          std::shared_ptr<const core::WorkloadResult> result);

  // Serve a tune request purely from the stale store: the cheap tuner
  // step over a last-known-good study, flagged stale.  Returns nullopt
  // when no stale result exists for the key (or during shutdown).
  // Never queues, never touches the engine or the breaker.
  [[nodiscard]] std::optional<TuneResponse> tuneFromStale(
      const TuneRequest& req);

  // Stop admitting, drain all queued and in-flight work, return when
  // every outstanding future is fulfilled.  Idempotent.
  void shutdown();

 private:
  using ResultPtr = std::shared_ptr<const core::WorkloadResult>;

  struct TuneJob {
    TuneRequest req;
    Clock::time_point submitted;
    Clock::time_point deadline;  // time_point::max() = none
    // The submitter's trace context, re-installed around completion so
    // coalesced followers (fulfilled on the study owner's worker) stay
    // linked to their own request's span tree, not the owner's.
    obs::TraceContext ctx;
    // Invoked exactly once with the final response: the batch item's
    // `done` (submitTune's is a promise wrapper).
    std::function<void(TuneResponse&&)> deliver;
    // Holds an admission-controller concurrency slot (queued jobs only);
    // released exactly once at completion/rejection.
    bool admitted = false;
  };
  using TuneJobPtr = std::shared_ptr<TuneJob>;

  // Admission verdict for one tune job, decided under mu_; the actions
  // that must run unlocked (completion, rejection) are returned to the
  // caller so a batch can make every decision under one acquisition.
  struct TuneAdmission {
    enum class Act {
      Queued,        // admitted: run runTuneJob (in place or pooled)
      Coalesced,     // joined an in-flight study; nothing more to do
      CompleteHit,   // serve `result` as a cache hit (unlocked)
      CompleteStale, // serve `result` stale, breaker open (unlocked)
      Reject,        // reject with `status`/`error` (unlocked)
    };
    Act act = Act::Queued;
    ResultPtr result;
    Status status = Status::Ok;
    const char* error = "";
  };
  // Counts the job's one cache lookup (ep_serve_cache_*), unless it
  // queues: runTuneJob counts that one.
  [[nodiscard]] TuneAdmission admitTuneLocked(const TuneJobPtr& job);
  // The verdict for a valid tune the cache did not answer.
  [[nodiscard]] TuneAdmission admitColdTuneLocked(const TuneJobPtr& job,
                                                  const StudyKey& key);
  // The unlocked half: perform what admitTuneLocked decided (except
  // Queued, whose execution the caller owns so batches share one).
  void settleAdmission(const TuneJobPtr& job, const TuneAdmission& a);

  // Run admitted work: to completion on this thread when the engine
  // runs inline, else as one pool task.
  template <typename Work>
  void execute(Work&& work);

  // How a study was resolved: the result plus whether it came from the
  // stale-while-error store (the owner's engine failed but an old good
  // result could answer).  Coalesced waiters see the same outcome —
  // minus the attribution, which belongs to the executing owner only.
  struct StudyOutcome {
    ResultPtr result;
    bool stale = false;
    bool executed = false;  // this caller ran the study cold
    core::EnergyAttribution attr{};
  };

  struct InFlightStudy {
    std::promise<StudyOutcome> promise;
    std::shared_future<StudyOutcome> future;
    std::vector<TuneJobPtr> waiters;
  };

  [[nodiscard]] StudyKey keyFor(Device device, int n) const;
  // The broker's time source (options_.clock or the steady clock).
  [[nodiscard]] Clock::time_point now() const {
    return options_.clock ? options_.clock() : Clock::now();
  }
  [[nodiscard]] Clock::time_point deadlineFor(double deadlineMs,
                                              Clock::time_point now) const;

  // Job bodies (on a worker, or inline on the submitting thread).
  void runTuneJob(const TuneJobPtr& job);
  void runStudyJob(const std::shared_ptr<StudyRequest>& req,
                   Clock::time_point submitted, Clock::time_point deadline,
                   const std::shared_ptr<std::promise<StudyResponse>>& promise);

  // Under mu_, for a key seen neither cached nor in flight: claim it
  // (register it in flight, one breaker allow() spent) and return the
  // entry, or, when the device's breaker refuses, return null with
  // `*stale` set to the stale store's answer if it holds one.
  [[nodiscard]] std::shared_ptr<InFlightStudy> claimLocked(
      Device device, const StudyKey& key, ResultPtr* stale);
  // A tune's cold study: claim the key the caller saw neither cached nor
  // in flight under `lk` (held on entry, released on return or throw),
  // evaluate it and publish it, or answer it from the breaker path.
  // Throws on engine failure with no stale fallback, BreakerOpenError
  // when the breaker rejects and nothing stale is available.
  [[nodiscard]] StudyOutcome computeStudy(std::unique_lock<std::mutex>& lk,
                                          Device device, int n,
                                          const StudyKey& key);
  // What the engine answered for a claimed key, made visible: the
  // in-flight entry goes, the result is cached (and kept stale), the
  // breaker, the ledger, the onStudyExecuted hook and every waiter are
  // settled, and the claimer's outcome is returned — or the engine's
  // error thrown when nothing stale can answer.  Called without mu_,
  // once per claim, by tunes and sweeps alike.
  [[nodiscard]] StudyOutcome publishStudy(
      Device device, int n, const StudyKey& key,
      const std::shared_ptr<InFlightStudy>& entry,
      core::WorkloadAttempt attempt);

  // Fulfill a tune job from a completed study (cheap tuner step).
  // `attribution`/`executed` carry the owner's energy ledger entry;
  // cache hits and coalesced joins pass the default (zero) attribution.
  void completeTune(const TuneJobPtr& job, const ResultPtr& result,
                    bool cacheHit, bool coalesced, bool stale = false,
                    const core::EnergyAttribution& attribution = {},
                    bool executed = false);
  void rejectTune(const TuneJobPtr& job, Status status,
                  const std::string& error);

  // Per-device attribution counters + watchdog outcome feed.
  void accountStudyEnergy(Device device, const core::EnergyAttribution& a);
  void feedWatchdog(Device device, bool error, bool stale);

  // Mirror the instantaneous state into gauges (shared by
  // renderPrometheus / snapshotRegistry).
  void syncInstantaneous() const;

  void finishJobLocked();  // activeJobs_ bookkeeping + drain signal

  std::shared_ptr<const TuningEngine> engine_;
  BrokerOptions options_;

  // Request accounting lives in a per-broker epobs registry: counter
  // increments are lock-free relaxed atomics (no mu_ on the hot path),
  // and the same registry renders the Prometheus exposition.  The
  // registry must be declared before the references into it.
  obs::Registry registry_;
  obs::Counter& cAccepted_;
  obs::Counter& cCompleted_;
  obs::Counter& cFailed_;
  obs::Counter& cRejectedQueueFull_;
  obs::Counter& cRejectedDeadline_;
  obs::Counter& cRejectedShutdown_;
  obs::Counter& cCoalesced_;
  obs::Counter& cStudiesExecuted_;
  obs::Counter& cCacheHits_;
  obs::Counter& cCacheMisses_;
  obs::Counter& cCacheEvictions_;
  obs::Counter& cRejectedCircuitOpen_;
  obs::Counter& cBreakerOpens_;
  obs::Counter& cStaleServed_;
  obs::Counter& cRejectedOverload_;
  obs::Counter& cShedDeadline_;
  obs::Gauge& gAdmissionLimit_;
  obs::Gauge& gQueueDepth_;
  obs::Gauge& gInFlightStudies_;
  obs::Gauge& gCacheSize_;
  obs::Gauge& gCacheCapacity_;
  std::array<obs::Gauge*, kDeviceCount> gBreakerState_;
  obs::Histogram& hLatencyMs_;
  // Request-attributed energy ledger, one child series per device.
  struct DeviceLedger {
    obs::DoubleCounter& joules;
    obs::Counter& windows;
    // Attributed-energy distribution per cold study, exemplar-linked
    // to the paying request's trace id.
    obs::Histogram& joulesHist;
  };
  std::array<DeviceLedger, kDeviceCount> ledger_;

  mutable std::mutex mu_;
  std::condition_variable drained_;
  bool accepting_ = true;
  std::size_t queueDepth_ = 0;   // admitted, not yet started
  std::size_t activeJobs_ = 0;   // started, not yet finished
  // Held results (answers only; see the header comment).
  LruCache<StudyKey, ResultPtr, StudyKeyHash> cache_;
  // Last-known-good held results, kept past cache_ eviction so an
  // engine failure (or an open breaker) can still answer — flagged
  // stale.
  LruCache<StudyKey, ResultPtr, StudyKeyHash> staleStore_;
  std::unordered_map<StudyKey, std::shared_ptr<InFlightStudy>, StudyKeyHash>
      inFlight_;
  // One breaker per device: a broken K40c engine must not open the
  // circuit for P100 traffic.  Own leaf mutex; safe to call under mu_.
  std::array<CircuitBreaker, kDeviceCount> breakers_;
  // Adaptive concurrency + deadline shedding.  Leaf mutex like the
  // breakers; consulted under mu_ at admission, released unlocked.
  AdmissionController admission_;

  // Last member: destroyed first, joining workers while the rest of the
  // broker state is still alive.  Null when the engine runs inline.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace ep::serve
