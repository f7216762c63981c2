// epserve broker tests: LRU cache behaviour, request coalescing,
// deadlines and backpressure, shutdown draining, and metrics-snapshot
// consistency under concurrency.  Everything runs in-process against a
// controllable fake engine (no sockets); the last tests exercise the
// real EpStudyEngine end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <limits>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/study.hpp"
#include "core/tuner.hpp"
#include "core/watchdog.hpp"
#include "obs/trace.hpp"
#include "pareto/front.hpp"
#include "pareto/tradeoff.hpp"
#include "net/frame.hpp"
#include "serve/breaker.hpp"
#include "serve/broker.hpp"
#include "serve/engine.hpp"
#include "serve/lru_cache.hpp"
#include "serve/wire.hpp"
#include "serve/wire_binary.hpp"

namespace ep::serve {
namespace {

pareto::BiPoint mk(double t, double e, std::uint64_t id) {
  pareto::BiPoint p;
  p.time = Seconds{t};
  p.energy = Joules{e};
  p.configId = id;
  p.label = "cfg" + std::to_string(id);
  return p;
}

// A deterministic engine whose evaluate() can be gated (to hold a study
// "in flight" while the test arranges concurrent requests) and counted
// (to prove coalescing executes exactly one study).  It records the
// sizes of every evaluateList() call and answers them with the default,
// one evaluate() per size.
class FakeEngine : public TuningEngine {
 public:
  explicit FakeEngine(bool gated = false) : gated_(gated) {}

  std::uint64_t tuningHash(Device d) const override {
    return 0xFA4Eu + static_cast<std::uint64_t>(d);
  }

  core::WorkloadResult evaluate(Device d, int n,
                                ThreadPool* pool) const override {
    lastPool_ = pool;
    {
      std::unique_lock lk(mu_);
      ++entered_;
      cv_.notify_all();
      if (gated_) cv_.wait(lk, [this] { return released_; });
    }
    calls_.fetch_add(1, std::memory_order_relaxed);
    if (failAll_.load(std::memory_order_relaxed) || n == failN_) {
      throw ResourceError("synthetic engine failure");
    }
    core::WorkloadResult r;
    r.n = n;
    // Two synthetic measured configs so attributeEnergy() sees a
    // deterministic ledger: 0.01*n + 2 J over 5 windows, 1 remeasure.
    apps::GpuDataPoint d1;
    d1.dynamicEnergy = Joules{0.01 * n};
    d1.repetitions = 3;
    d1.remeasures = 1;
    apps::GpuDataPoint d2;
    d2.dynamicEnergy = Joules{2.0};
    d2.repetitions = 2;
    r.data = {d1, d2};
    const double s = 1.0 + static_cast<double>(n) * 1e-4 +
                     (d == Device::K40c ? 0.01 : 0.0);
    const std::vector<pareto::BiPoint> points = {
        mk(1.0 * s, 10.0, 0), mk(1.1 * s, 7.0, 1), mk(1.5 * s, 4.0, 2),
        mk(2.0 * s, 3.5, 3)};
    r.globalFront = pareto::paretoFront(points);
    r.localFront = pareto::localFront(points, 2);
    r.globalTradeoff = pareto::analyzeTradeoff(points);
    if (!r.localFront.empty()) {
      r.localTradeoff = pareto::analyzeTradeoff(r.localFront);
    }
    return r;
  }

  std::vector<core::WorkloadAttempt> evaluateList(
      Device d, std::span<const int> sizes, ThreadPool* pool) const override {
    {
      std::lock_guard lk(mu_);
      lists_.emplace_back(sizes.begin(), sizes.end());
    }
    return TuningEngine::evaluateList(d, sizes, pool);
  }

  void failOn(int n) { failN_ = n; }
  void failAlways(bool on = true) {
    failAll_.store(on, std::memory_order_relaxed);
  }

  // Block until a worker is inside evaluate().
  void waitEntered(int count = 1) const {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [this, count] { return entered_ >= count; });
  }

  void release() {
    std::lock_guard lk(mu_);
    released_ = true;
    cv_.notify_all();
  }

  int calls() const { return calls_.load(std::memory_order_relaxed); }
  ThreadPool* lastPool() const { return lastPool_; }
  std::vector<std::vector<int>> lists() const {
    std::lock_guard lk(mu_);
    return lists_;
  }

 private:
  bool gated_;
  int failN_ = -1;
  std::atomic<bool> failAll_{false};
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable int entered_ = 0;
  bool released_ = false;
  mutable std::atomic<int> calls_{0};
  mutable std::atomic<ThreadPool*> lastPool_{nullptr};
  mutable std::vector<std::vector<int>> lists_;
};

TuneRequest tuneReq(int n, double budget = 0.5, double deadlineMs = 0.0,
                    Device d = Device::P100) {
  TuneRequest r;
  r.device = d;
  r.n = n;
  r.maxDegradation = budget;
  r.deadlineMs = deadlineMs;
  return r;
}

// --- LRU cache ---

TEST(LruCache, EvictsLeastRecentlyUsedInOrder) {
  LruCache<int, int> cache(3);
  EXPECT_FALSE(cache.put(1, 10));
  EXPECT_FALSE(cache.put(2, 20));
  EXPECT_FALSE(cache.put(3, 30));
  EXPECT_EQ(cache.keysMostRecentFirst(), (std::vector<int>{3, 2, 1}));

  ASSERT_TRUE(cache.get(1).has_value());  // promote 1
  EXPECT_EQ(cache.keysMostRecentFirst(), (std::vector<int>{1, 3, 2}));

  EXPECT_TRUE(cache.put(4, 40));  // evicts 2, the LRU
  EXPECT_EQ(cache.keysMostRecentFirst(), (std::vector<int>{4, 1, 3}));
  EXPECT_FALSE(cache.contains(2));

  EXPECT_TRUE(cache.put(5, 50));  // evicts 3
  EXPECT_TRUE(cache.put(6, 60));  // evicts 1
  EXPECT_EQ(cache.keysMostRecentFirst(), (std::vector<int>{6, 5, 4}));
}

TEST(LruCache, OverwritePromotesAndKeepsSize) {
  LruCache<int, int> cache(2);
  cache.put(1, 10);
  cache.put(2, 20);
  EXPECT_FALSE(cache.put(1, 11));  // overwrite promotes, no eviction
  EXPECT_EQ(cache.keysMostRecentFirst(), (std::vector<int>{1, 2}));
  EXPECT_EQ(cache.get(1).value(), 11);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCache, RejectsZeroCapacity) {
  EXPECT_THROW((LruCache<int, int>(0)), PreconditionError);
}

// --- latency histogram quantiles ---

TEST(LatencyHistogram, EmptyHistogramReportsZero) {
  LatencyHistogram h;
  EXPECT_DOUBLE_EQ(h.quantileUpperBoundMs(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantileUpperBoundMs(1.0), 0.0);
}

TEST(LatencyHistogram, InvalidQuantileThrows) {
  LatencyHistogram h;
  h.record(1.0);
  EXPECT_THROW((void)h.quantileUpperBoundMs(0.0), PreconditionError);
  EXPECT_THROW((void)h.quantileUpperBoundMs(-0.1), PreconditionError);
  EXPECT_THROW((void)h.quantileUpperBoundMs(1.5), PreconditionError);
}

TEST(LatencyHistogram, QuantileFindsBoundaryBuckets) {
  LatencyHistogram h;
  // One sample in the first bucket, one in the last finite bucket.
  h.record(0.01);    // <= 0.05
  h.record(1500.0);  // <= 2000
  EXPECT_DOUBLE_EQ(h.quantileUpperBoundMs(0.5),
                   LatencyHistogram::kUpperBoundsMs.front());
  EXPECT_DOUBLE_EQ(h.quantileUpperBoundMs(1.0),
                   LatencyHistogram::kUpperBoundsMs.back());
}

TEST(LatencyHistogram, BucketUpperBoundsAreInclusive) {
  LatencyHistogram h;
  h.record(0.05);  // exactly the first bound stays in bucket 0
  EXPECT_EQ(h.counts[0], 1u);
  EXPECT_DOUBLE_EQ(h.quantileUpperBoundMs(1.0), 0.05);
}

TEST(LatencyHistogram, OverflowBucketUsesSentinelBound) {
  LatencyHistogram h;
  h.record(10'000.0);  // beyond the last finite bound
  EXPECT_EQ(h.counts[LatencyHistogram::kBuckets - 1], 1u);
  EXPECT_DOUBLE_EQ(h.quantileUpperBoundMs(1.0),
                   LatencyHistogram::kUpperBoundsMs.back() * 10.0);
}

TEST(LatencyHistogram, MedianLandsInMiddleBucket) {
  LatencyHistogram h;
  for (int i = 0; i < 10; ++i) h.record(0.3);  // bucket le=0.5
  for (int i = 0; i < 10; ++i) h.record(40.0); // bucket le=100
  EXPECT_DOUBLE_EQ(h.quantileUpperBoundMs(0.5), 0.5);
  EXPECT_DOUBLE_EQ(h.quantileUpperBoundMs(0.99), 100.0);
}

// --- cache + coalescing ---

TEST(Broker, SecondIdenticalRequestIsACacheHit) {
  auto engine = std::make_shared<FakeEngine>();
  BrokerOptions opts;
  opts.threads = 2;
  Broker broker(engine, opts);

  const TuneResponse first = broker.tune(tuneReq(100));
  ASSERT_EQ(first.status, Status::Ok);
  EXPECT_FALSE(first.cacheHit);

  const TuneResponse second = broker.tune(tuneReq(100));
  ASSERT_EQ(second.status, Status::Ok);
  EXPECT_TRUE(second.cacheHit);
  EXPECT_EQ(second.recommendation.recommended.configId,
            first.recommendation.recommended.configId);

  EXPECT_EQ(engine->calls(), 1);
  const ServeMetrics m = broker.metrics();
  EXPECT_EQ(m.studiesExecuted, 1u);
  EXPECT_EQ(m.completed, 2u);
  EXPECT_EQ(m.accepted, 2u);
}

TEST(Broker, PassesItsPoolToTheEngine) {
  auto engine = std::make_shared<FakeEngine>();
  BrokerOptions opts;
  opts.threads = 2;
  Broker broker(engine, opts);
  ASSERT_EQ(broker.tune(tuneReq(42)).status, Status::Ok);
  ASSERT_NE(engine->lastPool(), nullptr);
  EXPECT_EQ(engine->lastPool()->size(), 2u);
}

// A study job that fans out on the broker's own pool — with the old
// global-wait() parallelFor this was a guaranteed deadlock on a
// single-worker broker (the worker waited on its own task).  The
// per-call latch plus caller participation must complete it.
class NestedParallelEngine : public TuningEngine {
 public:
  std::uint64_t tuningHash(Device d) const override {
    return 0x4E57EDu + static_cast<std::uint64_t>(d);
  }

  core::WorkloadResult evaluate(Device d, int n,
                                ThreadPool* pool) const override {
    std::vector<double> times(64);
    const auto fill = [&](std::size_t i) {
      times[i] = 1.0 + 0.01 * static_cast<double>(i) +
                 (d == Device::K40c ? 0.5 : 0.0);
    };
    if (pool != nullptr) {
      pool->parallelFor(0, times.size(), fill);
    } else {
      for (std::size_t i = 0; i < times.size(); ++i) fill(i);
    }
    core::WorkloadResult r;
    r.n = n;
    std::vector<pareto::BiPoint> points;
    for (std::size_t i = 0; i < times.size(); ++i) {
      points.push_back(mk(times[i], 10.0 - 0.1 * static_cast<double>(i), i));
    }
    r.globalFront = pareto::paretoFront(points);
    r.localFront = pareto::localFront(points, 2);
    r.globalTradeoff = pareto::analyzeTradeoff(points);
    if (!r.localFront.empty()) {
      r.localTradeoff = pareto::analyzeTradeoff(r.localFront);
    }
    return r;
  }
};

TEST(Broker, StudyJobUsingBrokerPoolCompletes) {
  auto engine = std::make_shared<NestedParallelEngine>();
  BrokerOptions opts;
  opts.threads = 1;  // the deterministic-deadlock shape under the old impl
  Broker broker(engine, opts);
  const TuneResponse resp = broker.tune(tuneReq(512));
  ASSERT_EQ(resp.status, Status::Ok);
  EXPECT_FALSE(resp.recommendation.globalFront.empty());
}

TEST(Broker, ConcurrentStudyJobsUsingBrokerPoolComplete) {
  auto engine = std::make_shared<NestedParallelEngine>();
  BrokerOptions opts;
  opts.threads = 4;
  opts.queueCapacity = 64;
  Broker broker(engine, opts);
  std::vector<std::future<TuneResponse>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(broker.submitTune(
        tuneReq(100 + i, 0.5, 0.0,
                i % 2 == 0 ? Device::P100 : Device::K40c)));
  }
  for (auto& f : futures) EXPECT_EQ(f.get().status, Status::Ok);
}

TEST(Broker, DevicesDoNotShareCacheEntries) {
  auto engine = std::make_shared<FakeEngine>();
  Broker broker(engine, BrokerOptions{});
  ASSERT_EQ(broker.tune(tuneReq(64, 0.5, 0.0, Device::P100)).status,
            Status::Ok);
  ASSERT_EQ(broker.tune(tuneReq(64, 0.5, 0.0, Device::K40c)).status,
            Status::Ok);
  EXPECT_EQ(engine->calls(), 2);
}

TEST(Broker, ConcurrentIdenticalRequestsCoalesceIntoOneStudy) {
  auto engine = std::make_shared<FakeEngine>(/*gated=*/true);
  BrokerOptions opts;
  opts.threads = 4;
  opts.queueCapacity = 32;
  Broker broker(engine, opts);

  auto first = broker.submitTune(tuneReq(100, /*budget=*/0.5));
  engine->waitEntered();  // the study for N=100 is now in flight

  std::vector<std::future<TuneResponse>> rest;
  for (int i = 0; i < 7; ++i) {
    rest.push_back(broker.submitTune(tuneReq(100, /*budget=*/0.0)));
  }
  // Registration is synchronous: all 7 joined the in-flight study.
  EXPECT_EQ(broker.metrics().coalesced, 7u);

  engine->release();
  const TuneResponse r0 = first.get();
  ASSERT_EQ(r0.status, Status::Ok);
  EXPECT_FALSE(r0.coalesced);
  // Budget 0.5 admits the cheaper cfg2; the coalesced zero-budget
  // requests still get their own budget applied to the shared study.
  EXPECT_EQ(r0.recommendation.recommended.configId, 2u);
  for (auto& f : rest) {
    const TuneResponse r = f.get();
    ASSERT_EQ(r.status, Status::Ok);
    EXPECT_TRUE(r.coalesced);
    EXPECT_EQ(r.recommendation.recommended.configId, 0u);
  }

  EXPECT_EQ(engine->calls(), 1) << "coalescing must run exactly one study";
  const ServeMetrics m = broker.metrics();
  EXPECT_EQ(m.studiesExecuted, 1u);
  EXPECT_EQ(m.coalesced, 7u);
  EXPECT_EQ(m.completed, 8u);
}

TEST(Broker, CoalescedWaitersSeeEngineFailure) {
  auto engine = std::make_shared<FakeEngine>(/*gated=*/true);
  engine->failOn(666);
  BrokerOptions opts;
  opts.threads = 2;
  Broker broker(engine, opts);

  auto first = broker.submitTune(tuneReq(666));
  engine->waitEntered();
  auto second = broker.submitTune(tuneReq(666));
  engine->release();

  EXPECT_EQ(first.get().status, Status::Error);
  const TuneResponse r2 = second.get();
  EXPECT_EQ(r2.status, Status::Error);
  EXPECT_NE(r2.error.find("synthetic"), std::string::npos);
  EXPECT_EQ(broker.metrics().failed, 2u);
}

// --- per-request energy attribution (the RequestReport ledger) ---

// The ledger FakeEngine::evaluate stamps per executed study.
double fakeStudyJoules(int n) { return 0.01 * n + 2.0; }

TEST(Broker, RequestReportAttributesColdStudyAndZeroesCacheHits) {
  auto engine = std::make_shared<FakeEngine>();
  Broker broker(engine, BrokerOptions{});

  const TuneResponse cold = broker.tune(tuneReq(100));
  ASSERT_EQ(cold.status, Status::Ok);
  EXPECT_EQ(cold.report.studiesExecuted, 1u);
  EXPECT_DOUBLE_EQ(cold.report.attributedJoules, fakeStudyJoules(100));
  EXPECT_EQ(cold.report.measurementWindows, 5u);
  EXPECT_EQ(cold.report.remeasures, 1u);
  EXPECT_EQ(cold.report.cacheHits, 0u);

  const TuneResponse warm = broker.tune(tuneReq(100));
  ASSERT_EQ(warm.status, Status::Ok);
  EXPECT_TRUE(warm.cacheHit);
  EXPECT_EQ(warm.report.cacheHits, 1u);
  EXPECT_EQ(warm.report.studiesExecuted, 0u);
  EXPECT_DOUBLE_EQ(warm.report.attributedJoules, 0.0);
  EXPECT_EQ(warm.report.measurementWindows, 0u);
  // The mix total equals the energy actually measured: one cold study.
  EXPECT_DOUBLE_EQ(
      cold.report.attributedJoules + warm.report.attributedJoules,
      fakeStudyJoules(100));
}

TEST(Broker, CoalescedPairReportsExactlyOneStudyOfEnergy) {
  auto engine = std::make_shared<FakeEngine>(/*gated=*/true);
  BrokerOptions opts;
  opts.threads = 4;
  Broker broker(engine, opts);

  auto owner = broker.submitTune(tuneReq(200));
  engine->waitEntered();  // the owner is inside the study
  auto joiner = broker.submitTune(tuneReq(200));
  while (broker.metrics().coalesced < 1) std::this_thread::yield();
  engine->release();

  const TuneResponse r0 = owner.get();
  const TuneResponse r1 = joiner.get();
  ASSERT_EQ(r0.status, Status::Ok);
  ASSERT_EQ(r1.status, Status::Ok);
  EXPECT_EQ(engine->calls(), 1);

  // The executing owner holds the whole ledger; the join rides free.
  EXPECT_EQ(r0.report.studiesExecuted, 1u);
  EXPECT_DOUBLE_EQ(r0.report.attributedJoules, fakeStudyJoules(200));
  EXPECT_TRUE(r1.coalesced);
  EXPECT_EQ(r1.report.coalesced, 1u);
  EXPECT_EQ(r1.report.studiesExecuted, 0u);
  EXPECT_DOUBLE_EQ(r1.report.attributedJoules, 0.0);
  EXPECT_EQ(r1.report.measurementWindows, 0u);
  // No double counting: the pair sums to exactly one study's energy.
  EXPECT_DOUBLE_EQ(
      r0.report.attributedJoules + r1.report.attributedJoules,
      fakeStudyJoules(200));
}

TEST(Broker, StudyReportAggregatesOverTheSweep) {
  auto engine = std::make_shared<FakeEngine>();
  BrokerOptions opts;
  opts.threads = 2;
  Broker broker(engine, opts);
  StudyRequest req;
  req.nBegin = 100;
  req.nEnd = 300;
  req.nStep = 100;

  const StudyResponse cold = broker.study(req);
  ASSERT_EQ(cold.status, Status::Ok);
  EXPECT_EQ(cold.report.studiesExecuted, 3u);
  EXPECT_DOUBLE_EQ(cold.report.attributedJoules,
                   fakeStudyJoules(100) + fakeStudyJoules(200) +
                       fakeStudyJoules(300));
  EXPECT_EQ(cold.report.measurementWindows, 15u);
  EXPECT_EQ(cold.report.remeasures, 3u);
  EXPECT_EQ(cold.report.cacheHits, 0u);

  const StudyResponse warm = broker.study(req);
  ASSERT_EQ(warm.status, Status::Ok);
  EXPECT_EQ(warm.report.cacheHits, 3u);
  EXPECT_EQ(warm.report.studiesExecuted, 0u);
  EXPECT_DOUBLE_EQ(warm.report.attributedJoules, 0.0);
}

TEST(Broker, EnergyLedgerMetricsCarryDeviceLabels) {
  auto engine = std::make_shared<FakeEngine>();
  Broker broker(engine, BrokerOptions{});
  ASSERT_EQ(broker.tune(tuneReq(100)).status, Status::Ok);
  ASSERT_EQ(broker.tune(tuneReq(100, 0.5, 0.0, Device::K40c)).status,
            Status::Ok);
  const std::string text = broker.renderPrometheus();
  EXPECT_NE(text.find("ep_request_energy_joules{device=\"P100\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ep_request_energy_joules{device=\"K40c\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("ep_request_windows_total{device=\"P100\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("ep_request_windows_total{device=\"K40c\"} 5"),
            std::string::npos);
}

// --- watchdog feed from the serve outcome stream ---

TEST(Broker, ErrorStormTripsTheWatchdogErrorBudget) {
  core::WatchdogOptions wopts;
  wopts.minRequests = 4;
  wopts.requestWindow = 8;
  wopts.errorBudget = 0.5;
  core::PowerAnomalyWatchdog watchdog(wopts);

  auto engine = std::make_shared<FakeEngine>();
  engine->failAlways();
  BrokerOptions opts;
  opts.watchdog = &watchdog;
  Broker broker(engine, opts);
  for (int i = 0; i < 6; ++i) {
    // Distinct workloads: no cache, every request fails cold.
    EXPECT_EQ(broker.tune(tuneReq(100 + i)).status, Status::Error);
  }
  EXPECT_GE(watchdog.activeAlerts(), 1u);
  bool sawBudget = false;
  for (const auto& e : watchdog.events()) {
    if (std::string(e.kind) == "error_budget") sawBudget = true;
  }
  EXPECT_TRUE(sawBudget);
}

// --- trace propagation across the broker's pool ---

TEST(Broker, TraceContextPropagatesOntoBrokerWorkers) {
  obs::Tracer::global().clear();
  obs::Tracer::global().setEnabled(true);
  auto engine = std::make_shared<FakeEngine>();

  std::uint64_t rootSpanId = 0;
  std::uint32_t rootTid = 0;
  {
    // tune() returns when the worker fulfills the promise, which
    // happens *inside* the serve/tune_job span — scope the broker so
    // its destructor joins the workers and flushes every span before
    // the snapshot below.
    BrokerOptions opts;
    opts.threads = 2;
    Broker broker(engine, opts);
    obs::ScopedTraceContext scope(obs::TraceContext{0x7AC3u, 0u});
    obs::Span root("test/request");
    rootSpanId = root.spanId();
    rootTid = obs::Tracer::global().threadBuffer().tid;
    ASSERT_EQ(broker.tune(tuneReq(100)).status, Status::Ok);
  }
  obs::Tracer::global().setEnabled(false);

  bool sawTuneJob = false;
  bool sawEval = false;
  for (const auto& e : obs::Tracer::global().snapshot()) {
    const std::string name = e.name;
    if (name == "serve/tune_job") {
      sawTuneJob = true;
      // The job span carries the request identity onto the worker
      // thread and links straight back to the submitting span.
      EXPECT_EQ(e.traceId, 0x7AC3u);
      EXPECT_EQ(e.parentSpanId, rootSpanId);
      EXPECT_NE(e.tid, rootTid);
    } else if (name == "serve/engine_evaluate") {
      sawEval = true;
      EXPECT_EQ(e.traceId, 0x7AC3u);
    }
  }
  EXPECT_TRUE(sawTuneJob);
  EXPECT_TRUE(sawEval);
  obs::Tracer::global().clear();
}

// Regression: a coalesced follower's completion used to run under the
// *owner's* thread-local trace context (the owner's worker fulfills
// every waiter), so follower completions were attributed to the wrong
// trace.  The broker now stamps the submitter's context into the job
// and re-installs it around completion.
TEST(Broker, CoalescedFollowerCompletionKeepsItsOwnTrace) {
  obs::Tracer::global().clear();
  obs::Tracer::global().setEnabled(true);
  auto engine = std::make_shared<FakeEngine>(/*gated=*/true);

  constexpr std::uint64_t kOwnerTrace = 0xA11CEu;
  constexpr std::uint64_t kFollowerTrace = 0xB0Bu;
  {
    BrokerOptions opts;
    opts.threads = 1;  // one worker: the second request must coalesce
    Broker broker(engine, opts);

    std::future<TuneResponse> owner;
    {
      obs::ScopedTraceContext scope(obs::TraceContext{kOwnerTrace, 0u});
      owner = broker.submitTune(tuneReq(640));
    }
    engine->waitEntered();  // owner study is now in flight

    std::future<TuneResponse> follower;
    {
      obs::ScopedTraceContext scope(obs::TraceContext{kFollowerTrace, 0u});
      follower = broker.submitTune(tuneReq(640));
    }
    engine->release();
    EXPECT_EQ(owner.get().status, Status::Ok);
    const auto resp = follower.get();
    EXPECT_EQ(resp.status, Status::Ok);
    EXPECT_EQ(resp.report.coalesced, 1u);
  }
  obs::Tracer::global().setEnabled(false);

  bool ownerCompletion = false;
  bool followerCompletion = false;
  for (const auto& e : obs::Tracer::global().snapshot()) {
    if (std::string(e.name) != "serve/complete_tune") continue;
    if (e.traceId == kOwnerTrace) ownerCompletion = true;
    if (e.traceId == kFollowerTrace) followerCompletion = true;
    // No completion may leak onto an unrelated trace.
    EXPECT_TRUE(e.traceId == kOwnerTrace || e.traceId == kFollowerTrace);
  }
  EXPECT_TRUE(ownerCompletion);
  EXPECT_TRUE(followerCompletion);
  obs::Tracer::global().clear();
}

// --- deadlines, backpressure, shutdown ---

TEST(Broker, ExpiredQueuedRequestIsRejected) {
  auto engine = std::make_shared<FakeEngine>(/*gated=*/true);
  BrokerOptions opts;
  opts.threads = 1;
  opts.queueCapacity = 8;
  Broker broker(engine, opts);

  auto blocker = broker.submitTune(tuneReq(1));
  engine->waitEntered();  // the lone worker is now stuck in the study
  auto doomed = broker.submitTune(tuneReq(2, 0.5, /*deadlineMs=*/5.0));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  engine->release();

  EXPECT_EQ(blocker.get().status, Status::Ok);
  EXPECT_EQ(doomed.get().status, Status::DeadlineExceeded);
  const ServeMetrics m = broker.metrics();
  EXPECT_EQ(m.rejectedDeadline, 1u);
  EXPECT_EQ(m.completed, 1u);
}

TEST(Broker, UnrepresentableDeadlineIsNoDeadline) {
  // A wire deadline far past what the clock can hold (or not a number,
  // as an EPB1 f64 may carry) must not overflow the time-point
  // conversion; it waits like a request without one.
  auto engine = std::make_shared<FakeEngine>();
  BrokerOptions opts;
  opts.threads = 1;
  Broker broker(engine, opts);
  int n = 100;
  for (const double deadlineMs :
       {1e300, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(), 1e16}) {
    EXPECT_EQ(broker.tune(tuneReq(++n, 0.5, deadlineMs)).status, Status::Ok)
        << deadlineMs;
  }
}

TEST(Broker, FullQueueRejectsWithBackpressure) {
  auto engine = std::make_shared<FakeEngine>(/*gated=*/true);
  BrokerOptions opts;
  opts.threads = 1;
  opts.queueCapacity = 1;
  Broker broker(engine, opts);

  auto running = broker.submitTune(tuneReq(1));
  engine->waitEntered();  // worker busy, queue empty again
  auto queued = broker.submitTune(tuneReq(2));
  auto overflow = broker.submitTune(tuneReq(3));

  EXPECT_EQ(overflow.get().status, Status::QueueFull);
  engine->release();
  EXPECT_EQ(running.get().status, Status::Ok);
  EXPECT_EQ(queued.get().status, Status::Ok);
  const ServeMetrics m = broker.metrics();
  EXPECT_EQ(m.rejectedQueueFull, 1u);
  EXPECT_EQ(m.accepted, 2u);
}

TEST(Broker, ShutdownDrainsInFlightAndQueuedWork) {
  auto engine = std::make_shared<FakeEngine>(/*gated=*/true);
  BrokerOptions opts;
  opts.threads = 1;
  opts.queueCapacity = 8;
  Broker broker(engine, opts);

  auto inflight = broker.submitTune(tuneReq(1));
  engine->waitEntered();
  auto queued = broker.submitTune(tuneReq(2));

  std::thread closer([&] { broker.shutdown(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  engine->release();
  closer.join();

  // Drained: both futures are ready and Ok.
  EXPECT_EQ(inflight.get().status, Status::Ok);
  EXPECT_EQ(queued.get().status, Status::Ok);

  // Post-shutdown submissions are rejected.
  EXPECT_EQ(broker.tune(tuneReq(3)).status, Status::ShuttingDown);
  EXPECT_EQ(broker.metrics().rejectedShutdown, 1u);
}

TEST(Broker, InvalidRequestsFailFast) {
  auto engine = std::make_shared<FakeEngine>();
  Broker broker(engine, BrokerOptions{});
  EXPECT_EQ(broker.tune(tuneReq(0)).status, Status::Error);
  EXPECT_EQ(broker.tune(tuneReq(10, -0.5)).status, Status::Error);
  StudyRequest bad;
  bad.nBegin = 10;
  bad.nEnd = 5;
  EXPECT_EQ(broker.study(bad).status, Status::Error);
  EXPECT_EQ(broker.metrics().failed, 3u);
  EXPECT_EQ(engine->calls(), 0);
}

// --- study requests ---

TEST(Broker, StudySweepAggregatesAndCaches) {
  auto engine = std::make_shared<FakeEngine>();
  BrokerOptions opts;
  opts.threads = 2;
  Broker broker(engine, opts);

  StudyRequest req;
  req.device = Device::P100;
  req.nBegin = 100;
  req.nEnd = 300;
  req.nStep = 100;

  const StudyResponse cold = broker.study(req);
  ASSERT_EQ(cold.status, Status::Ok);
  EXPECT_EQ(cold.statistics.workloads, 3u);
  EXPECT_EQ(cold.workloadCacheHits, 0u);
  EXPECT_EQ(engine->calls(), 3);

  const StudyResponse warm = broker.study(req);
  ASSERT_EQ(warm.status, Status::Ok);
  EXPECT_EQ(warm.workloadCacheHits, 3u);
  EXPECT_EQ(engine->calls(), 3);  // fully served from cache
  EXPECT_DOUBLE_EQ(warm.statistics.avgGlobalFrontSize,
                   cold.statistics.avgGlobalFrontSize);
}

TEST(Broker, StudyAndTuneShareTheCache) {
  auto engine = std::make_shared<FakeEngine>();
  Broker broker(engine, BrokerOptions{});
  ASSERT_EQ(broker.tune(tuneReq(100)).status, Status::Ok);
  StudyRequest req;
  req.nBegin = 100;
  req.nEnd = 100;
  const StudyResponse resp = broker.study(req);
  ASSERT_EQ(resp.status, Status::Ok);
  EXPECT_EQ(resp.workloadCacheHits, 1u);
  EXPECT_EQ(engine->calls(), 1);
}

// --- metrics consistency under concurrency ---

TEST(Broker, MetricsSnapshotStaysConsistentUnderLoad) {
  auto engine = std::make_shared<FakeEngine>();
  BrokerOptions opts;
  opts.threads = 4;
  opts.queueCapacity = 256;
  opts.cacheCapacity = 4;  // force evictions across 10 distinct keys
  Broker broker(engine, opts);

  constexpr int kSubmitters = 4;
  constexpr int kPerThread = 50;
  std::atomic<bool> stopPolling{false};
  std::thread poller([&] {
    // Concurrent snapshots must never tear (verified by TSan) and never
    // violate the admission identity.
    while (!stopPolling.load()) {
      const ServeMetrics m = broker.metrics();
      EXPECT_LE(m.completed + m.failed + m.rejectedDeadline, m.accepted);
      EXPECT_LE(m.cacheSize, m.cacheCapacity);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  std::vector<std::thread> submitters;
  std::mutex futuresMu;
  std::vector<std::future<TuneResponse>> futures;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto f = broker.submitTune(tuneReq((t * kPerThread + i) % 10 + 1));
        std::lock_guard lk(futuresMu);
        futures.push_back(std::move(f));
      }
    });
  }
  for (auto& th : submitters) th.join();
  for (auto& f : futures) EXPECT_EQ(f.get().status, Status::Ok);
  stopPolling.store(true);
  poller.join();

  const ServeMetrics m = broker.metrics();
  const auto total =
      static_cast<std::uint64_t>(kSubmitters) * kPerThread;
  EXPECT_EQ(m.accepted, total);
  EXPECT_EQ(m.completed + m.failed + m.rejectedDeadline, total);
  EXPECT_EQ(m.failed, 0u);
  EXPECT_EQ(m.latency.total(), m.completed);
  EXPECT_EQ(m.queueDepth, 0u);
  EXPECT_EQ(m.inFlightStudies, 0u);
  EXPECT_GE(m.studiesExecuted, 10u);  // 10 keys, capacity 4: recomputes
  EXPECT_GT(m.cacheEvictions, 0u);
  EXPECT_LE(m.cacheSize, 4u);
}

TEST(Broker, RenderPrometheusExposesRegistryAndCacheState) {
  auto engine = std::make_shared<FakeEngine>();
  BrokerOptions opts;
  opts.threads = 2;
  Broker broker(engine, opts);

  EXPECT_EQ(broker.tune(tuneReq(1000)).status, Status::Ok);
  EXPECT_EQ(broker.tune(tuneReq(1000)).status, Status::Ok);  // cache hit

  const std::string text = broker.renderPrometheus();
  EXPECT_NE(text.find("# TYPE ep_serve_accepted_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("ep_serve_accepted_total 2\n"), std::string::npos);
  EXPECT_NE(text.find("ep_serve_completed_total 2\n"), std::string::npos);
  EXPECT_NE(text.find("ep_serve_studies_executed_total 1\n"),
            std::string::npos);
  // Cache stats are delta-synced into the registry at render time.
  EXPECT_NE(text.find("ep_serve_cache_hits_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("ep_serve_cache_misses_total 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("ep_serve_cache_size 1\n"), std::string::npos);
  EXPECT_NE(text.find("ep_serve_queue_depth 0\n"), std::string::npos);
  // Histogram is exposed in full Prometheus shape.
  EXPECT_NE(text.find("# TYPE ep_serve_request_latency_ms histogram\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("ep_serve_request_latency_ms_bucket{le=\"+Inf\"} 2\n"),
      std::string::npos);
  EXPECT_NE(text.find("ep_serve_request_latency_ms_count 2\n"),
            std::string::npos);

  // Rendering twice must not double-count the synced cache deltas, and
  // the wire snapshot must agree with the exposition.
  const std::string again = broker.renderPrometheus();
  EXPECT_NE(again.find("ep_serve_cache_hits_total 1\n"), std::string::npos);
  const ServeMetrics m = broker.metrics();
  EXPECT_EQ(m.cacheHits, 1u);
  EXPECT_EQ(m.cacheMisses, 1u);
  EXPECT_EQ(m.accepted, 2u);
  EXPECT_EQ(m.latency.total(), 2u);
}

// --- the real engine ---

TEST(EpStudyEngine, EndToEndTuneIsDeterministic) {
  auto engine = std::make_shared<EpStudyEngine>();
  BrokerOptions opts;
  opts.threads = 2;
  Broker broker(engine, opts);

  const TuneResponse r1 = broker.tune(tuneReq(1024, 0.11));
  ASSERT_EQ(r1.status, Status::Ok) << r1.error;
  EXPECT_FALSE(r1.recommendation.recommended.label.empty());
  EXPECT_FALSE(r1.recommendation.globalFront.empty());
  EXPECT_GE(r1.recommendation.energySavings, 0.0);
  EXPECT_LE(r1.recommendation.performanceDegradation, 0.11 + 1e-12);

  const TuneResponse r2 = broker.tune(tuneReq(1024, 0.11));
  ASSERT_EQ(r2.status, Status::Ok);
  EXPECT_TRUE(r2.cacheHit);
  EXPECT_EQ(r2.recommendation.recommended.label,
            r1.recommendation.recommended.label);

  // A fresh broker + engine with the same seed reproduces the answer.
  auto engineB = std::make_shared<EpStudyEngine>();
  Broker brokerB(engineB, opts);
  const TuneResponse r3 = brokerB.tune(tuneReq(1024, 0.11));
  ASSERT_EQ(r3.status, Status::Ok);
  EXPECT_EQ(r3.recommendation.recommended.label,
            r1.recommendation.recommended.label);
}

TEST(EpStudyEngine, FrontRecommendationMatchesFullPointSet) {
  // The broker recommends over the cached global front; that must be
  // equivalent to recommending over the full measured point set.
  const EpStudyEngine engine;
  const core::WorkloadResult r = engine.evaluate(Device::K40c, 1024);
  for (double budget : {0.0, 0.05, 0.11, 0.5}) {
    const core::BiObjectiveTuner tuner(budget);
    const auto fromPoints =
        tuner.recommend(apps::GpuMatMulApp::toPoints(r.data));
    const auto fromFront = tuner.recommend(r.globalFront);
    EXPECT_EQ(fromPoints.recommended.configId,
              fromFront.recommended.configId)
        << "budget " << budget;
    EXPECT_DOUBLE_EQ(fromPoints.energySavings, fromFront.energySavings);
  }
}

void expectSamePoint(const pareto::BiPoint& got, const pareto::BiPoint& want) {
  EXPECT_EQ(got.configId, want.configId);
  EXPECT_EQ(got.label, want.label);
  EXPECT_EQ(got.time.value(), want.time.value());
  EXPECT_EQ(got.energy.value(), want.energy.value());
}

void expectSameRecommendation(const core::TunerRecommendation& got,
                              const core::TunerRecommendation& want) {
  expectSamePoint(got.recommended, want.recommended);
  expectSamePoint(got.performanceOptimal, want.performanceOptimal);
  expectSamePoint(got.energyOptimal, want.energyOptimal);
  expectSamePoint(got.knee, want.knee);
  EXPECT_EQ(got.energySavings, want.energySavings);
  EXPECT_EQ(got.performanceDegradation, want.performanceDegradation);
  ASSERT_EQ(got.globalFront.size(), want.globalFront.size());
  for (std::size_t i = 0; i < got.globalFront.size(); ++i) {
    expectSamePoint(got.globalFront[i], want.globalFront[i]);
  }
}

// The broker keeps answers, not studies: the result a cold study puts
// in the cache and the stale store is the one onStudyExecuted hands to
// fleet replicas, and it has released its per-configuration data,
// down to its capacity.  Every answer and ledger, from the cache and
// from the stale store, still equals one computed from a fresh
// evaluate().
TEST(Broker, CachedResultsCarryOnlyAnswers) {
  auto engine = std::make_shared<EpStudyEngine>();
  std::mutex mu;
  std::vector<std::shared_ptr<const core::WorkloadResult>> replicas;
  BrokerOptions opts;
  opts.threads = 2;
  opts.onStudyExecuted = [&](Device, int,
                             std::shared_ptr<const core::WorkloadResult> r) {
    std::lock_guard lk(mu);
    replicas.push_back(std::move(r));
  };
  Broker broker(engine, opts);
  const auto expectAnswersOnly = [](const core::WorkloadResult& r) {
    EXPECT_EQ(r.data.capacity(), 0u) << "n " << r.n;
    EXPECT_FALSE(r.globalFront.empty()) << "n " << r.n;
  };
  // The stale store holds the study: it answers a tune on its own.
  const auto expectStaleAnswer = [&](Device device, int n, double budget,
                                     const core::WorkloadResult& fresh) {
    const std::optional<TuneResponse> stale =
        broker.tuneFromStale(tuneReq(n, budget, 0.0, device));
    ASSERT_TRUE(stale.has_value()) << "n " << n;
    ASSERT_EQ(stale->status, Status::Ok) << stale->error;
    EXPECT_TRUE(stale->stale);
    expectSameRecommendation(
        stale->recommendation,
        core::BiObjectiveTuner(budget).recommend(fresh.globalFront));
  };

  for (const auto& [device, n] : {std::pair{Device::P100, 1024},
                                  std::pair{Device::K40c, 2048},
                                  std::pair{Device::P100, 3072}}) {
    const core::WorkloadResult fresh = engine->evaluate(device, n);
    const core::EnergyAttribution attr = core::attributeEnergy(fresh);
    ASSERT_GT(attr.joules, 0.0);
    for (const double budget : {0.05, 0.11}) {
      const TuneResponse resp = broker.tune(tuneReq(n, budget, 0.0, device));
      ASSERT_EQ(resp.status, Status::Ok) << resp.error;
      expectSameRecommendation(
          resp.recommendation,
          core::BiObjectiveTuner(budget).recommend(fresh.globalFront));
      // The first tune paid for the study; the second is a cache hit,
      // answered from the held result.
      const bool cold = budget == 0.05;
      EXPECT_EQ(resp.cacheHit, !cold);
      EXPECT_EQ(resp.report.attributedJoules, cold ? attr.joules : 0.0);
      EXPECT_EQ(resp.report.measurementWindows, cold ? attr.windows : 0u);
      EXPECT_EQ(resp.report.remeasures, cold ? attr.remeasures : 0u);
      EXPECT_EQ(resp.report.skippedConfigs, cold ? attr.skippedConfigs : 0u);
    }
    expectStaleAnswer(device, n, 0.11, fresh);
  }

  // A sweep over three cold sizes and one the tunes above cached.
  StudyRequest sweep;
  sweep.device = Device::K40c;
  sweep.nBegin = 1536;
  sweep.nEnd = 2304;
  sweep.nStep = 256;
  const StudyResponse study = broker.study(sweep);
  ASSERT_EQ(study.status, Status::Ok) << study.error;
  std::vector<core::WorkloadResult> fresh;
  RequestReport want;
  for (const int n : sweep.sizes()) {
    fresh.push_back(engine->evaluate(sweep.device, n));
    if (n == 2048) continue;
    const core::EnergyAttribution attr = core::attributeEnergy(fresh.back());
    want.attributedJoules += attr.joules;
    want.measurementWindows += attr.windows;
    want.remeasures += attr.remeasures;
    want.skippedConfigs += attr.skippedConfigs;
  }
  const core::FrontStatistics stats = core::GpuEpStudy::summarize(fresh);
  EXPECT_EQ(study.statistics.workloads, stats.workloads);
  EXPECT_EQ(study.statistics.avgGlobalFrontSize, stats.avgGlobalFrontSize);
  EXPECT_EQ(study.statistics.maxGlobalFrontSize, stats.maxGlobalFrontSize);
  EXPECT_EQ(study.statistics.avgLocalFrontSize, stats.avgLocalFrontSize);
  EXPECT_EQ(study.statistics.maxLocalFrontSize, stats.maxLocalFrontSize);
  EXPECT_EQ(study.statistics.maxGlobalSavings, stats.maxGlobalSavings);
  EXPECT_EQ(study.statistics.degradationAtMaxGlobalSavings,
            stats.degradationAtMaxGlobalSavings);
  EXPECT_EQ(study.statistics.maxLocalSavings, stats.maxLocalSavings);
  EXPECT_EQ(study.statistics.degradationAtMaxLocalSavings,
            stats.degradationAtMaxLocalSavings);
  EXPECT_EQ(study.workloadCacheHits, 1u);
  EXPECT_EQ(study.report.studiesExecuted, 3u);
  EXPECT_EQ(study.report.attributedJoules, want.attributedJoules);
  EXPECT_EQ(study.report.measurementWindows, want.measurementWindows);
  EXPECT_EQ(study.report.remeasures, want.remeasures);
  EXPECT_EQ(study.report.skippedConfigs, want.skippedConfigs);
  for (const core::WorkloadResult& r : fresh) {
    expectStaleAnswer(sweep.device, r.n, 0.05, r);
  }
  // A second sweep is answered from the cache alone.
  const StudyResponse again = broker.study(sweep);
  ASSERT_EQ(again.status, Status::Ok) << again.error;
  EXPECT_EQ(again.workloadCacheHits, fresh.size());
  EXPECT_EQ(again.statistics.avgGlobalFrontSize, stats.avgGlobalFrontSize);
  EXPECT_EQ(again.statistics.maxGlobalSavings, stats.maxGlobalSavings);
  EXPECT_EQ(again.statistics.maxLocalSavings, stats.maxLocalSavings);

  std::lock_guard lk(mu);
  ASSERT_EQ(replicas.size(), 6u);
  for (const auto& r : replicas) expectAnswersOnly(*r);
}

TEST(EpStudyEngine, TuningHashSeparatesDevicesAndOptions) {
  const EpStudyEngine a;
  EXPECT_NE(a.tuningHash(Device::P100), a.tuningHash(Device::K40c));
  EpStudyEngineOptions o;
  o.seed = 123;
  const EpStudyEngine b(o);
  EXPECT_NE(a.tuningHash(Device::P100), b.tuningHash(Device::P100));
}

TEST(StudyRequestSizes, ExpandsAndValidates) {
  StudyRequest r;
  r.nBegin = 100;
  r.nEnd = 500;
  r.nStep = 200;
  EXPECT_EQ(r.sizes(), (std::vector<int>{100, 300, 500}));
  r.nStep = 0;
  EXPECT_TRUE(r.sizes().empty());
  r.nStep = 1;
  r.nEnd = 99;
  EXPECT_TRUE(r.sizes().empty());
  r.nBegin = -1;
  EXPECT_TRUE(r.sizes().empty());
}

// --- wire parser hardening ---

TEST(Wire, ParserRejectsOversizedFrames) {
  // A frame one byte over the ceiling must be refused before any
  // parsing work is attempted.
  const std::string line =
      "{\"a\":\"" + std::string(wire::kMaxFrameBytes, 'x') + "\"}";
  std::string error;
  EXPECT_FALSE(wire::parseObject(line, &error).has_value());
  EXPECT_EQ(error, "frame too large");
}

TEST(Wire, ParserRejectsDuplicateKeys) {
  std::string error;
  EXPECT_FALSE(
      wire::parseObject(R"({"n":1,"n":2})", &error).has_value());
  EXPECT_EQ(error, "duplicate key");
}

TEST(Wire, ParserRejectsUnterminatedStrings) {
  std::string error;
  EXPECT_FALSE(wire::parseObject(R"({"op":"tun)", &error).has_value());
  EXPECT_EQ(error, "unterminated string");
  // Trailing backslash: the escape itself runs off the end.
  EXPECT_FALSE(wire::parseObject("{\"op\":\"a\\", &error).has_value());
  EXPECT_EQ(error, "unterminated string");
}

TEST(Wire, ParserRejectsBadEscapesAndNesting) {
  std::string error;
  EXPECT_FALSE(wire::parseObject(R"({"op":"\x"})", &error).has_value());
  EXPECT_EQ(error, "bad string escape");
  EXPECT_FALSE(wire::parseObject(R"({"op":"\u12"})", &error).has_value());
  EXPECT_EQ(error, "bad string escape");
  // Exactly four hex digits: no 0x prefix, sign or leading blanks.
  for (const char* escape :
       {R"(\u0x41)", R"(\u+041)", R"(\u  41)", R"(\u-041)", "\\u\t041"}) {
    const std::string line = std::string(R"({"op":")") + escape + "\"}";
    EXPECT_FALSE(wire::parseObject(line, &error).has_value()) << line;
    EXPECT_EQ(error, "bad string escape") << line;
  }
  const auto upper = wire::parseObject(R"({"op":"\u004A\u004a"})", &error);
  ASSERT_TRUE(upper) << error;
  EXPECT_EQ(wire::getString(*upper, "op"), "JJ");
  // The protocol is flat: nested containers are rejected, not parsed.
  EXPECT_FALSE(wire::parseObject(R"({"a":{"b":1}})", &error).has_value());
  EXPECT_FALSE(wire::parseObject(R"({"a":[1,2]})", &error).has_value());
}

TEST(Wire, ParserTakesOnlyJsonNumbers) {
  // strtod alone would read each of these (0x1p4 as 16, "+4" as 4,
  // "nan" and "inf" as themselves); JSON has none of them.
  for (const char* value : {"nan", "NaN", "-nan", "inf", "-inf", "Infinity",
                            "0x1p4", "0x10", "+4", "01", "-01", "1.", ".5",
                            "-", "1e", "1e+", "-.5"}) {
    std::string error;
    const std::string line = std::string(R"({"op":"tune","n":)") + value + "}";
    EXPECT_FALSE(wire::parseObject(line, &error).has_value()) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
  // The JSON grammar itself parses as strtod reads it.
  for (const char* value : {"0", "-0", "16", "-16", "0.5", "-0.25", "1e3",
                            "1E+3", "2.5e-1", "1e-05", "0e0", "10240"}) {
    std::string error;
    const auto obj =
        wire::parseObject(std::string(R"({"x":)") + value + "}", &error);
    ASSERT_TRUE(obj) << value << ": " << error;
    EXPECT_EQ(wire::getNumber(*obj, "x"), std::strtod(value, nullptr))
        << value;
  }
}

// Every JSON number on the wire must read exactly as strtod reads it,
// whichever path the parser takes.  Seeded draws cover integers and
// decimals from 1 to 20 digits, leading and trailing zeros, exponents
// far past the exact powers of ten, and both signs.
TEST(Wire, NumbersParseAsStrtodReadsThem) {
  std::vector<std::string> numbers = {
      "0.1", "0.3", "-0.0", "0.0", "0e5", "1e22", "1e23", "1e-22", "1e-23",
      "123456789012345", "1234567890123456", "9007199254740993",
      "0.000000000000000000001", "4.9e-324", "2.2250738585072011e-308",
      "1.7976931348623157e308", "1e400", "-1e-400", "10240", "0.11"};
  std::uint64_t state = 20261019;
  const auto digitsOf = [&state](int count, bool leadingNonZero) {
    std::string out;
    for (int i = 0; i < count; ++i) {
      const std::uint64_t bits = splitmix64(state++);
      out += static_cast<char>(
          '0' + (i == 0 && leadingNonZero ? 1 + bits % 9 : bits % 10));
    }
    return out;
  };
  while (numbers.size() < 400000) {
    const std::uint64_t bits = splitmix64(state++);
    std::string num = (bits & 1) != 0 ? "-" : "";
    num += (bits >> 1) % 5 == 0
               ? "0"
               : digitsOf(1 + static_cast<int>((bits >> 4) % 20), true);
    if ((bits >> 9) % 2 == 0) {
      num += '.' + digitsOf(1 + static_cast<int>((bits >> 10) % 20), false);
    }
    if ((bits >> 15) % 5 < 2) {
      num += (bits >> 18) % 2 == 0 ? 'e' : 'E';
      num += std::string("+-").substr((bits >> 19) % 3, 1);
      num += std::to_string((bits >> 21) % 400);
    }
    numbers.push_back(std::move(num));
  }
  std::size_t mismatches = 0;
  for (const std::string& num : numbers) {
    std::string error;
    const auto obj = wire::parseObject("{\"x\":" + num + "}", &error);
    const double want = std::strtod(num.c_str(), nullptr);
    const auto got = obj ? wire::getNumber(*obj, "x") : std::nullopt;
    if ((!got || std::bit_cast<std::uint64_t>(*got) !=
                     std::bit_cast<std::uint64_t>(want)) &&
        ++mismatches <= 5) {
      ADD_FAILURE() << num << ": parsed "
                    << (got ? std::to_string(*got) : "nothing (" + error + ")")
                    << ", strtod " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << numbers.size() << " numbers";
}

TEST(Wire, OutOfRangeNumbersAreBadRequestsNamingTheField) {
  // Each used to reach a float-to-int cast that is undefined for it.
  const std::pair<const char*, const char*> cases[] = {
      {R"({"op":"tune","n":1e300})", "\"n\" out of range"},
      {R"({"op":"tune","n":-1e300})", "\"n\" out of range"},
      {R"({"op":"tune","n":1e400})", "\"n\" out of range"},
      {R"({"op":"tune","n":2147483648})", "\"n\" out of range"},
      {R"({"op":"tune","n":-2147483649})", "\"n\" out of range"},
      {R"({"op":"study","nBegin":1e10,"nEnd":1,"nStep":1})",
       "\"nBegin\" out of range"},
      {R"({"op":"study","nBegin":1,"nEnd":-1e10,"nStep":1})",
       "\"nEnd\" out of range"},
      {R"({"op":"study","nBegin":1,"nEnd":2,"nStep":1e10})",
       "\"nStep\" out of range"},
      {R"({"op":"events","since":1e30})", "\"since\" out of range"},
      {R"({"op":"profile","topN":1e30})", "profile \"topN\" out of range"},
      {R"({"op":"profile","periodUs":1e30})",
       "profile \"periodUs\" out of range"},
  };
  for (const auto& [line, want] : cases) {
    std::string error;
    EXPECT_FALSE(wire::decodeRequest(line, &error).has_value()) << line;
    EXPECT_EQ(error, want) << line;
    // The daemon answers a decode failure with encodeError(error).
    const auto answer = wire::parseObject(wire::encodeError(error), nullptr);
    ASSERT_TRUE(answer) << line;
    EXPECT_EQ(wire::getString(*answer, "status"), "bad_request") << line;
    EXPECT_EQ(wire::getString(*answer, "error"), want) << line;
  }
}

TEST(Wire, InRangeNumbersStillTruncateTowardZero) {
  std::string error;
  const std::pair<const char*, int> tunes[] = {
      {R"({"op":"tune","n":10240.9})", 10240},
      {R"({"op":"tune","n":-5.5})", -5},
      {R"({"op":"tune","n":2147483647.5})", 2147483647},
      {R"({"op":"tune","n":-2147483648.9})", -2147483647 - 1},
  };
  for (const auto& [line, n] : tunes) {
    const auto req = wire::decodeRequest(line, &error);
    ASSERT_TRUE(req) << line << ": " << error;
    EXPECT_EQ(req->tune.n, n) << line;
  }
  const auto study = wire::decodeRequest(
      R"({"op":"study","nBegin":256.7,"nEnd":1024.2,"nStep":64.9})", &error);
  ASSERT_TRUE(study) << error;
  EXPECT_EQ(study->study.nBegin, 256);
  EXPECT_EQ(study->study.nEnd, 1024);
  EXPECT_EQ(study->study.nStep, 64);
  const auto events =
      wire::decodeRequest(R"({"op":"events","since":7.9})", &error);
  ASSERT_TRUE(events) << error;
  EXPECT_EQ(events->eventsSince, 7u);
  const auto profile = wire::decodeRequest(
      R"({"op":"profile","topN":3.7,"periodUs":250.5})", &error);
  ASSERT_TRUE(profile) << error;
  EXPECT_EQ(profile->profileTopN, 3u);
  EXPECT_EQ(profile->profilePeriodUs, 250u);
}

TEST(Wire, ResponsesCarryStalenessOnTheWire) {
  TuneResponse tr;
  tr.status = Status::Ok;
  tr.stale = true;
  EXPECT_NE(wire::encodeTuneResponse(tr).find("\"stale\":true"),
            std::string::npos);
  StudyResponse sr;
  sr.status = Status::Ok;
  sr.staleWorkloads = 2;
  EXPECT_NE(wire::encodeStudyResponse(sr).find("\"staleWorkloads\":2"),
            std::string::npos);
}

TEST(Wire, DecodesTraceIdReportAndEventsOp) {
  std::string error;
  const auto tune = wire::decodeRequest(
      R"({"op":"tune","device":"p100","n":256,"maxDegradation":0.1,)"
      R"("trace_id":"deadbeef","report":true})",
      &error);
  ASSERT_TRUE(tune) << error;
  EXPECT_EQ(tune->traceId, "deadbeef");
  EXPECT_TRUE(tune->report);

  const auto plain = wire::decodeRequest(
      R"({"op":"tune","device":"p100","n":256,"maxDegradation":0.1})",
      &error);
  ASSERT_TRUE(plain) << error;
  EXPECT_TRUE(plain->traceId.empty());
  EXPECT_FALSE(plain->report);

  const auto events =
      wire::decodeRequest(R"({"op":"events","since":3})", &error);
  ASSERT_TRUE(events) << error;
  EXPECT_EQ(events->op, wire::WireRequest::Op::Events);
  EXPECT_EQ(events->eventsSince, 3u);
  const auto all = wire::decodeRequest(R"({"op":"events"})", &error);
  ASSERT_TRUE(all) << error;
  EXPECT_EQ(all->eventsSince, 0u);
  EXPECT_FALSE(
      wire::decodeRequest(R"({"op":"events","since":-1})", &error));
}

TEST(Wire, TuneResponseEchoesTraceIdAndLedger) {
  TuneResponse tr;
  tr.status = Status::Ok;
  tr.report.attributedJoules = 3.25;
  tr.report.measurementWindows = 5;
  tr.report.studiesExecuted = 1;
  const std::string out = wire::encodeTuneResponse(tr, "deadbeef", true);
  std::string error;
  ASSERT_TRUE(wire::parseObject(out, &error)) << error;
  EXPECT_NE(out.find("\"trace_id\":\"deadbeef\""), std::string::npos);
  EXPECT_NE(out.find("\"attributedJoules\":3.25"), std::string::npos);
  EXPECT_NE(out.find("\"measurementWindows\":5"), std::string::npos);
  EXPECT_NE(out.find("\"studiesExecuted\":1"), std::string::npos);
  // Off by default: no trace echo, no ledger.
  const std::string bare = wire::encodeTuneResponse(tr);
  EXPECT_EQ(bare.find("trace_id"), std::string::npos);
  EXPECT_EQ(bare.find("attributedJoules"), std::string::npos);
}

TEST(Wire, EncodeEventsCarriesCountsAndBody) {
  const std::string out =
      wire::encodeEvents(2, 10, 1, "{\"seq\":1}\n{\"seq\":2}\n");
  std::string error;
  const auto obj = wire::parseObject(out, &error);
  ASSERT_TRUE(obj) << error;
  EXPECT_EQ(obj->at("status").string, "ok");
  EXPECT_EQ(obj->at("alerts").number, 2.0);
  EXPECT_EQ(obj->at("recorded").number, 10.0);
  EXPECT_EQ(obj->at("dropped").number, 1.0);
  // The body round-trips through the frame escaping: each line is
  // itself a parseable flat object.
  const std::string body = obj->at("body").string;
  EXPECT_EQ(body, "{\"seq\":1}\n{\"seq\":2}\n");
  const auto line = wire::parseObject("{\"seq\":1}", &error);
  ASSERT_TRUE(line);
}

TEST(Wire, DecodesMetricsFormatAndScope) {
  std::string error;
  const auto om = wire::decodeRequest(
      R"({"op":"metrics","format":"openmetrics"})", &error);
  ASSERT_TRUE(om) << error;
  EXPECT_EQ(om->metricsFormat, wire::MetricsFormat::OpenMetrics);
  EXPECT_FALSE(om->clusterScope);

  const auto cluster = wire::decodeRequest(
      R"({"op":"metrics","scope":"cluster","format":"openmetrics"})", &error);
  ASSERT_TRUE(cluster) << error;
  EXPECT_TRUE(cluster->clusterScope);
  EXPECT_EQ(cluster->metricsFormat, wire::MetricsFormat::OpenMetrics);

  // Cluster scope is an exposition: a JSON (default) format upgrades
  // to Prometheus text instead of colliding with {"op":"fleet"}.
  const auto upgraded =
      wire::decodeRequest(R"({"op":"metrics","scope":"cluster"})", &error);
  ASSERT_TRUE(upgraded) << error;
  EXPECT_TRUE(upgraded->clusterScope);
  EXPECT_EQ(upgraded->metricsFormat, wire::MetricsFormat::Prometheus);

  const auto process =
      wire::decodeRequest(R"({"op":"metrics","scope":"process"})", &error);
  ASSERT_TRUE(process) << error;
  EXPECT_FALSE(process->clusterScope);
  EXPECT_EQ(process->metricsFormat, wire::MetricsFormat::Json);

  EXPECT_FALSE(
      wire::decodeRequest(R"({"op":"metrics","format":"xml"})", &error));
  EXPECT_FALSE(
      wire::decodeRequest(R"({"op":"metrics","scope":"galaxy"})", &error));
}

TEST(Wire, DecodesTsdbOpWithValidation) {
  std::string error;
  const auto full = wire::decodeRequest(
      R"({"op":"tsdb","series":"ep_serve_request_latency_ms",)"
      R"("agg":"quantile","q":0.5,"windowMs":30000})",
      &error);
  ASSERT_TRUE(full) << error;
  EXPECT_EQ(full->op, wire::WireRequest::Op::Tsdb);
  EXPECT_EQ(full->tsdbSeries, "ep_serve_request_latency_ms");
  EXPECT_EQ(full->tsdbAgg, "quantile");
  EXPECT_DOUBLE_EQ(full->tsdbQ, 0.5);
  EXPECT_DOUBLE_EQ(full->tsdbWindowMs, 30000.0);

  const auto defaults = wire::decodeRequest(
      R"({"op":"tsdb","series":"ep_serve_completed_total"})", &error);
  ASSERT_TRUE(defaults) << error;
  EXPECT_EQ(defaults->tsdbAgg, "all");
  EXPECT_DOUBLE_EQ(defaults->tsdbQ, 0.99);
  EXPECT_DOUBLE_EQ(defaults->tsdbWindowMs, 60000.0);

  EXPECT_FALSE(wire::decodeRequest(R"({"op":"tsdb"})", &error));
  EXPECT_FALSE(wire::decodeRequest(R"({"op":"tsdb","series":""})", &error));
  EXPECT_FALSE(wire::decodeRequest(
      R"({"op":"tsdb","series":"x","agg":"median"})", &error));
  EXPECT_FALSE(wire::decodeRequest(
      R"({"op":"tsdb","series":"x","agg":"quantile","q":1.5})", &error));
  EXPECT_FALSE(wire::decodeRequest(
      R"({"op":"tsdb","series":"x","windowMs":0})", &error));
  EXPECT_FALSE(wire::decodeRequest(
      R"({"op":"tsdb","series":"x","windowMs":-5})", &error));
}

TEST(Wire, DecodesSloOp) {
  std::string error;
  const auto slo = wire::decodeRequest(R"({"op":"slo"})", &error);
  ASSERT_TRUE(slo) << error;
  EXPECT_EQ(slo->op, wire::WireRequest::Op::Slo);
}

TEST(Wire, EncodeTsdbResponseAnswersAggregations) {
  ep::obs::TimeSeriesStore store;
  ep::obs::Registry r;
  ep::obs::Counter& c = r.counter("wt_total", "h");
  // Synthetic seconds 1..5, +3 per scrape.
  for (int t = 1; t <= 5; ++t) {
    c.inc(3);
    store.ingest(r.snapshot(), static_cast<std::int64_t>(t) * 1000000000);
  }
  wire::WireRequest req;
  req.op = wire::WireRequest::Op::Tsdb;
  req.tsdbSeries = "wt_total";
  req.tsdbAgg = "all";
  req.tsdbWindowMs = 10000.0;  // covers every sample
  std::string error;
  const auto all = wire::parseObject(
      wire::encodeTsdbResponse(store, req, 5 * 1000000000LL), &error);
  ASSERT_TRUE(all) << error;
  EXPECT_EQ(all->at("status").string, "ok");
  EXPECT_EQ(all->at("samples").number, 5.0);
  EXPECT_EQ(all->at("min").number, 3.0);
  EXPECT_EQ(all->at("max").number, 15.0);
  EXPECT_EQ(all->at("last").number, 15.0);
  EXPECT_NEAR(all->at("rate").number, 3.0, 1e-9);

  req.tsdbAgg = "rate";
  const auto rate = wire::parseObject(
      wire::encodeTsdbResponse(store, req, 5 * 1000000000LL), &error);
  ASSERT_TRUE(rate) << error;
  EXPECT_NEAR(rate->at("value").number, 3.0, 1e-9);

  req.tsdbAgg = "raw";
  const auto raw = wire::parseObject(
      wire::encodeTsdbResponse(store, req, 5 * 1000000000LL), &error);
  ASSERT_TRUE(raw) << error;
  EXPECT_EQ(raw->at("body").string,
            "1000000000 3\n2000000000 6\n3000000000 9\n4000000000 12\n"
            "5000000000 15\n");

  // Quantile over an unknown family: defined=false, no NaN in the JSON.
  req.tsdbAgg = "quantile";
  req.tsdbSeries = "nope_ms";
  const auto q = wire::parseObject(
      wire::encodeTsdbResponse(store, req, 5 * 1000000000LL), &error);
  ASSERT_TRUE(q) << error;
  EXPECT_FALSE(q->at("defined").boolean);
  EXPECT_FALSE(q->at("unbounded").boolean);
}

TEST(Wire, EncodeSloStatusUsesFlatKeys) {
  ep::obs::SloEngine::SloStatus s;
  s.name = "p99";
  s.kind = ep::obs::SloSpec::Kind::LatencyQuantile;
  s.burning = true;
  s.worstBurn = 7.25;
  s.raisedCount = 2;
  ep::obs::SloEngine::WindowBurn wb;
  wb.longMs = 3600000;
  wb.shortMs = 300000;
  wb.threshold = 14.4;
  wb.longBurn = 7.25;
  wb.shortBurn = 6.5;
  s.windows.push_back(wb);
  std::string error;
  const auto obj = wire::parseObject(wire::encodeSloStatus({s}), &error);
  ASSERT_TRUE(obj) << error;
  EXPECT_EQ(obj->at("status").string, "ok");
  EXPECT_EQ(obj->at("slos").number, 1.0);
  EXPECT_EQ(obj->at("burning").number, 1.0);
  EXPECT_EQ(obj->at("slo.p99.kind").string, "latency");
  EXPECT_TRUE(obj->at("slo.p99.burning").boolean);
  EXPECT_EQ(obj->at("slo.p99.worstBurn").number, 7.25);
  EXPECT_EQ(obj->at("slo.p99.raised").number, 2.0);
  EXPECT_EQ(obj->at("slo.p99.w0.threshold").number, 14.4);
  EXPECT_EQ(obj->at("slo.p99.w0.longBurn").number, 7.25);
  EXPECT_EQ(obj->at("slo.p99.w0.shortBurn").number, 6.5);
}

// --- byte-exact line-JSON encodings ---
//
// The strings below were recorded from the encoders before ObjectWriter
// wrote keys as string_views and numbers through std::to_chars; the
// responses are fixed values, so any byte the writer changes fails here.

// Fixed responses for the byte-exact encoder tests: doubles that take
// every %.12g form (fixed, exponent, rounding at the 12th digit, zero).
pareto::BiPoint wirePoint(const char* label, double t, double e) {
  pareto::BiPoint p;
  p.label = label;
  p.time = Seconds{t};
  p.energy = Joules{e};
  return p;
}

TuneResponse wireTuneResponse() {
  TuneResponse r;
  auto& rec = r.recommendation;
  rec.recommended = wirePoint("BS=24 G=2 R=4", 0.123456789012345, 987.654321);
  rec.performanceOptimal = wirePoint("BS=32 G=1 R=8", 0.1, 1234.5);
  rec.energyOptimal = wirePoint("BS=8 G=4 R=2", 2.5e-7, 1e21);
  rec.knee = wirePoint("BS=16 G=8 R=1", 1.0 / 3.0, 0.0);
  rec.globalFront = {rec.performanceOptimal, rec.knee, rec.energyOptimal};
  rec.energySavings = 0.10999999999999999;
  rec.performanceDegradation = -0.0;
  r.coalesced = true;
  r.report.attributedJoules = 12345.678901234567;
  r.report.measurementWindows = 640;
  r.report.remeasures = 3;
  r.report.studiesExecuted = 1;
  r.report.cacheHits = 2;
  r.report.coalesced = 4;
  r.report.staleServed = 5;
  r.report.skippedConfigs = 18446744073709551615ULL;
  r.latency = Seconds{0.000123456789};
  return r;
}

TuneResponse wireErrorResponse() {
  TuneResponse r;
  r.status = Status::Error;
  r.error = "bad \"n\": \\ tab\t cr\r nl\n ctl\x01\x1f end";
  r.stale = true;
  r.latency = Seconds{1.5};
  return r;
}

StudyResponse wireStudyResponse() {
  StudyResponse r;
  r.statistics.workloads = 17;
  r.statistics.avgGlobalFrontSize = 1.0588235294117647;
  r.statistics.maxGlobalFrontSize = 2;
  r.statistics.avgLocalFrontSize = 4.235294117647059;
  r.statistics.maxLocalFrontSize = 5;
  r.statistics.maxGlobalSavings = 0.5;
  r.statistics.degradationAtMaxGlobalSavings = 0.11;
  r.statistics.maxLocalSavings = 1e-300;
  r.statistics.degradationAtMaxLocalSavings = 123456789012345.0;
  r.workloadCacheHits = 3;
  r.staleWorkloads = 1;
  r.report.attributedJoules = 42.0;
  r.report.measurementWindows = 5;
  r.latency = Seconds{0.25};
  return r;
}

ServeMetrics wireMetrics() {
  ServeMetrics m;
  m.accepted = 100;
  m.completed = 90;
  m.failed = 1;
  m.rejectedQueueFull = 2;
  m.rejectedDeadline = 3;
  m.rejectedShutdown = 4;
  m.rejectedCircuitOpen = 5;
  m.rejectedOverload = 6;
  m.shedDeadline = 7;
  m.coalesced = 8;
  m.studiesExecuted = 9;
  m.breakerOpens = 10;
  m.staleServed = 11;
  m.breakerState[deviceIndex(Device::P100)] = "open";
  m.breakerState[deviceIndex(Device::K40c)] = "half_open";
  m.cacheHits = 12;
  m.cacheMisses = 13;
  m.cacheEvictions = 14;
  m.cacheSize = 15;
  m.cacheCapacity = 64;
  m.queueDepth = 16;
  m.inFlightStudies = 17;
  m.admissionLimit = 18;
  for (double ms : {0.01, 0.07, 0.3, 3.0, 3.0, 40.0, 9000.0}) {
    m.latency.record(ms);
  }
  return m;
}

TEST(WireBytes, TuneResponseWithoutReport) {
  EXPECT_EQ(wire::encodeTuneResponse(wireTuneResponse()),
      R"json({"status":"ok","recommended":"BS=24 G=2 R=4",)json"
      R"json("recommendedTimeS":0.123456789012,)json"
      R"json("recommendedEnergyJ":987.654321,"energySavings":0.11,)json"
      R"json("performanceDegradation":-0,)json"
      R"json("performanceOptimal":"BS=32 G=1 R=8",)json"
      R"json("energyOptimal":"BS=8 G=4 R=2","knee":"BS=16 G=8 R=1",)json"
      R"json("frontSize":3,"cacheHit":false,"coalesced":true,)json"
      R"json("stale":false,"latencyMs":0.123456789})json");
}

TEST(WireBytes, TuneResponseWithTraceIdAndReport) {
  EXPECT_EQ(wire::encodeTuneResponse(wireTuneResponse(), "cafe01", true),
      R"json({"status":"ok","trace_id":"cafe01",)json"
      R"json("recommended":"BS=24 G=2 R=4",)json"
      R"json("recommendedTimeS":0.123456789012,)json"
      R"json("recommendedEnergyJ":987.654321,"energySavings":0.11,)json"
      R"json("performanceDegradation":-0,)json"
      R"json("performanceOptimal":"BS=32 G=1 R=8",)json"
      R"json("energyOptimal":"BS=8 G=4 R=2","knee":"BS=16 G=8 R=1",)json"
      R"json("frontSize":3,"cacheHit":false,"coalesced":true,)json"
      R"json("stale":false,"attributedJoules":12345.6789012,)json"
      R"json("measurementWindows":640,"remeasures":3,"studiesExecuted":1,)json"
      R"json("reportCacheHits":2,"reportCoalesced":4,)json"
      R"json("reportStaleServed":5,"skippedConfigs":18446744073709551615,)json"
      R"json("latencyMs":0.123456789})json");
}

TEST(WireBytes, TuneErrorNeedingEscapes) {
  EXPECT_EQ(wire::encodeTuneResponse(wireErrorResponse(), "t\"1", false),
      R"json({"status":"error","trace_id":"t\"1",)json"
      R"json("error":"bad \"n\": \\ tab\t cr\r nl\n ctl\u0001\u001f end",)json"
      R"json("cacheHit":false,"coalesced":false,"stale":true,)json"
      R"json("latencyMs":1500})json");
}

// Computed keys (SLO names, profile frames) take the same escape path
// as string values; DEL and bytes from 0x80 up are copied as is.
TEST(WireBytes, KeysAreEscapedLikeValues) {
  EXPECT_EQ(wire::ObjectWriter()
                .add("slo.a\"b\\c\n\x01.burning", true)
                .add(std::string("k\t\x7f\xc3\xa9"), "v")
                .str(),
            R"json({"slo.a\"b\\c\n\u0001.burning":true,"k\t)json"
            "\x7f\xc3\xa9" R"json(":"v"})json");
}

TEST(WireBytes, StudyResponse) {
  EXPECT_EQ(wire::encodeStudyResponse(wireStudyResponse()),
      R"json({"status":"ok","workloads":17,)json"
      R"json("avgGlobalFrontSize":1.05882352941,"maxGlobalFrontSize":2,)json"
      R"json("avgLocalFrontSize":4.23529411765,"maxLocalFrontSize":5,)json"
      R"json("maxGlobalSavings":0.5,"degradationAtMaxGlobalSavings":0.11,)json"
      R"json("maxLocalSavings":1e-300,)json"
      R"json("degradationAtMaxLocalSavings":1.23456789012e+14,)json"
      R"json("workloadCacheHits":3,"staleWorkloads":1,"latencyMs":250})json");
  EXPECT_EQ(wire::encodeStudyResponse(wireStudyResponse(), "b0b1", true),
      R"json({"status":"ok","trace_id":"b0b1","workloads":17,)json"
      R"json("avgGlobalFrontSize":1.05882352941,"maxGlobalFrontSize":2,)json"
      R"json("avgLocalFrontSize":4.23529411765,"maxLocalFrontSize":5,)json"
      R"json("maxGlobalSavings":0.5,"degradationAtMaxGlobalSavings":0.11,)json"
      R"json("maxLocalSavings":1e-300,)json"
      R"json("degradationAtMaxLocalSavings":1.23456789012e+14,)json"
      R"json("workloadCacheHits":3,"staleWorkloads":1,)json"
      R"json("attributedJoules":42,"measurementWindows":5,"remeasures":0,)json"
      R"json("studiesExecuted":0,"reportCacheHits":0,"reportCoalesced":0,)json"
      R"json("reportStaleServed":0,"skippedConfigs":0,"latencyMs":250})json");
}

TEST(WireBytes, Metrics) {
  EXPECT_EQ(wire::encodeMetrics(wireMetrics()),
      R"json({"status":"ok","accepted":100,"completed":90,"failed":1,)json"
      R"json("rejectedQueueFull":2,"rejectedDeadline":3,)json"
      R"json("rejectedShutdown":4,"rejectedCircuitOpen":5,)json"
      R"json("rejectedOverload":6,"shedDeadline":7,"coalesced":8,)json"
      R"json("studiesExecuted":9,"breakerOpens":10,"staleServed":11,)json"
      R"json("breakerStateP100":"open","breakerStateK40c":"half_open",)json"
      R"json("cacheHits":12,"cacheMisses":13,"cacheEvictions":14,)json"
      R"json("cacheSize":15,"cacheCapacity":64,"queueDepth":16,)json"
      R"json("inFlightStudies":17,"admissionLimit":18,"latencyCount":7,)json"
      R"json("latencyP50UpperMs":0.5,"latencyP99UpperMs":100})json");
}

// Every JSON double on the wire is written with to_chars; it must print
// exactly what printf("%.12g") prints.  Bit
// patterns from a seeded splitmix64 stream cover every exponent, NaN
// payload and sign; the other draws force subnormals, short decimals
// and ties at the 12th significant digit, where rounding could differ.
TEST(WireBytes, NumbersMatchPrintfPercent12g) {
  std::vector<double> values = {
      0.0, -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      0.1, 1e-5, 1e-4, 9.99999999999949e-5, 123456789012.5, 999999999999.5,
      1e11, 1e12, 1e15, 1e16, 1e21, 5e-324, 2.2250738585072009e-308};
  std::uint64_t state = 20261017;
  for (int i = 0; values.size() < 1'200'000; ++i) {
    const std::uint64_t bits = splitmix64(state++);
    switch (i % 4) {
      case 0:  // any bit pattern
        values.push_back(std::bit_cast<double>(bits));
        break;
      case 1:  // subnormal (exponent field zero), either sign
        values.push_back(
            std::bit_cast<double>(bits & 0x800FFFFFFFFFFFFFULL));
        break;
      case 2: {  // a short decimal: m / 10^k
        const double m = static_cast<double>(bits % 100000000);
        values.push_back(m / std::pow(10.0, static_cast<int>(bits >> 59)));
        break;
      }
      default: {  // a 13-digit value ending in 5, at any decade
        const double m =
            static_cast<double>(bits % 9000000000000ULL + 1000000000000ULL);
        const int e = static_cast<int>((bits >> 54) % 80) - 50;
        values.push_back((m * 10.0 + 5.0) * std::pow(10.0, e));
        break;
      }
    }
  }
  std::size_t mismatches = 0;
  for (const double v : values) {
    char num[40];
    std::snprintf(num, sizeof num, "%.12g", v);
    const std::string want = std::string("{\"v\":") + num + "}";
    const std::string got = wire::ObjectWriter().add("v", v).str();
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << "bits " << std::hex << std::bit_cast<std::uint64_t>(v)
                    << ": to_chars " << got << " vs printf " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " doubles";
}

// --- line-JSON corpus, pinned by a digest ---

// True when a "\u" in the line is followed by four characters that are
// not all hex digits.  The codec once read those with strtol, which also
// takes a 0x prefix, a sign and leading blanks; they are rejected now
// (Wire.ParserRejectsBadEscapesAndNesting), so the corpus leaves them out.
bool hasNonHexUnicodeEscape(const std::string& line) {
  for (std::size_t i = line.find("\\u"); i != std::string::npos;
       i = line.find("\\u", i + 1)) {
    const std::string_view code = std::string_view(line).substr(i + 2, 4);
    if (code.size() == 4 &&
        !std::all_of(code.begin(), code.end(), [](char c) {
          return std::isxdigit(static_cast<unsigned char>(c)) != 0;
        })) {
      return true;
    }
  }
  return false;
}

// Every op and field of the vocabulary, e2ebench-shaped tune lines,
// escapes and duplicate keys; then every truncation of each, and seeded
// byte flips.
std::vector<std::string> wireCorpus() {
  std::vector<std::string> base = {
      R"({"op":"tune","device":"p100","n":10240,"maxDegradation":0.11})",
      R"({"op":"tune","device":"k40c","n":4096,"maxDegradation":0.05,)"
      R"("deadlineMs":250.5,"report":true,"trace_id":"cafe01"})",
      R"({"op":"tune","device":"auto","n":2048,"maxDegradation":0.2})",
      R"({"op":"tune","device":"P100","n":-7,"maxDegradation":-1})",
      R"({"op":"tune","n":1e300})",
      R"({"op":"tune","device":"gpu9","n":1})",
      R"({"op":"study","device":"k40c","nBegin":8192,"nEnd":10240,)"
      R"("nStep":1024,"deadlineMs":5000,"report":false,"trace_id":"b0b1"})",
      R"({"op":"study","device":"auto","nBegin":1,"nEnd":2})",
      R"({"op":"study","nBegin":-2147483649,"nEnd":10,"nStep":0})",
      R"({"op":"metrics"})",
      R"({"op":"metrics","format":"prometheus"})",
      R"({"op":"metrics","format":"openmetrics","scope":"cluster"})",
      R"({"op":"metrics","format":"json","scope":"process"})",
      R"({"op":"metrics","scope":"cluster"})",
      R"({"op":"metrics","format":"xml"})",
      R"({"op":"metrics","scope":"galaxy"})",
      R"({"op":"trace"})",
      R"({"op":"events","since":42})",
      R"({"op":"events","since":-1})",
      R"({"op":"events","since":1e30})",
      R"({"op":"tsdb","series":"ep_serve_completed_total","agg":"rate",)"
      R"("q":0.5,"windowMs":1000})",
      R"({"op":"tsdb","series":"ep_serve_request_latency_ms",)"
      R"("agg":"quantile","q":0.99})",
      R"({"op":"tsdb","series":"x","agg":"median"})",
      R"({"op":"tsdb","series":"","agg":"raw"})",
      R"({"op":"tsdb","series":"x","q":2})",
      R"({"op":"tsdb","series":"x","windowMs":0})",
      R"({"op":"slo"})",
      R"({"op":"fleet"})",
      R"({"op":"fleet","action":"kill","shard":"s1"})",
      R"({"op":"fleet","action":"add"})",
      R"({"op":"fleet","action":"explode","shard":"s2"})",
      R"({"op":"profile"})",
      R"({"op":"profile","action":"snapshot","kind":"energy",)"
      R"("format":"speedscope","topN":5,"periodUs":1000,)"
      R"("cpuSampling":false,"scope":"cluster"})",
      R"({"op":"profile","action":"start","periodUs":99})",
      R"({"op":"profile","kind":"heat"})",
      R"({"op":"profile","topN":-1})",
      R"({"op":"dance"})",
      R"({"device":"p100"})",
      R"({"op":7})",
      R"({})",
      R"( { "op" : "tune" , "n" : 512 , "report" : null } )",
      R"({"op":"tune","n":64,"trace_id":)"
      R"("q\"b\\s\/n\nr\rt\tb\bf\fA\u0041e\u00E9c\u0001"})",
      R"({"op\u0020x":"tune","n":1})",
      R"({"o\u0070":"tune","n":3})",
      R"({"op":"tune","n":1,"n":2})",
      R"({"op":"tune","op":"study"})",
      R"({"op":"tune","n":[1]})",
      R"({"op":"tune","n":{"a":1}})",
      R"({"op":"tune","n":01})",
      R"({"op":"tune","n":0x10})",
      R"({"op":"tune","n":10240.75,"maxDegradation":1.5e-3})",
      R"({"op":"tune","n":123456789012345678,"deadlineMs":1E+2})",
      R"({"op":"tune","n":-0,"maxDegradation":-0.0})",
      R"({"op":"tune"} trailing)",
      R"({"op":"tune",})",
  };
  // e2ebench's tune lines: report on, trace ids "c<conn>-<hex index>".
  constexpr const char* kBudgets[] = {"0.05", "0.11", "0.2"};
  std::uint64_t state = 20261018;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t bits = splitmix64(state++);
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"op\":\"tune\",\"device\":\"%s\",\"n\":%d,"
                  "\"maxDegradation\":%s,\"report\":true,"
                  "\"trace_id\":\"c%d-%x\"}",
                  (bits & 1) != 0 ? "k40c" : "p100",
                  1024 + 64 * static_cast<int>((bits >> 1) % 240),
                  kBudgets[(bits >> 9) % 3], static_cast<int>((bits >> 11) % 4),
                  static_cast<unsigned>((bits >> 13) % 16384));
    base.push_back(line);
  }
  std::vector<std::string> corpus;
  for (const std::string& line : base) {
    corpus.push_back(line);
    for (std::size_t len = 0; len < line.size(); ++len) {
      corpus.push_back(line.substr(0, len));
    }
    for (int flip = 0; flip < 8; ++flip) {
      const std::uint64_t bits = splitmix64(state++);
      std::string mutated = line;
      mutated[bits % mutated.size()] = static_cast<char>(bits >> 56);
      corpus.push_back(std::move(mutated));
    }
  }
  std::erase_if(corpus, hasNonHexUnicodeEscape);
  return corpus;
}

std::string bitsOf(double v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

// A response for a decoded tune or study request whose every field
// follows from the request, so the encoders see its strings and numbers.
TuneResponse corpusTuneResponse(const wire::WireRequest& req) {
  TuneResponse r = wireTuneResponse();
  const int n = req.tune.n;
  r.recommendation.recommended.label =
      "BS=" + std::to_string(n % 33) + " G=" + std::to_string(n % 7);
  r.recommendation.energySavings = req.tune.maxDegradation / 3.0;
  r.recommendation.recommended.time = Seconds{n * 1e-6};
  r.cacheHit = n % 2 == 0;
  r.stale = req.deviceAuto;
  r.report.measurementWindows = static_cast<std::uint64_t>(n) * 5;
  r.latency = Seconds{req.tune.deadlineMs * 1e-3};
  if (n <= 0) {
    r.status = Status::Error;
    r.error = "bad n for " + req.traceId;
  }
  return r;
}

StudyResponse corpusStudyResponse(const wire::WireRequest& req) {
  StudyResponse r = wireStudyResponse();
  r.statistics.avgGlobalFrontSize = req.study.nBegin / 7.0;
  r.statistics.maxLocalFrontSize = static_cast<std::size_t>(req.study.nStep);
  r.workloadCacheHits = static_cast<std::size_t>(req.study.nEnd);
  r.latency = Seconds{req.study.deadlineMs * 1e-3};
  if (req.study.nBegin <= 0) {
    r.status = Status::Error;
    r.error = "bad range for " + req.traceId;
  }
  return r;
}

// What the codec makes of one line: the parsed object, the decoded
// request (or its error), and the re-encoded response.
std::string corpusRecord(const std::string& line) {
  std::string out;
  std::string error;
  if (const auto obj = wire::parseObject(line, &error)) {
    for (const auto& [key, v] : *obj) {
      out += key + '=';
      switch (v.kind) {
        case wire::Value::Kind::Null:
          out += "null";
          break;
        case wire::Value::Kind::Bool:
          out += v.boolean ? "true" : "false";
          break;
        case wire::Value::Kind::Number:
          out += bitsOf(v.number);
          break;
        case wire::Value::Kind::String:
          out += '"' + v.string + '"';
          break;
      }
      out += ';';
    }
  } else {
    out += "parse error: " + error;
  }
  out += '|';
  error.clear();
  const auto req = wire::decodeRequest(line, &error);
  if (!req) return out + "error: " + error + '|' + wire::encodeError(error);
  out += std::to_string(static_cast<int>(req->op)) + ' ' +
         std::to_string(static_cast<int>(req->metricsFormat)) + ' ' +
         std::to_string(req->clusterScope) + ' ' + req->tsdbSeries + ' ' +
         req->tsdbAgg + ' ' + bitsOf(req->tsdbQ) + ' ' +
         bitsOf(req->tsdbWindowMs) + ' ' + std::to_string(req->eventsSince) +
         ' ' + req->traceId + ' ' + std::to_string(req->report) + ' ' +
         std::to_string(req->deviceAuto) + ' ' + req->fleetAction + ' ' +
         req->fleetShard + ' ' + req->profileAction + ' ' + req->profileKind +
         ' ' + req->profileFormat + ' ' + std::to_string(req->profileTopN) +
         ' ' + std::to_string(req->profilePeriodUs) + ' ' +
         std::to_string(req->profileCpuSampling) + ' ' +
         std::to_string(static_cast<int>(req->tune.device)) + ' ' +
         std::to_string(req->tune.n) + ' ' +
         bitsOf(req->tune.maxDegradation) + ' ' + bitsOf(req->tune.deadlineMs) +
         ' ' + std::to_string(static_cast<int>(req->study.device)) + ' ' +
         std::to_string(req->study.nBegin) + ' ' +
         std::to_string(req->study.nEnd) + ' ' +
         std::to_string(req->study.nStep) + ' ' +
         bitsOf(req->study.deadlineMs);
  if (req->op == wire::WireRequest::Op::Tune) {
    out += '|' + wire::encodeTuneResponse(corpusTuneResponse(*req),
                                          req->traceId, req->report);
  } else if (req->op == wire::WireRequest::Op::Study) {
    out += '|' + wire::encodeStudyResponse(corpusStudyResponse(*req),
                                           req->traceId, req->report);
  }
  return out;
}

// Decoding and re-encoding the corpus is pinned by one FNV-1a digest.
// It was recorded by running this body against the codec that built a
// key string per lookup, copied every field it read, appended strings a
// character at a time and grew its output as it wrote; the codec must
// keep answering every line of the corpus the same way.
TEST(WireCorpus, DecodeAndEncodeArePinnedByDigest) {
  const std::vector<std::string> corpus = wireCorpus();
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::size_t decoded = 0;
  for (const std::string& line : corpus) {
    const std::string record = corpusRecord(line) + '\n';
    if (record.find("|error: ") == std::string::npos) ++decoded;
    for (const char c : record) {
      digest = (digest ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
  }
  EXPECT_EQ(corpus.size(), 9307u);
  EXPECT_EQ(decoded, 383u);
  EXPECT_EQ(digest, 0x4b03862053e32f93ULL) << std::hex << digest;
}

// --- EPB1 binary framing corpus (net/frame.hpp + serve/wire_binary) ---

TEST(BinaryFrame, TruncatedLengthPrefixWaitsForMoreBytes) {
  net::FrameDecoder dec(1 << 20);
  std::vector<net::Frame> frames;
  std::string wire(net::kMagic, sizeof net::kMagic);
  ASSERT_TRUE(dec.feed(wire, &frames));
  // A lone continuation byte is an incomplete varint, not an error.
  ASSERT_TRUE(dec.feed(std::string(1, '\x80'), &frames));
  EXPECT_TRUE(frames.empty());
  EXPECT_EQ(dec.mode(), net::FrameDecoder::Mode::Binary);
  // Completing the prefix (0x80 0x02 = 256) just starts a frame wait.
  ASSERT_TRUE(dec.feed(std::string(1, '\x02'), &frames));
  EXPECT_TRUE(frames.empty());
  EXPECT_GT(dec.buffered(), 0u);
}

TEST(BinaryFrame, OversizeDeclaredLengthIsRejectedUpFront) {
  // A hostile length prefix past the 1 MiB ceiling must break the
  // connection before any buffer grows to match it.
  const std::size_t kCeiling = std::size_t{1} << 20;
  net::FrameDecoder dec(kCeiling);
  std::vector<net::Frame> frames;
  std::string wire(net::kMagic, sizeof net::kMagic);
  net::putVarint(wire, kCeiling + 1);
  EXPECT_FALSE(dec.feed(wire, &frames));
  EXPECT_EQ(dec.mode(), net::FrameDecoder::Mode::Broken);
  EXPECT_EQ(dec.error(), "frame too large");
  EXPECT_TRUE(frames.empty());
}

TEST(BinaryFrame, MidFrameCloseLosesOnlyThePartialFrame) {
  // One complete frame followed by a frame cut off mid-body (the
  // connection then closes): the complete frame is delivered, the
  // partial one never is, and the decoder is still healthy.
  net::FrameDecoder dec(1 << 20);
  std::vector<net::Frame> frames;
  std::string wire(net::kMagic, sizeof net::kMagic);
  net::appendFrame(wire, net::kOpTune, "whole");
  std::string partial;
  net::appendFrame(partial, net::kOpTune, std::string(100, 'p'));
  wire.append(partial, 0, partial.size() - 60);
  ASSERT_TRUE(dec.feed(wire, &frames));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].payload, "whole");
  EXPECT_GT(dec.buffered(), 0u);
}

TEST(BinaryFrame, WireModeIsStickyForTheConnection) {
  {
    // A JSON connection that later emits the EPB1 magic stays JSON:
    // the magic is just line bytes, never a renegotiation.
    net::FrameDecoder dec(1 << 20);
    std::vector<net::Frame> frames;
    ASSERT_TRUE(dec.feed("{\"op\":\"metrics\"}\nEPB1junk\n", &frames));
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_FALSE(frames[1].binary);
    EXPECT_EQ(frames[1].payload, "EPB1junk");
  }
  {
    // A binary connection fed a bare JSON line never falls back: the
    // '{' byte reads as a 123-byte length and the "frame" it frames is
    // garbage — a protocol error, not a mode switch.
    net::FrameDecoder dec(1 << 20);
    std::vector<net::Frame> frames;
    std::string wire(net::kMagic, sizeof net::kMagic);
    wire += "{\"op\":\"tune\",\"n\":1024}\n";
    wire += std::string(150, 'x');
    EXPECT_FALSE(dec.feed(wire, &frames));
    EXPECT_EQ(dec.mode(), net::FrameDecoder::Mode::Broken);
    EXPECT_EQ(dec.error(), "unknown frame opcode");
  }
}

TEST(WireBinary, TuneRequestRoundTripsEveryField) {
  wire_binary::BinaryTuneRequest req;
  req.tune.device = Device::K40c;
  req.tune.n = 18432;
  req.tune.maxDegradation = 0.07;
  req.tune.deadlineMs = 250.5;
  req.report = true;
  req.deviceAuto = true;
  req.traceId = "0123456789abcdef";
  std::string err;
  const auto back =
      wire_binary::decodeTuneRequest(wire_binary::encodeTuneRequest(req), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->tune.device, Device::K40c);
  EXPECT_EQ(back->tune.n, 18432);
  EXPECT_DOUBLE_EQ(back->tune.maxDegradation, 0.07);
  EXPECT_DOUBLE_EQ(back->tune.deadlineMs, 250.5);
  EXPECT_TRUE(back->report);
  EXPECT_TRUE(back->deviceAuto);
  EXPECT_EQ(back->traceId, "0123456789abcdef");
}

TEST(WireBinary, MalformedTuneRequestsAreRejected) {
  wire_binary::BinaryTuneRequest req;
  req.tune.n = 1024;
  const std::string good = wire_binary::encodeTuneRequest(req);

  // Every truncation point must fail cleanly, never read out of range.
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    std::string err;
    EXPECT_FALSE(
        wire_binary::decodeTuneRequest(good.substr(0, cut), &err).has_value())
        << "cut at " << cut;
    EXPECT_EQ(err, "truncated tune request");
  }

  std::string badDevice = good;
  badDevice[0] = '\x02';
  std::string err;
  EXPECT_FALSE(wire_binary::decodeTuneRequest(badDevice, &err).has_value());
  EXPECT_EQ(err, "unknown device");

  wire_binary::BinaryTuneRequest huge;
  huge.tune.n = (1 << 30);  // encoder caps negative, decoder caps huge
  std::string wire = wire_binary::encodeTuneRequest(huge);
  // Patch the n varint (offset 2) from 2^30 to 2^30 + 1.
  EXPECT_TRUE(
      wire_binary::decodeTuneRequest(wire, &err).has_value());  // boundary ok
  wire[2] = static_cast<char>(0x81);
  EXPECT_FALSE(wire_binary::decodeTuneRequest(wire, &err).has_value());
  EXPECT_EQ(err, "workload out of range");
}

TEST(WireBinary, TuneResponseRoundTripsRecommendationAndLedger) {
  TuneResponse resp;
  resp.status = Status::Ok;
  resp.cacheHit = true;
  resp.stale = true;
  resp.latency = Seconds{0.0042};
  resp.recommendation.recommended = mk(1.5, 80.0, 7);
  resp.recommendation.performanceOptimal = mk(1.2, 120.0, 1);
  resp.recommendation.energyOptimal = mk(2.0, 60.0, 9);
  resp.recommendation.knee = mk(1.6, 70.0, 8);
  resp.recommendation.energySavings = 0.33;
  resp.recommendation.performanceDegradation = 0.25;
  resp.recommendation.globalFront = {mk(1.0, 9.0, 0), mk(2.0, 8.0, 1)};
  resp.report.attributedJoules = 123.5;
  resp.report.studiesExecuted = 1;
  resp.report.measurementWindows = 5;

  std::string err;
  const auto back = wire_binary::decodeTuneResponse(
      wire_binary::encodeTuneResponse(resp, "cafe", /*withReport=*/true),
      &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->status, Status::Ok);
  EXPECT_TRUE(back->cacheHit);
  EXPECT_FALSE(back->coalesced);
  EXPECT_TRUE(back->stale);
  EXPECT_EQ(back->traceId, "cafe");
  EXPECT_DOUBLE_EQ(back->latencyMs, 4.2);
  EXPECT_EQ(back->recommended, "cfg7");
  EXPECT_DOUBLE_EQ(back->recommendedTimeS, 1.5);
  EXPECT_DOUBLE_EQ(back->recommendedEnergyJ, 80.0);
  EXPECT_DOUBLE_EQ(back->energySavings, 0.33);
  EXPECT_DOUBLE_EQ(back->performanceDegradation, 0.25);
  EXPECT_EQ(back->performanceOptimal, "cfg1");
  EXPECT_EQ(back->energyOptimal, "cfg9");
  EXPECT_EQ(back->knee, "cfg8");
  EXPECT_EQ(back->frontSize, 2u);
  ASSERT_TRUE(back->hasReport);
  EXPECT_DOUBLE_EQ(back->report.attributedJoules, 123.5);
  EXPECT_EQ(back->report.studiesExecuted, 1u);
  EXPECT_EQ(back->report.measurementWindows, 5u);

  // Truncations of the response body fail cleanly too.
  const std::string good =
      wire_binary::encodeTuneResponse(resp, "cafe", /*withReport=*/true);
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, good.size() / 2,
                          good.size() - 1}) {
    EXPECT_FALSE(
        wire_binary::decodeTuneResponse(good.substr(0, cut), &err).has_value())
        << "cut at " << cut;
  }
}

// --- submitTuneBatch: one lock acquisition for a whole epoll round ---

// Collects batch completions; done() callbacks may run on any thread.
struct BatchCollector {
  explicit BatchCollector(std::size_t n) : responses(n), traceIds(n) {}
  std::vector<TuneResponse> responses;
  std::vector<std::uint64_t> traceIds;  // obs context seen inside done()
  std::vector<std::promise<void>> arrived{};
  std::vector<std::future<void>> futures{};

  Broker::TuneBatchItem item(std::size_t i, TuneRequest req,
                             std::uint64_t traceId = 0) {
    arrived.emplace_back();
    futures.push_back(arrived.back().get_future());
    Broker::TuneBatchItem it;
    it.req = req;
    it.ctx.traceId = traceId;
    it.done = [this, i](TuneResponse&& resp) {
      traceIds[i] = obs::currentContext().traceId;
      responses[i] = std::move(resp);
      arrived[i].set_value();
    };
    return it;
  }
  void waitAll() {
    for (auto& f : futures) f.wait();
  }
};

TEST(BrokerBatch, BatchMatchesSequentialSubmitsFieldForField) {
  // The same request mix — two cold keys, one repeat — through a
  // sequential broker and a batched broker must produce identical
  // responses (admission logic is shared verbatim by both paths).
  const std::vector<TuneRequest> mix = {tuneReq(100), tuneReq(200),
                                        tuneReq(100)};

  auto engineSeq = std::make_shared<FakeEngine>();
  Broker sequential(engineSeq, BrokerOptions{});
  std::vector<TuneResponse> seqResponses;
  for (const auto& r : mix) seqResponses.push_back(sequential.tune(r));

  auto engineBatch = std::make_shared<FakeEngine>();
  Broker batched(engineBatch, BrokerOptions{});
  BatchCollector collect(mix.size());
  std::vector<Broker::TuneBatchItem> items;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    items.push_back(collect.item(i, mix[i]));
  }
  batched.submitTuneBatch(std::move(items));
  collect.waitAll();

  EXPECT_EQ(engineBatch->calls(), engineSeq->calls());
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const TuneResponse& a = seqResponses[i];
    const TuneResponse& b = collect.responses[i];
    EXPECT_EQ(a.status, b.status) << "item " << i;
    EXPECT_EQ(a.cacheHit, b.cacheHit) << "item " << i;
    EXPECT_EQ(a.stale, b.stale) << "item " << i;
    EXPECT_EQ(a.recommendation.recommended.configId,
              b.recommendation.recommended.configId)
        << "item " << i;
    EXPECT_EQ(a.recommendation.recommended.label,
              b.recommendation.recommended.label);
    EXPECT_DOUBLE_EQ(a.recommendation.recommended.time.value(),
                     b.recommendation.recommended.time.value());
    EXPECT_DOUBLE_EQ(a.recommendation.recommended.energy.value(),
                     b.recommendation.recommended.energy.value());
    EXPECT_DOUBLE_EQ(a.recommendation.energySavings,
                     b.recommendation.energySavings);
  }
  // Same totals on the metrics surface, minus the latency values.
  const ServeMetrics ms = sequential.metrics();
  const ServeMetrics mb = batched.metrics();
  EXPECT_EQ(ms.completed, mb.completed);
  EXPECT_EQ(ms.cacheHits, mb.cacheHits);
  EXPECT_EQ(ms.studiesExecuted, mb.studiesExecuted);
}

TEST(BrokerBatch, BackpressureAndCoalescingApplyPerBatchMember) {
  auto engine = std::make_shared<FakeEngine>(/*gated=*/true);
  BrokerOptions opts;
  opts.threads = 1;
  opts.queueCapacity = 1;
  Broker broker(engine, opts);

  auto blocker = broker.submitTune(tuneReq(1));
  engine->waitEntered();  // lone worker stuck; queue empty

  // One batch: member 0 coalesces onto the in-flight study, member 1
  // takes the only queue slot, member 2 bounces with backpressure.
  BatchCollector collect(3);
  std::vector<Broker::TuneBatchItem> items;
  items.push_back(collect.item(0, tuneReq(1)));
  items.push_back(collect.item(1, tuneReq(2)));
  items.push_back(collect.item(2, tuneReq(3)));
  broker.submitTuneBatch(std::move(items));

  // Rejection is decided at admission, before any study finishes.
  collect.futures[2].wait();
  EXPECT_EQ(collect.responses[2].status, Status::QueueFull);

  engine->release();
  EXPECT_EQ(blocker.get().status, Status::Ok);
  collect.waitAll();
  EXPECT_EQ(collect.responses[0].status, Status::Ok);
  EXPECT_TRUE(collect.responses[0].coalesced);
  EXPECT_EQ(collect.responses[1].status, Status::Ok);
  EXPECT_FALSE(collect.responses[1].coalesced);

  const ServeMetrics m = broker.metrics();
  EXPECT_EQ(m.coalesced, 1u);
  EXPECT_EQ(m.rejectedQueueFull, 1u);
  EXPECT_EQ(m.completed, 3u);
}

// Each tune is one cache lookup, a hit exactly when its answer is
// flagged cacheHit, and each size of a sweep is one more — however the
// tune was answered: cold, coalesced, repeated, or queued behind a
// batch sibling that filled the cache.
TEST(Broker, CacheCountsOneLookupPerTuneAndPerSweepSize) {
  auto engine = std::make_shared<FakeEngine>(/*gated=*/true);
  BrokerOptions opts;
  opts.threads = 2;
  Broker broker(engine, opts);
  std::vector<TuneResponse> answers;

  auto cold = broker.submitTune(tuneReq(1000));
  engine->waitEntered();
  auto follower = broker.submitTune(tuneReq(1000));
  engine->release();
  answers.push_back(cold.get());
  answers.push_back(follower.get());
  EXPECT_TRUE(answers.back().coalesced);
  answers.push_back(broker.tune(tuneReq(1000)));  // the repeat

  BatchCollector collect(2);
  std::vector<Broker::TuneBatchItem> items;
  items.push_back(collect.item(0, tuneReq(3000)));
  items.push_back(collect.item(1, tuneReq(3000)));
  broker.submitTuneBatch(std::move(items));
  collect.waitAll();
  answers.insert(answers.end(), collect.responses.begin(),
                 collect.responses.end());
  EXPECT_TRUE(answers.back().cacheHit);  // filled by its sibling

  StudyRequest sweep;
  sweep.device = Device::P100;
  sweep.nBegin = 1000;
  sweep.nEnd = 3000;
  sweep.nStep = 1000;
  const StudyResponse swept = broker.study(sweep);
  ASSERT_EQ(swept.status, Status::Ok);
  EXPECT_EQ(swept.workloadCacheHits, 2u);

  std::uint64_t flaggedHits = swept.workloadCacheHits;
  for (const TuneResponse& r : answers) {
    ASSERT_EQ(r.status, Status::Ok);
    flaggedHits += r.cacheHit ? 1 : 0;
  }
  const std::string text = broker.renderPrometheus();
  const auto counter = [&text](const std::string& name) {
    const std::size_t at = text.find("\n" + name + " ");
    EXPECT_NE(at, std::string::npos) << name;
    return std::stoull(text.substr(at + name.size() + 2));
  };
  const std::uint64_t hits = counter("ep_serve_cache_hits_total");
  EXPECT_EQ(hits, flaggedHits);
  EXPECT_EQ(hits + counter("ep_serve_cache_misses_total"),
            answers.size() + sweep.sizes().size());
}

TEST(BrokerBatch, ExpiredBatchMemberIsRejectedAtExecution) {
  auto engine = std::make_shared<FakeEngine>(/*gated=*/true);
  BrokerOptions opts;
  opts.threads = 1;
  opts.queueCapacity = 8;
  Broker broker(engine, opts);

  auto blocker = broker.submitTune(tuneReq(1));
  engine->waitEntered();

  BatchCollector collect(2);
  std::vector<Broker::TuneBatchItem> items;
  items.push_back(collect.item(0, tuneReq(2, 0.5, /*deadlineMs=*/5.0)));
  items.push_back(collect.item(1, tuneReq(3)));  // no deadline
  broker.submitTuneBatch(std::move(items));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  engine->release();

  EXPECT_EQ(blocker.get().status, Status::Ok);
  collect.waitAll();
  EXPECT_EQ(collect.responses[0].status, Status::DeadlineExceeded);
  EXPECT_EQ(collect.responses[1].status, Status::Ok);
  EXPECT_EQ(broker.metrics().rejectedDeadline, 1u);
}

TEST(BrokerBatch, TraceContextsDoNotCrossContaminate) {
  // Every done() must observe ITS item's trace context, even though
  // all queued members of a batch execute inside one pool task.
  auto engine = std::make_shared<FakeEngine>();
  BrokerOptions opts;
  opts.threads = 2;
  Broker broker(engine, opts);
  (void)broker.tune(tuneReq(300));  // warm one key: mix hit + cold paths

  BatchCollector collect(3);
  std::vector<Broker::TuneBatchItem> items;
  items.push_back(collect.item(0, tuneReq(100), /*traceId=*/0xAAA1u));
  items.push_back(collect.item(1, tuneReq(200), /*traceId=*/0xBBB2u));
  items.push_back(collect.item(2, tuneReq(300), /*traceId=*/0xCCC3u));
  broker.submitTuneBatch(std::move(items));
  collect.waitAll();

  EXPECT_EQ(collect.responses[0].status, Status::Ok);
  EXPECT_EQ(collect.responses[1].status, Status::Ok);
  EXPECT_EQ(collect.responses[2].status, Status::Ok);
  EXPECT_TRUE(collect.responses[2].cacheHit);
  EXPECT_EQ(collect.traceIds[0], 0xAAA1u);
  EXPECT_EQ(collect.traceIds[1], 0xBBB2u);
  EXPECT_EQ(collect.traceIds[2], 0xCCC3u);
}

// --- circuit breaker state machine (synthetic time, no sleeping) ---

TEST(CircuitBreaker, DisabledBreakerNeverTrips) {
  CircuitBreaker b;  // failureThreshold = 0: opt-in off
  const Clock::time_point t0{};
  for (int i = 0; i < 10; ++i) b.onFailure(t0);
  EXPECT_EQ(b.state(t0), CircuitBreaker::State::Closed);
  EXPECT_TRUE(b.allow(t0));
  EXPECT_FALSE(b.wouldReject(t0));
  EXPECT_EQ(b.opens(), 0u);
}

TEST(CircuitBreaker, TripsAfterConsecutiveFailures) {
  CircuitBreakerOptions o;
  o.failureThreshold = 3;
  o.openMs = 1000.0;
  CircuitBreaker b(o);
  const Clock::time_point t0{};
  b.onFailure(t0);
  b.onFailure(t0);
  EXPECT_EQ(b.state(t0), CircuitBreaker::State::Closed);
  EXPECT_TRUE(b.allow(t0));
  b.onFailure(t0);
  EXPECT_EQ(b.state(t0), CircuitBreaker::State::Open);
  EXPECT_EQ(b.opens(), 1u);
  EXPECT_FALSE(b.allow(t0));
  EXPECT_TRUE(b.wouldReject(t0 + std::chrono::milliseconds(999)));
}

TEST(CircuitBreaker, SuccessResetsTheConsecutiveCount) {
  CircuitBreakerOptions o;
  o.failureThreshold = 2;
  CircuitBreaker b(o);
  const Clock::time_point t0{};
  b.onFailure(t0);
  b.onSuccess();  // an intervening success: failures are not consecutive
  b.onFailure(t0);
  EXPECT_EQ(b.state(t0), CircuitBreaker::State::Closed);
  b.onFailure(t0);
  EXPECT_EQ(b.state(t0), CircuitBreaker::State::Open);
}

TEST(CircuitBreaker, HalfOpenProbeSuccessCloses) {
  CircuitBreakerOptions o;
  o.failureThreshold = 1;
  o.openMs = 1000.0;
  o.halfOpenProbes = 1;
  CircuitBreaker b(o);
  const Clock::time_point t0{};
  b.onFailure(t0);
  const auto t1 = t0 + std::chrono::milliseconds(1001);
  EXPECT_EQ(b.state(t1), CircuitBreaker::State::HalfOpen);
  EXPECT_TRUE(b.allow(t1));   // claims the single probe slot
  EXPECT_FALSE(b.allow(t1));  // probe budget exhausted until it reports
  b.onSuccess();
  EXPECT_EQ(b.state(t1), CircuitBreaker::State::Closed);
  EXPECT_TRUE(b.allow(t1));
  EXPECT_EQ(b.opens(), 1u);
}

TEST(CircuitBreaker, HalfOpenProbeFailureReopens) {
  CircuitBreakerOptions o;
  o.failureThreshold = 1;
  o.openMs = 1000.0;
  CircuitBreaker b(o);
  const Clock::time_point t0{};
  b.onFailure(t0);
  const auto t1 = t0 + std::chrono::milliseconds(1001);
  ASSERT_TRUE(b.allow(t1));
  b.onFailure(t1);  // the probe failed: a fresh open window starts at t1
  EXPECT_EQ(b.opens(), 2u);
  EXPECT_EQ(b.state(t1 + std::chrono::milliseconds(999)),
            CircuitBreaker::State::Open);
  EXPECT_EQ(b.state(t1 + std::chrono::milliseconds(1001)),
            CircuitBreaker::State::HalfOpen);
}

TEST(CircuitBreaker, WouldRejectNeverClaimsProbeSlots) {
  CircuitBreakerOptions o;
  o.failureThreshold = 1;
  o.openMs = 1000.0;
  o.halfOpenProbes = 1;
  CircuitBreaker b(o);
  const Clock::time_point t0{};
  b.onFailure(t0);
  const auto t1 = t0 + std::chrono::milliseconds(1001);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(b.wouldReject(t1));
  EXPECT_TRUE(b.allow(t1));  // the probe is still available
}

// --- breaker + stale-while-error through the broker ---

TEST(Broker, BreakerOpensAfterRepeatedEngineFailures) {
  auto engine = std::make_shared<FakeEngine>();
  engine->failAlways();
  BrokerOptions opts;
  opts.threads = 1;
  opts.breaker.failureThreshold = 2;
  opts.breaker.openMs = 60'000.0;  // stays open for the whole test
  opts.staleCapacity = 0;          // no fallback: rejection is visible
  Broker broker(engine, opts);

  EXPECT_EQ(broker.tune(tuneReq(1)).status, Status::Error);
  EXPECT_EQ(broker.tune(tuneReq(2)).status, Status::Error);
  // The breaker is now open: fail fast without touching the engine.
  const int callsBefore = engine->calls();
  EXPECT_EQ(broker.tune(tuneReq(3)).status, Status::CircuitOpen);
  EXPECT_EQ(engine->calls(), callsBefore);
  const ServeMetrics m = broker.metrics();
  EXPECT_EQ(m.failed, 2u);
  EXPECT_EQ(m.breakerOpens, 1u);
  EXPECT_EQ(m.rejectedCircuitOpen, 1u);
}

TEST(Broker, BreakersAreIndependentPerDevice) {
  auto engine = std::make_shared<FakeEngine>();
  engine->failAlways();
  BrokerOptions opts;
  opts.threads = 1;
  opts.breaker.failureThreshold = 1;
  opts.breaker.openMs = 60'000.0;
  opts.staleCapacity = 0;
  Broker broker(engine, opts);

  ASSERT_EQ(broker.tune(tuneReq(1, 0.5, 0.0, Device::K40c)).status,
            Status::Error);
  EXPECT_EQ(broker.tune(tuneReq(2, 0.5, 0.0, Device::K40c)).status,
            Status::CircuitOpen);
  // P100 traffic still reaches the engine.
  engine->failAlways(false);
  EXPECT_EQ(broker.tune(tuneReq(3, 0.5, 0.0, Device::P100)).status,
            Status::Ok);
}

TEST(Broker, StaleResultServedWhenTheEngineFails) {
  auto engine = std::make_shared<FakeEngine>();
  BrokerOptions opts;
  opts.threads = 1;
  opts.cacheCapacity = 1;  // force eviction: the stale path is only
                           // reachable past the result cache
  opts.staleCapacity = 8;
  Broker broker(engine, opts);

  const TuneResponse good = broker.tune(tuneReq(1));
  ASSERT_EQ(good.status, Status::Ok);
  ASSERT_EQ(broker.tune(tuneReq(2)).status, Status::Ok);  // evicts N=1

  engine->failAlways();
  const TuneResponse stale = broker.tune(tuneReq(1));
  ASSERT_EQ(stale.status, Status::Ok);
  EXPECT_TRUE(stale.stale);
  EXPECT_FALSE(stale.cacheHit);
  EXPECT_EQ(stale.recommendation.recommended.configId,
            good.recommendation.recommended.configId);
  const ServeMetrics m = broker.metrics();
  EXPECT_EQ(m.staleServed, 1u);
  EXPECT_EQ(m.failed, 0u);  // stale-while-error is a success to the caller
}

TEST(Broker, OpenBreakerServesStaleAndRejectsUnknownKeys) {
  auto engine = std::make_shared<FakeEngine>();
  BrokerOptions opts;
  opts.threads = 1;
  opts.cacheCapacity = 1;
  opts.staleCapacity = 8;
  opts.breaker.failureThreshold = 1;
  opts.breaker.openMs = 60'000.0;
  Broker broker(engine, opts);

  ASSERT_EQ(broker.tune(tuneReq(1)).status, Status::Ok);
  ASSERT_EQ(broker.tune(tuneReq(2)).status, Status::Ok);  // evicts N=1
  engine->failAlways();
  ASSERT_EQ(broker.tune(tuneReq(3)).status, Status::Error);  // trips it

  const int callsBefore = engine->calls();
  const TuneResponse stale = broker.tune(tuneReq(1));
  EXPECT_EQ(stale.status, Status::Ok);
  EXPECT_TRUE(stale.stale);
  EXPECT_EQ(broker.tune(tuneReq(4)).status, Status::CircuitOpen);
  EXPECT_EQ(engine->calls(), callsBefore);  // both answered at admission
  const ServeMetrics m = broker.metrics();
  EXPECT_EQ(m.staleServed, 1u);
  EXPECT_EQ(m.rejectedCircuitOpen, 1u);
  EXPECT_EQ(m.breakerOpens, 1u);
}

TEST(Broker, ShutdownDrainsWithAFailureInFlight) {
  auto engine = std::make_shared<FakeEngine>(/*gated=*/true);
  engine->failOn(1);
  BrokerOptions opts;
  opts.threads = 1;
  opts.queueCapacity = 8;
  Broker broker(engine, opts);

  auto failing = broker.submitTune(tuneReq(1));
  engine->waitEntered();
  auto queued = broker.submitTune(tuneReq(2));

  std::thread closer([&] { broker.shutdown(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  engine->release();
  closer.join();

  // Drained: the failure is reported, the queued job still ran.
  EXPECT_EQ(failing.get().status, Status::Error);
  EXPECT_EQ(queued.get().status, Status::Ok);
  EXPECT_EQ(broker.tune(tuneReq(3)).status, Status::ShuttingDown);
}

TEST(Broker, DeadlineAndBreakerRacesResolveEveryRequest) {
  // A short open window keeps the breaker flapping between Open and
  // HalfOpen while deadlines expire in the queue — every future must
  // still resolve with a definite status and the admission identity
  // must hold (the snapshot ordering is TSan-verified in CI).
  auto engine = std::make_shared<FakeEngine>();
  engine->failAlways();
  BrokerOptions opts;
  opts.threads = 4;
  opts.queueCapacity = 128;
  opts.breaker.failureThreshold = 3;
  opts.breaker.openMs = 1.0;
  opts.staleCapacity = 0;
  Broker broker(engine, opts);

  std::vector<std::future<TuneResponse>> futures;
  for (int i = 0; i < 60; ++i) {
    const double deadlineMs = (i % 3 == 0) ? 0.01 : 0.0;
    futures.push_back(broker.submitTune(tuneReq(i % 8 + 1, 0.5, deadlineMs)));
  }
  for (auto& f : futures) {
    const Status s = f.get().status;
    EXPECT_TRUE(s == Status::Error || s == Status::CircuitOpen ||
                s == Status::DeadlineExceeded)
        << "status " << static_cast<int>(s);
  }
  const ServeMetrics m = broker.metrics();
  EXPECT_LE(m.completed + m.failed + m.rejectedDeadline, m.accepted);
  EXPECT_EQ(m.completed, 0u);  // a failing engine never produces Ok
  EXPECT_EQ(m.queueDepth, 0u);
  EXPECT_EQ(m.inFlightStudies, 0u);
}

// --- adaptive admission (epchaos overload control) ---

// A controllable time source: BrokerOptions.clock routes every
// deadline, latency and AIMD observation through it, so overload and
// recovery scenarios run deterministically with no real sleeping.
struct FakeClock {
  std::atomic<std::int64_t> ns{0};
  void advanceMs(double ms) {
    ns.fetch_add(static_cast<std::int64_t>(ms * 1e6));
  }
  std::function<Clock::time_point()> fn() {
    return [this] { return Clock::time_point(Clock::duration(ns.load())); };
  }
};

TEST(Admission, OverflowFastFailsOverloadedWhileAdmittedWorkCompletes) {
  // 2x sustained overload: 8 distinct cold keys offered against an
  // admission limit of 4.  The overflow must fast-fail Overloaded
  // without queueing; every admitted request must complete with
  // latency inside the SLO target (the p99-of-admitted pin).
  auto engine = std::make_shared<FakeEngine>(/*gated=*/true);
  FakeClock clock;
  BrokerOptions opts;
  opts.threads = 2;
  opts.queueCapacity = 32;
  opts.clock = clock.fn();
  opts.admission.targetLatencyMs = 50.0;
  opts.admission.initialLimit = 4;
  opts.admission.minLimit = 1;
  opts.admission.maxLimit = 4;
  Broker broker(engine, opts);

  std::vector<std::future<TuneResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    TuneRequest req;
    req.device = Device::P100;
    req.n = 100 + i;
    futures.push_back(broker.submitTune(req));
  }
  // The 4 rejections are inline: their futures are ready while both
  // workers are still parked inside the gated engine.
  int fastFailed = 0;
  for (auto& f : futures) {
    if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      ++fastFailed;
    }
  }
  EXPECT_EQ(fastFailed, 4);
  clock.advanceMs(49.0);  // queueing time, still inside the target
  engine->release();
  int ok = 0;
  int overloaded = 0;
  double maxLatencyMs = 0.0;
  for (auto& f : futures) {
    const TuneResponse resp = f.get();
    if (resp.status == Status::Ok) {
      ++ok;
      maxLatencyMs = std::max(maxLatencyMs, resp.latency.value() * 1e3);
    } else {
      ASSERT_EQ(resp.status, Status::Overloaded);
      ++overloaded;
    }
  }
  EXPECT_EQ(ok, 4);
  EXPECT_EQ(overloaded, 4);
  EXPECT_LE(maxLatencyMs, opts.admission.targetLatencyMs);
  const ServeMetrics m = broker.metrics();
  EXPECT_EQ(m.rejectedOverload, static_cast<std::uint64_t>(overloaded));
  EXPECT_EQ(m.rejectedOverload, 4u);
  EXPECT_EQ(m.rejectedQueueFull, 0u);  // shed at admission, not the queue
  // Every future resolved and the broker drained clean.
  EXPECT_EQ(m.inFlightStudies, 0u);
  EXPECT_EQ(m.queueDepth, 0u);
  broker.shutdown();
}

TEST(Admission, AimdHalvesOnOverTargetLatencyAndGrowsBack) {
  auto engine = std::make_shared<FakeEngine>(/*gated=*/true);
  FakeClock clock;
  BrokerOptions opts;
  opts.threads = 1;
  opts.clock = clock.fn();
  opts.admission.targetLatencyMs = 50.0;
  opts.admission.initialLimit = 8;
  opts.admission.minLimit = 1;
  opts.admission.maxLimit = 16;
  Broker broker(engine, opts);
  EXPECT_EQ(broker.metrics().admissionLimit, 8u);

  // One over-target completion (100 ms against a 50 ms target)
  // multiplicatively halves the limit.
  TuneRequest req;
  req.device = Device::P100;
  req.n = 42;
  auto slow = broker.submitTune(req);
  engine->waitEntered(1);
  clock.advanceMs(100.0);
  engine->release();
  EXPECT_EQ(slow.get().status, Status::Ok);
  EXPECT_EQ(broker.metrics().admissionLimit, 4u);

  // In-target completions additively re-open it (fractional increase:
  // ~1 slot per `limit` completions).
  for (int i = 0; i < 40; ++i) {
    TuneRequest r;
    r.device = Device::P100;
    r.n = 1000 + i;
    EXPECT_EQ(broker.submitTune(r).get().status, Status::Ok);
  }
  EXPECT_GT(broker.metrics().admissionLimit, 4u);
  broker.shutdown();
}

TEST(Admission, DeadlineInfeasibleColdRequestsShedAtAdmission) {
  auto engine = std::make_shared<FakeEngine>(/*gated=*/true);
  FakeClock clock;
  BrokerOptions opts;
  opts.threads = 1;
  opts.clock = clock.fn();
  opts.admission.targetLatencyMs = 50.0;
  opts.admission.initialLimit = 8;
  Broker broker(engine, opts);

  // Teach the EWMA cost model that a cold study takes ~80 ms.
  TuneRequest first;
  first.device = Device::P100;
  first.n = 7;
  auto f = broker.submitTune(first);
  engine->waitEntered(1);
  clock.advanceMs(80.0);
  engine->release();
  EXPECT_EQ(f.get().status, Status::Ok);
  const int callsAfterWarm = engine->calls();

  // An uncached request with a 10 ms deadline cannot cover that cost:
  // it must be refused at admission without burning any pool time.
  TuneRequest doomed;
  doomed.device = Device::P100;
  doomed.n = 8;
  doomed.deadlineMs = 10.0;
  const TuneResponse resp = broker.submitTune(doomed).get();
  EXPECT_EQ(resp.status, Status::DeadlineExceeded);
  EXPECT_EQ(engine->calls(), callsAfterWarm);
  EXPECT_EQ(broker.metrics().shedDeadline, 1u);

  // A feasible deadline still goes through.
  TuneRequest fine;
  fine.device = Device::P100;
  fine.n = 9;
  fine.deadlineMs = 500.0;
  EXPECT_EQ(broker.submitTune(fine).get().status, Status::Ok);
  broker.shutdown();
}

TEST(Admission, DisabledAdmissionNeverRejectsOverloaded) {
  // Chaos off => the admission branch is never taken; behaviour (and
  // the metrics surface) matches a pre-epchaos broker.
  auto engine = std::make_shared<FakeEngine>();
  BrokerOptions opts;
  opts.threads = 2;
  Broker broker(engine, opts);
  std::vector<std::future<TuneResponse>> futures;
  for (int i = 0; i < 32; ++i) {
    TuneRequest req;
    req.device = Device::P100;
    req.n = 3000 + i;
    futures.push_back(broker.submitTune(req));
  }
  for (auto& f : futures) EXPECT_NE(f.get().status, Status::Overloaded);
  const ServeMetrics m = broker.metrics();
  EXPECT_EQ(m.rejectedOverload, 0u);
  EXPECT_EQ(m.shedDeadline, 0u);
  EXPECT_EQ(m.admissionLimit, 0u);  // gauge reads 0 when disabled
  broker.shutdown();
}

// A sweep's sizes inside one shared pass have no wall time of their
// own, so they do not teach the cost model; a cold tune still does
// (DeadlineInfeasibleColdRequestsShedAtAdmission).
TEST(Admission, SweepSizesDoNotFeedTheColdStudyCost) {
  auto engine = std::make_shared<FakeEngine>(/*gated=*/true);
  FakeClock clock;
  BrokerOptions opts;
  opts.threads = 1;
  opts.clock = clock.fn();
  opts.admission.targetLatencyMs = 50.0;
  opts.admission.initialLimit = 8;
  Broker broker(engine, opts);

  StudyRequest sweep;
  sweep.nBegin = 100;
  sweep.nEnd = 300;
  sweep.nStep = 100;
  auto swept = broker.submitStudy(sweep);
  engine->waitEntered(1);
  clock.advanceMs(80.0);  // the pass takes 80 ms
  engine->release();
  ASSERT_EQ(swept.get().status, Status::Ok);

  // A cold tune whose deadline an 80 ms study would not meet is still
  // admitted: the cost model holds no sample.
  const TuneResponse resp = broker.submitTune(tuneReq(8, 0.5, 10.0)).get();
  EXPECT_EQ(resp.status, Status::Ok);
  EXPECT_EQ(broker.metrics().shedDeadline, 0u);
  broker.shutdown();
}

// --- study sweeps: every size resolved under one lock, one list call ---

StudyRequest sweepReq(int nBegin, int nEnd, int nStep,
                      double deadlineMs = 0.0) {
  StudyRequest req;
  req.device = Device::P100;
  req.nBegin = nBegin;
  req.nEnd = nEnd;
  req.nStep = nStep;
  req.deadlineMs = deadlineMs;
  return req;
}

TEST(Broker, SweepJoinsAKeyInFlightAndClaimsTheRestInOneListCall) {
  auto engine = std::make_shared<FakeEngine>(/*gated=*/true);
  BrokerOptions opts;
  opts.threads = 2;
  Broker broker(engine, opts);

  auto tune = broker.submitTune(tuneReq(200));
  engine->waitEntered(1);  // n = 200 is in flight
  auto swept = broker.submitStudy(sweepReq(100, 300, 100));
  engine->waitEntered(2);  // the sweep's list call is running
  engine->release();

  const StudyResponse resp = swept.get();
  ASSERT_EQ(resp.status, Status::Ok);
  EXPECT_EQ(resp.statistics.workloads, 3u);
  EXPECT_EQ(resp.report.coalesced, 1u);
  EXPECT_EQ(resp.report.studiesExecuted, 2u);
  EXPECT_DOUBLE_EQ(resp.report.attributedJoules,
                   fakeStudyJoules(100) + fakeStudyJoules(300));
  EXPECT_EQ(engine->lists(), (std::vector<std::vector<int>>{{100, 300}}));
  EXPECT_EQ(tune.get().status, Status::Ok);
  EXPECT_EQ(engine->calls(), 3);
  const ServeMetrics m = broker.metrics();
  EXPECT_EQ(m.coalesced, 1u);
  EXPECT_EQ(m.studiesExecuted, 3u);
}

TEST(Broker, FailingSweepSizeFailsOnlyItself) {
  {
    // The middle size fails: the response is its error, and the size
    // after it was still computed and cached.
    auto engine = std::make_shared<FakeEngine>();
    engine->failOn(200);
    Broker broker(engine, BrokerOptions{});
    const StudyResponse first = broker.study(sweepReq(100, 300, 100));
    EXPECT_EQ(first.status, Status::Error);
    EXPECT_NE(first.error.find("synthetic engine failure"), std::string::npos)
        << first.error;
    EXPECT_EQ(engine->calls(), 3);
    const StudyResponse second = broker.study(sweepReq(100, 300, 100));
    EXPECT_EQ(second.status, Status::Error);
    EXPECT_EQ(second.workloadCacheHits, 2u);
    EXPECT_EQ(engine->calls(), 4);  // only n = 200 ran again
  }
  {
    // An armed breaker (threshold 2) sees the sweep's one failure once:
    // it stays closed, and the same size failing once more opens it.
    auto engine = std::make_shared<FakeEngine>();
    engine->failOn(300);
    BrokerOptions opts;
    opts.breaker.failureThreshold = 2;
    opts.breaker.openMs = 60'000.0;
    Broker broker(engine, opts);
    EXPECT_EQ(broker.study(sweepReq(100, 300, 100)).status, Status::Error);
    EXPECT_EQ(broker.metrics().breakerOpens, 0u);
    const StudyResponse again = broker.study(sweepReq(100, 300, 100));
    EXPECT_EQ(again.status, Status::Error);
    EXPECT_EQ(again.workloadCacheHits, 2u);
    EXPECT_EQ(broker.metrics().breakerOpens, 1u);
  }
}

TEST(Broker, SweepChecksItsDeadlineOnceBeforeTheClaims) {
  {
    // Started in time, the sweep runs to its end although the deadline
    // passes during its pass.
    auto engine = std::make_shared<FakeEngine>(/*gated=*/true);
    FakeClock clock;
    BrokerOptions opts;
    opts.threads = 1;
    opts.clock = clock.fn();
    Broker broker(engine, opts);
    auto swept = broker.submitStudy(sweepReq(100, 300, 100, 10.0));
    engine->waitEntered(1);
    clock.advanceMs(50.0);
    engine->release();
    const StudyResponse resp = swept.get();
    EXPECT_EQ(resp.status, Status::Ok);
    EXPECT_EQ(resp.report.studiesExecuted, 3u);
  }
  {
    // Expired while queued: rejected before any size is looked up.
    auto engine = std::make_shared<FakeEngine>(/*gated=*/true);
    FakeClock clock;
    BrokerOptions opts;
    opts.threads = 1;
    opts.clock = clock.fn();
    Broker broker(engine, opts);
    auto tune = broker.submitTune(tuneReq(42));
    engine->waitEntered(1);  // holds the only worker
    auto swept = broker.submitStudy(sweepReq(100, 300, 100, 10.0));
    clock.advanceMs(50.0);
    engine->release();
    EXPECT_EQ(swept.get().status, Status::DeadlineExceeded);
    EXPECT_EQ(tune.get().status, Status::Ok);
    EXPECT_EQ(engine->calls(), 1);
    const ServeMetrics m = broker.metrics();
    EXPECT_EQ(m.rejectedDeadline, 1u);
    EXPECT_EQ(m.cacheHits + m.cacheMisses, 1u);  // the tune's lookup
  }
}

// --- the device table must not move the exposition ---

// The exposition the test below pins (see its comment).
constexpr const char* kPinnedExposition = R"prom(# HELP ep_serve_accepted_total Requests admitted into the service
# TYPE ep_serve_accepted_total counter
ep_serve_accepted_total 7
# HELP ep_serve_completed_total Requests answered with Status::Ok
# TYPE ep_serve_completed_total counter
ep_serve_completed_total 6
# HELP ep_serve_failed_total Requests that failed (engine or input)
# TYPE ep_serve_failed_total counter
ep_serve_failed_total 1
# HELP ep_serve_rejected_queue_full_total Submissions rejected by backpressure
# TYPE ep_serve_rejected_queue_full_total counter
ep_serve_rejected_queue_full_total 0
# HELP ep_serve_rejected_deadline_total Requests expired before completion
# TYPE ep_serve_rejected_deadline_total counter
ep_serve_rejected_deadline_total 0
# HELP ep_serve_rejected_shutdown_total Submissions rejected during shutdown
# TYPE ep_serve_rejected_shutdown_total counter
ep_serve_rejected_shutdown_total 0
# HELP ep_serve_coalesced_total Requests that joined an in-flight identical study
# TYPE ep_serve_coalesced_total counter
ep_serve_coalesced_total 0
# HELP ep_serve_studies_executed_total Cold engine evaluations
# TYPE ep_serve_studies_executed_total counter
ep_serve_studies_executed_total 7
# HELP ep_serve_cache_hits_total Result-cache lookups that hit
# TYPE ep_serve_cache_hits_total counter
ep_serve_cache_hits_total 2
# HELP ep_serve_cache_misses_total Result-cache lookups that missed
# TYPE ep_serve_cache_misses_total counter
ep_serve_cache_misses_total 7
# HELP ep_serve_cache_evictions_total Result-cache LRU evictions
# TYPE ep_serve_cache_evictions_total counter
ep_serve_cache_evictions_total 0
# HELP ep_serve_rejected_circuit_open_total Requests rejected by an open circuit breaker
# TYPE ep_serve_rejected_circuit_open_total counter
ep_serve_rejected_circuit_open_total 0
# HELP ep_serve_breaker_opens_total Circuit-breaker open transitions
# TYPE ep_serve_breaker_opens_total counter
ep_serve_breaker_opens_total 1
# HELP ep_serve_stale_served_total Responses served from the stale-while-error store
# TYPE ep_serve_stale_served_total counter
ep_serve_stale_served_total 0
# HELP ep_serve_rejected_overload_total Submissions shed by the adaptive admission limit
# TYPE ep_serve_rejected_overload_total counter
ep_serve_rejected_overload_total 0
# HELP ep_serve_shed_deadline_total Uncached submissions shed as deadline-infeasible at admission
# TYPE ep_serve_shed_deadline_total counter
ep_serve_shed_deadline_total 0
# HELP ep_serve_admission_limit Adaptive concurrency limit (0 = admission control disabled)
# TYPE ep_serve_admission_limit gauge
ep_serve_admission_limit 0
# HELP ep_serve_queue_depth Admitted, not yet started jobs
# TYPE ep_serve_queue_depth gauge
ep_serve_queue_depth 0
# HELP ep_serve_in_flight_studies Engine evaluations running now
# TYPE ep_serve_in_flight_studies gauge
ep_serve_in_flight_studies 0
# HELP ep_serve_cache_size Result-cache entries resident
# TYPE ep_serve_cache_size gauge
ep_serve_cache_size 6
# HELP ep_serve_cache_capacity Result-cache capacity
# TYPE ep_serve_cache_capacity gauge
ep_serve_cache_capacity 128
# HELP ep_serve_breaker_state_p100 P100 breaker state (0 closed, 1 half-open, 2 open)
# TYPE ep_serve_breaker_state_p100 gauge
ep_serve_breaker_state_p100 0
# HELP ep_serve_breaker_state_k40c K40c breaker state (0 closed, 1 half-open, 2 open)
# TYPE ep_serve_breaker_state_k40c gauge
ep_serve_breaker_state_k40c 2
# HELP ep_serve_request_latency_ms Completed-request latency, submit to response (ms)
# TYPE ep_serve_request_latency_ms histogram
ep_serve_request_latency_ms_bucket{le="0.05"} 6
ep_serve_request_latency_ms_bucket{le="0.1"} 6
ep_serve_request_latency_ms_bucket{le="0.25"} 6
ep_serve_request_latency_ms_bucket{le="0.5"} 6
ep_serve_request_latency_ms_bucket{le="1"} 6
ep_serve_request_latency_ms_bucket{le="2.5"} 6
ep_serve_request_latency_ms_bucket{le="5"} 6
ep_serve_request_latency_ms_bucket{le="10"} 6
ep_serve_request_latency_ms_bucket{le="25"} 6
ep_serve_request_latency_ms_bucket{le="100"} 6
ep_serve_request_latency_ms_bucket{le="500"} 6
ep_serve_request_latency_ms_bucket{le="2000"} 6
ep_serve_request_latency_ms_bucket{le="+Inf"} 6
ep_serve_request_latency_ms_sum 0
ep_serve_request_latency_ms_count 6
# HELP ep_request_energy_joules Dynamic energy attributed to the requests that measured it
# TYPE ep_request_energy_joules counter
ep_request_energy_joules{device="P100"} 24
ep_request_energy_joules{device="K40c"} 8
# HELP ep_request_windows_total Accepted measurement windows attributed to requests
# TYPE ep_request_windows_total counter
ep_request_windows_total{device="P100"} 20
ep_request_windows_total{device="K40c"} 10
# HELP ep_request_energy_hist_joules Attributed joules per executed cold study
# TYPE ep_request_energy_hist_joules histogram
ep_request_energy_hist_joules_bucket{device="P100",le="0.1"} 0
ep_request_energy_hist_joules_bucket{device="P100",le="1"} 0
ep_request_energy_hist_joules_bucket{device="P100",le="10"} 4
ep_request_energy_hist_joules_bucket{device="P100",le="50"} 4
ep_request_energy_hist_joules_bucket{device="P100",le="100"} 4
ep_request_energy_hist_joules_bucket{device="P100",le="500"} 4
ep_request_energy_hist_joules_bucket{device="P100",le="1000"} 4
ep_request_energy_hist_joules_bucket{device="P100",le="5000"} 4
ep_request_energy_hist_joules_bucket{device="P100",le="10000"} 4
ep_request_energy_hist_joules_bucket{device="P100",le="50000"} 4
ep_request_energy_hist_joules_bucket{device="P100",le="+Inf"} 4
ep_request_energy_hist_joules_sum{device="P100"} 24
ep_request_energy_hist_joules_count{device="P100"} 4
ep_request_energy_hist_joules_bucket{device="K40c",le="0.1"} 0
ep_request_energy_hist_joules_bucket{device="K40c",le="1"} 0
ep_request_energy_hist_joules_bucket{device="K40c",le="10"} 2
ep_request_energy_hist_joules_bucket{device="K40c",le="50"} 2
ep_request_energy_hist_joules_bucket{device="K40c",le="100"} 2
ep_request_energy_hist_joules_bucket{device="K40c",le="500"} 2
ep_request_energy_hist_joules_bucket{device="K40c",le="1000"} 2
ep_request_energy_hist_joules_bucket{device="K40c",le="5000"} 2
ep_request_energy_hist_joules_bucket{device="K40c",le="10000"} 2
ep_request_energy_hist_joules_bucket{device="K40c",le="50000"} 2
ep_request_energy_hist_joules_bucket{device="K40c",le="+Inf"} 2
ep_request_energy_hist_joules_sum{device="K40c"} 8
ep_request_energy_hist_joules_count{device="K40c"} 2
# HELP ep_build_info Build identity (info-style: value always 1)
# TYPE ep_build_info gauge
ep_build_info{...} 1
)prom";

// A broker's Prometheus exposition after a fixed request mix on both
// devices, byte for byte: family order, the per-device breaker gauges
// (ep_serve_breaker_state_{p100,k40c}) and the device="P100"/"K40c"
// labels of the energy ledger.  Registering the per-device series from
// the device table must not move any of it.  The fake clock pins every
// latency to 0 ms; ep_build_info (the build's identity) is masked.
TEST(Broker, PrometheusExpositionPinnedOverBothDevices) {
  auto engine = std::make_shared<FakeEngine>();
  engine->failOn(700);
  FakeClock clock;
  BrokerOptions opts;
  opts.threads = 1;
  opts.clock = clock.fn();
  opts.breaker.failureThreshold = 1;
  opts.breaker.openMs = 60'000.0;
  Broker broker(engine, opts);
  for (const Device d : {Device::P100, Device::K40c}) {
    ASSERT_EQ(broker.tune(tuneReq(100, 0.5, 0.0, d)).status, Status::Ok);
    ASSERT_EQ(broker.tune(tuneReq(100, 0.5, 0.0, d)).status, Status::Ok);
  }
  ASSERT_EQ(broker.tune(tuneReq(300, 0.5, 0.0, Device::K40c)).status,
            Status::Ok);
  StudyRequest sweep;
  sweep.device = Device::P100;
  sweep.nBegin = 400;
  sweep.nEnd = 600;
  sweep.nStep = 100;
  ASSERT_EQ(broker.study(sweep).status, Status::Ok);
  // One engine failure opens the K40c breaker; P100's stays closed.
  ASSERT_EQ(broker.tune(tuneReq(700, 0.5, 0.0, Device::K40c)).status,
            Status::Error);

  std::string text = broker.renderPrometheus();
  const std::size_t info = text.find("\nep_build_info{");
  ASSERT_NE(info, std::string::npos) << text;
  text.replace(info + 1, text.find('\n', info + 1) - info - 1,
               "ep_build_info{...} 1");
  EXPECT_EQ(text, kPinnedExposition);
}

// --- inline execution: a model-direct broker runs cold studies on the
// submitting thread ---
//
// Together these two tests are the seed of a differential oracle over
// the serving path: one pins answers across the inline/pooled split,
// the other the one promise the split must keep across threads.

// The same engine behind a decorator that keeps TuningEngine's default
// runsInline() == false, so a broker over it runs every cold study on
// its pool.
class PooledEngine final : public TuningEngine {
 public:
  explicit PooledEngine(std::shared_ptr<const TuningEngine> inner)
      : inner_(std::move(inner)) {}
  std::uint64_t tuningHash(Device d) const override {
    return inner_->tuningHash(d);
  }
  core::WorkloadResult evaluate(Device d, int n,
                                ThreadPool* pool) const override {
    return inner_->evaluate(d, n, pool);
  }

 private:
  std::shared_ptr<const TuningEngine> inner_;
};

// A tune stream shaped like e2ebench's miss_json: Zipf(1) popularity
// over a seeded ranking of 256 keys (128 distinct multiples of 64 in
// [1024, 16320] per device), each request with one of three budgets.
std::vector<TuneRequest> missJsonStream(std::uint64_t seed,
                                        std::size_t length) {
  Rng rng(seed);
  std::vector<TuneRequest> keys;
  for (const Device d : {Device::P100, Device::K40c}) {
    std::vector<int> grid(240);
    for (int i = 0; i < 240; ++i) grid[i] = 1024 + 64 * i;
    for (std::size_t i = 0; i < 128; ++i) {
      std::swap(grid[i], grid[rng.uniformInt(i, grid.size() - 1)]);
      keys.push_back(tuneReq(grid[i], 0.0, 0.0, d));
    }
  }
  for (std::size_t i = keys.size() - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.uniformInt(0, i)]);
  }
  std::vector<double> cdf;
  double sum = 0.0;
  for (std::size_t r = 0; r < keys.size(); ++r) {
    sum += 1.0 / static_cast<double>(r + 1);
    cdf.push_back(sum);
  }
  constexpr double kBudgets[] = {0.05, 0.11, 0.20};
  std::vector<TuneRequest> stream;
  for (std::size_t i = 0; i < length; ++i) {
    const auto rank = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), rng.uniform(0.0, sum)) -
        cdf.begin());
    TuneRequest r = keys[std::min(rank, keys.size() - 1)];
    r.maxDegradation = kBudgets[rng.uniformInt(0, 2)];
    stream.push_back(r);
  }
  return stream;
}

// Every response of `stream`, replayed in batches of 8 (each answered
// before the next is submitted), as line JSON with the ledger.
std::vector<std::string> replayInBatches(Broker& broker,
                                         const std::vector<TuneRequest>& stream) {
  std::vector<std::string> lines;
  for (std::size_t at = 0; at < stream.size(); at += 8) {
    const std::size_t count = std::min<std::size_t>(8, stream.size() - at);
    BatchCollector collect(count);
    std::vector<Broker::TuneBatchItem> items;
    for (std::size_t i = 0; i < count; ++i) {
      items.push_back(collect.item(i, stream[at + i]));
    }
    broker.submitTuneBatch(std::move(items));
    collect.waitAll();
    for (const TuneResponse& r : collect.responses) {
      lines.push_back(wire::encodeTuneResponse(r, "", /*withReport=*/true));
    }
  }
  return lines;
}

TEST(BrokerInline, InlineAnswersEqualPooledAnswers) {
  auto engine = std::make_shared<EpStudyEngine>();
  auto pooled = std::make_shared<PooledEngine>(engine);
  EpStudyEngineOptions metered;
  metered.useMeter = true;
  ASSERT_TRUE(engine->runsInline());
  ASSERT_FALSE(pooled->runsInline());
  ASSERT_FALSE(EpStudyEngine(metered).runsInline());

  // The fake clock pins every latency to 0 ms, so whole responses and
  // whole expositions compare.
  FakeClock clock;
  BrokerOptions opts;
  opts.threads = 2;
  opts.cacheCapacity = 64;
  opts.clock = clock.fn();
  Broker inlineBroker(engine, opts);
  Broker pooledBroker(pooled, opts);

  const std::vector<TuneRequest> stream = missJsonStream(0x3155AB1Eu, 2048);
  const std::vector<std::string> a = replayInBatches(inlineBroker, stream);
  const std::vector<std::string> b = replayInBatches(pooledBroker, stream);
  ASSERT_EQ(a.size(), stream.size());
  ASSERT_EQ(b.size(), stream.size());
  const auto diff = std::mismatch(a.begin(), a.end(), b.begin());
  EXPECT_TRUE(diff.first == a.end())
      << "request " << (diff.first - a.begin()) << ":\n  inline " << *diff.first
      << "\n  pooled " << *diff.second;

  const ServeMetrics mi = inlineBroker.metrics();
  const ServeMetrics mp = pooledBroker.metrics();
  EXPECT_EQ(mi.accepted, mp.accepted);
  EXPECT_EQ(mi.completed, mp.completed);
  EXPECT_EQ(mi.studiesExecuted, mp.studiesExecuted);
  EXPECT_EQ(mi.cacheHits, mp.cacheHits);
  EXPECT_EQ(mi.cacheEvictions, mp.cacheEvictions);
  // The stream exercises what miss_json does: hits, cold studies and
  // evictions, all answered.
  EXPECT_EQ(mi.completed, stream.size());
  EXPECT_GT(mi.cacheHits, 0u);
  EXPECT_GT(mi.studiesExecuted, 0u);
  EXPECT_GT(mi.cacheEvictions, 0u);
  // The rest of the registry — the energy ledger included — too.
  EXPECT_EQ(inlineBroker.renderPrometheus(), pooledBroker.renderPrometheus());
}

// FakeEngine (gated, counted), but run inline by the broker.
class InlineFakeEngine final : public FakeEngine {
 public:
  using FakeEngine::FakeEngine;
  bool runsInline() const override { return true; }
};

TEST(BrokerInline, InFlightKeyIsJoinedWithoutBlockingTheSubmitter) {
  auto engine = std::make_shared<InlineFakeEngine>(/*gated=*/true);
  Broker broker(engine, BrokerOptions{});

  // Thread A runs the cold study inline and is held inside evaluate().
  std::future<TuneResponse> first;
  std::thread a([&] { first = broker.submitTune(tuneReq(42)); });
  engine->waitEntered();

  // Thread B submits the same key: it must join A's study as a waiter
  // and return at once — never block on a study A owns.
  BatchCollector collect(1);
  std::vector<Broker::TuneBatchItem> items;
  items.push_back(collect.item(0, tuneReq(42, 0.2)));
  auto b = std::async(std::launch::async, [&broker, &items] {
    broker.submitTuneBatch(std::move(items));
  });
  const bool returned =
      b.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  EXPECT_TRUE(returned) << "submitTuneBatch blocked on another thread's study";
  EXPECT_EQ(collect.futures[0].wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);

  // Releasing A answers both, from the one evaluate().
  engine->release();
  a.join();
  b.wait();
  collect.waitAll();
  const TuneResponse owner = first.get();
  EXPECT_EQ(owner.status, Status::Ok);
  EXPECT_FALSE(owner.coalesced);
  EXPECT_EQ(owner.report.studiesExecuted, 1u);
  EXPECT_EQ(collect.responses[0].status, Status::Ok);
  EXPECT_TRUE(collect.responses[0].coalesced);
  EXPECT_EQ(collect.responses[0].report.studiesExecuted, 0u);
  EXPECT_EQ(engine->calls(), 1);
  EXPECT_EQ(engine->lastPool(), nullptr);  // an inline broker has no pool
  const ServeMetrics m = broker.metrics();
  EXPECT_EQ(m.studiesExecuted, 1u);
  EXPECT_EQ(m.coalesced, 1u);
  EXPECT_EQ(m.completed, 2u);
}

}  // namespace
}  // namespace ep::serve
