// chaoscheck — end-to-end chaos drill for the epchaos robustness layer.
//
// Runs the whole fault campaign in-process against the real
// EpStudyEngine and exits non-zero on the first broken invariant:
//
//   A. a 5 % transport-fault campaign (connection resets, torn frames,
//      corrupted EPB1 varints, stalls) over a real net::Server fronting
//      a 3-shard fleet: every request resolves, the error rate stays
//      bounded, and the whole campaign — fault schedule, statuses,
//      recommendations — is bitwise-identical when replayed from the
//      same seed;
//   B. server-side chaos hooks (accept drops, inbound corruption): the
//      server keeps serving through them;
//   C. shard crash -> breaker opens -> health probes auto-eject (no
//      operator kill) -> warm keys stale-served by the ring successor
//      exactly as under a manual kill -> engine recovers -> probes
//      auto-reinstate; time-to-eject/reinstate reported in probe ticks;
//   D. a 2x overload burst against an adaptive-admission broker: every
//      future resolves, overflow is fast-failed Overloaded (no queue
//      collapse), admitted requests complete;
//   E. SLO burn raised while the campaign degrades client latency
//      (retry backoff against a crashed shard) and cleared after
//      recovery;
//   F. energy-aware routing still beats round-robin on cluster joules
//      over the same trace.
//
// All randomness (fault schedules, backoff jitter) is forked off one
// campaign seed (--seed), which is what makes phase A's double run a
// bitwise assertion rather than a flake.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chaos/chaos.hpp"
#include "chaos/chaos_engine.hpp"
#include "chaos/faulty_transport.hpp"
#include "chaos/net_chaos.hpp"
#include "chaos/retry.hpp"
#include "fleet/router.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "obs/slo.hpp"
#include "obs/tsdb.hpp"
#include "serve/engine.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "serve/wire_binary.hpp"

namespace {

using ep::fleet::FleetOptions;
using ep::fleet::FleetRequest;
using ep::fleet::FleetRouter;
using ep::fleet::FleetShardConfig;
using ep::fleet::RouteDecision;
using ep::serve::Device;
using ep::serve::Status;

int gFailures = 0;

void check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++gFailures;
}

double elapsedMsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// A 3-shard fleet behind a real net::Server, wired exactly like
// epserved --shards 3 (tune batches -> router.submitTuneBatch).
struct WiredFleet {
  std::shared_ptr<ep::serve::EpStudyEngine> engine;
  std::unique_ptr<FleetRouter> router;
  std::unique_ptr<ep::serve::NetService> service;
  std::unique_ptr<ep::net::Server> server;

  ~WiredFleet() {
    if (server) server->stop();
    if (service) service->stop();
  }
};

std::unique_ptr<WiredFleet> wireFleet(
    const ep::net::ServerChaosHooks* chaos) {
  auto wf = std::make_unique<WiredFleet>();
  wf->engine = std::make_shared<ep::serve::EpStudyEngine>();
  std::vector<FleetShardConfig> cfgs;
  for (int i = 0; i < 3; ++i) {
    FleetShardConfig c;
    c.id.append("w").append(std::to_string(i));
    c.engine = wf->engine;
    c.broker.threads = 2;
    c.broker.queueCapacity = 128;
    cfgs.push_back(std::move(c));
  }
  wf->router = std::make_unique<FleetRouter>(std::move(cfgs), FleetOptions{});

  ep::serve::NetServiceHooks hooks = ep::fleet::routerHooks(*wf->router);
  hooks.control = [](const ep::serve::wire::WireRequest&) {
    return std::string("{\"status\":\"ok\"}");
  };
  wf->service = std::make_unique<ep::serve::NetService>(std::move(hooks));

  ep::net::ServerOptions so;
  so.chaos = chaos;
  wf->server =
      std::make_unique<ep::net::Server>(so, wf->service->handler());
  std::string error;
  if (!wf->server->start(&error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    return nullptr;
  }
  return wf;
}

std::string tuneFrame(int n) {
  ep::serve::wire_binary::BinaryTuneRequest breq;
  breq.tune.device = Device::P100;
  breq.tune.n = n;
  breq.tune.maxDegradation = 0.11;
  std::string framed;
  ep::net::appendFrame(framed, ep::net::kOpTune,
                       ep::serve::wire_binary::encodeTuneRequest(breq));
  return framed;
}

// One transport-chaos campaign: R requests through a FaultyTransport
// against a fresh wired fleet.  The journal captures every
// deterministic per-request fact; two runs from the same seed must
// produce identical journals and injection tallies.
struct CampaignResult {
  std::string journal;
  ep::chaos::ChaosCounts counts;
  int resolved = 0;
  int errors = 0;
  bool serverUp = false;
};

CampaignResult runCampaign(std::uint64_t seed, int requests) {
  CampaignResult out;
  auto wf = wireFleet(nullptr);
  if (!wf) return out;
  out.serverUp = true;

  ep::chaos::FaultyTransportOptions to;
  to.port = wf->server->port();
  to.binary = true;
  to.maxAttempts = 16;
  to.recvTimeoutMs = 250.0;
  to.chaos = ep::chaos::ChaosOptions::campaign(0.05);
  to.chaos.seed = seed;
  ep::chaos::FaultyTransport transport(to, /*stream=*/1);

  std::ostringstream journal;
  for (int i = 0; i < requests; ++i) {
    const int n = 512 + (i % 24) * 64;
    const auto outcome =
        transport.roundTrip(tuneFrame(n), static_cast<std::uint64_t>(i));
    ++out.resolved;
    journal << i << " n=" << n << " ok=" << outcome.ok
            << " attempts=" << outcome.attempts
            << " faults=" << outcome.faultsInjected;
    bool servedOk = false;
    if (outcome.ok && outcome.opcode == ep::net::kOpTune) {
      std::string error;
      const auto resp = ep::serve::wire_binary::decodeTuneResponse(
          outcome.body, &error);
      if (resp) {
        servedOk = resp->status == Status::Ok;
        journal << " status=" << ep::serve::statusName(resp->status)
                << " stale=" << resp->stale << " hit=" << resp->cacheHit
                << " rec=" << resp->recommended;
      } else {
        journal << " status=undecodable";
      }
    } else if (outcome.ok) {
      // The server answers a corrupted frame with a JSON bad_request.
      journal << " status=proto_error";
    } else {
      journal << " status=transport_failed";
    }
    journal << "\n";
    if (!servedOk) ++out.errors;
  }
  out.journal = journal.str();
  out.counts = transport.counts();
  return out;
}

std::uint64_t gSeed = 0xC4A05EEDULL;

// -- Phase A: transport chaos, bounded errors, bitwise replay --------
void phaseTransportChaos() {
  std::printf("-- phase A: 5%% transport-fault campaign over the wire --\n");
  const int requests = 160;
  const auto run1 = runCampaign(gSeed, requests);
  check(run1.serverUp, "campaign server started");
  if (!run1.serverUp) return;
  check(run1.resolved == requests, "every request resolved (none stuck)");
  check(run1.counts.total() > 0, "faults were injected: " +
                                     run1.counts.summary());
  const double errRate =
      static_cast<double>(run1.errors) / static_cast<double>(requests);
  std::printf("  campaign: %d requests, %d errors (%.1f%%), %llu faults\n",
              requests, run1.errors, 100.0 * errRate,
              static_cast<unsigned long long>(run1.counts.total()));
  check(errRate <= 0.15, "error rate bounded under 5% chaos (<= 15%)");

  const auto run2 = runCampaign(gSeed, requests);
  check(run2.serverUp, "replay server started");
  check(run1.journal == run2.journal,
        "campaign replay is bitwise-identical from the seed");
  check(run1.counts.summary() == run2.counts.summary(),
        "injection tallies identical across replays");

  const auto run3 = runCampaign(gSeed + 1, requests);
  check(run3.serverUp && run3.journal != run1.journal,
        "a different seed produces a different campaign");
}

// -- Phase B: server-side chaos hooks --------------------------------
void phaseServerChaos() {
  std::printf("-- phase B: server-side accept drops + inbound corruption --\n");
  // Server-side faults only, at a rate high enough that any seed
  // injects several; the client transport stays clean and merely
  // replays through the connections the server kills.
  ep::chaos::ChaosOptions co;
  co.enabled = true;
  co.seed = gSeed;
  co.acceptDropRate = 0.1;
  co.inboundCorruptRate = 0.1;
  ep::chaos::NetChaos netChaos(co);
  const auto hooks = netChaos.hooks();
  auto wf = wireFleet(&hooks);
  check(wf != nullptr, "chaotic server started");
  if (!wf) return;

  ep::chaos::FaultyTransportOptions to;
  to.port = wf->server->port();
  to.binary = true;
  to.maxAttempts = 16;
  to.recvTimeoutMs = 250.0;
  ep::chaos::FaultyTransport transport(to, /*stream=*/2);

  int served = 0;
  int errors = 0;
  const int requests = 120;
  for (int i = 0; i < requests; ++i) {
    const auto outcome = transport.roundTrip(
        tuneFrame(512 + (i % 16) * 64), static_cast<std::uint64_t>(i));
    std::string error;
    if (outcome.ok && outcome.opcode == ep::net::kOpTune &&
        ep::serve::wire_binary::decodeTuneResponse(outcome.body, &error)) {
      ++served;
    } else {
      ++errors;
    }
  }
  check(netChaos.counts().total() > 0,
        "server-side faults injected: " + netChaos.counts().summary());
  check(served > requests / 2, "server kept serving through its own chaos");
  check(errors <= requests / 4, "bounded error rate under server chaos");
  check(wf->server->running(), "server still running after the campaign");
}

// -- Phase C: crash -> auto-eject -> stale-serve -> auto-reinstate ---
void phaseSelfHealing() {
  std::printf("-- phase C: shard crash, auto-eject, auto-reinstate --\n");
  auto inner = std::make_shared<ep::serve::EpStudyEngine>();
  // Every shard runs behind its own ChaosEngine sharing one inner
  // engine: tuningHash delegates, so the fleet keeps one cache identity
  // and only the victim's decorator is crashed.
  std::vector<std::shared_ptr<ep::chaos::ChaosEngine>> chaosEngines;
  std::vector<FleetShardConfig> cfgs;
  for (int i = 0; i < 3; ++i) {
    ep::chaos::ChaosEngineOptions ceo;
    ceo.seed = gSeed;
    auto ce = std::make_shared<ep::chaos::ChaosEngine>(inner, ceo);
    chaosEngines.push_back(ce);
    FleetShardConfig c;
    c.id.append("h").append(std::to_string(i));
    c.engine = ce;
    c.broker.threads = 2;
    c.broker.queueCapacity = 128;
    c.broker.breaker.failureThreshold = 2;
    c.broker.breaker.openMs = 60.0;
    cfgs.push_back(std::move(c));
  }
  FleetOptions fo;
  fo.health.enabled = true;
  fo.health.ejectAfterFailures = 2;
  fo.health.reinstateAfterSuccesses = 2;
  FleetRouter router(std::move(cfgs), fo);
  const auto ids = router.shardIds();

  // Warm a key spread so the victim holds cached + replicated results.
  std::vector<int> keys;
  for (int n = 512; n < 512 + 16 * 64; n += 64) keys.push_back(n);
  bool warmOk = true;
  for (int n : keys) {
    FleetRequest r;
    r.device = Device::P100;
    r.n = n;
    r.maxDegradation = 0.11;
    const auto resp = router.tune(r);
    warmOk = warmOk && resp.status == Status::Ok && !resp.stale;
  }
  check(warmOk, "fleet warmed fresh");

  const std::string victim = router.homeShard(Device::P100, keys.front());
  std::size_t victimIdx = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == victim) victimIdx = i;
  }
  std::printf("  crashing engine of %s (no operator kill issued)\n",
              victim.c_str());
  chaosEngines[victimIdx]->crash();

  // Cold keys homed on the victim: their failing studies are the real
  // traffic that trips the shard breaker — the health monitor's
  // failure detector.
  int failing = 0;
  for (int n = 4096; failing < 4 && n < 4096 + 256 * 64; n += 64) {
    if (router.homeShard(Device::P100, n) != victim) continue;
    FleetRequest r;
    r.device = Device::P100;
    r.n = n;
    r.maxDegradation = 0.11;
    (void)router.tune(r);
    ++failing;
  }
  check(failing >= 2, "drove enough failing traffic to trip the breaker");

  int ticksToEject = -1;
  for (int t = 1; t <= 50; ++t) {
    router.healthTick();
    if (router.shardEjected(victim)) {
      ticksToEject = t;
      break;
    }
  }
  check(ticksToEject > 0, "health probes auto-ejected the crashed shard");
  std::printf("  time-to-eject: %d probe ticks\n", ticksToEject);

  // The ejected shard's warm keys must stale-serve from the ring
  // successor exactly as under a manual kill.
  int staleServed = 0;
  bool staleOk = true;
  for (int n : keys) {
    if (router.homeShard(Device::P100, n) != victim) continue;
    FleetRequest r;
    r.device = Device::P100;
    r.n = n;
    r.maxDegradation = 0.11;
    RouteDecision d;
    const auto resp = router.tune(r, &d);
    staleOk = staleOk && resp.status == Status::Ok && resp.stale &&
              d.staleFallback && d.shardId != victim;
    ++staleServed;
  }
  check(staleServed > 0, "victim was home to warm keys");
  check(staleOk, "ejected shard's keys stale-served by the replica");

  // Recover the engine; once the breaker's open window lapses the
  // probe goes through and consecutive successes reinstate the shard.
  chaosEngines[victimIdx]->recover();
  int ticksToReinstate = -1;
  for (int t = 1; t <= 50; ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    router.healthTick();
    if (!router.shardEjected(victim)) {
      ticksToReinstate = t;
      break;
    }
  }
  check(ticksToReinstate > 0,
        "health probes auto-reinstated the recovered shard");
  std::printf("  time-to-reinstate: %d probe ticks\n", ticksToReinstate);

  bool sawEject = false;
  bool sawReinstate = false;
  for (const auto& ev : router.healthEvents()) {
    if (std::strcmp(ev.kind, "shard_ejected") == 0) sawEject = true;
    if (std::strcmp(ev.kind, "shard_reinstated") == 0) sawReinstate = true;
  }
  check(sawEject && sawReinstate,
        "flight recorder holds shard_ejected + shard_reinstated events");
  const auto m = router.metrics();
  check(m.shardsEjected >= 1 && m.shardsReinstated >= 1,
        "fleet_shard_ejected_total / reinstated_total advanced");

  bool freshOk = true;
  for (int n : keys) {
    const auto resp = router.tune([&] {
      FleetRequest r;
      r.device = Device::P100;
      r.n = n;
      r.maxDegradation = 0.11;
      return r;
    }());
    freshOk = freshOk && resp.status == Status::Ok;
  }
  check(freshOk, "all keys served after reinstatement");
  check(router.frontsConsistent(), "cluster fronts consistent after drill");
  router.shutdown();
}

// -- Phase D: 2x overload burst against adaptive admission -----------
void phaseOverload() {
  std::printf("-- phase D: overload burst, adaptive admission --\n");
  auto engine = std::make_shared<ep::serve::EpStudyEngine>();
  ep::serve::BrokerOptions bo;
  bo.threads = 2;
  bo.queueCapacity = 16;
  bo.admission.enabled = true;
  bo.admission.targetLatencyMs = 5.0;
  bo.admission.initialLimit = 4;
  bo.admission.minLimit = 1;
  bo.admission.maxLimit = 8;
  ep::serve::Broker broker(engine, bo);

  // Offered load far above the admission limit, in one batch (as one
  // epoll round hands it over): distinct cold keys so neither the cache
  // nor coalescing absorbs the burst.  One batch is admitted as a whole
  // before any member runs, so the burst meets the limit whether the
  // engine's studies run inline (model-direct) or on the pool.
  const int burst = 64;
  std::vector<std::future<ep::serve::TuneResponse>> futures;
  std::vector<ep::serve::Broker::TuneBatchItem> items;
  futures.reserve(burst);
  items.reserve(burst);
  for (int i = 0; i < burst; ++i) {
    ep::serve::Broker::TuneBatchItem item;
    item.req.device = Device::P100;
    item.req.n = 512 + i * 32;
    item.req.maxDegradation = 0.11;
    auto promise = std::make_shared<std::promise<ep::serve::TuneResponse>>();
    futures.push_back(promise->get_future());
    item.done = [promise](ep::serve::TuneResponse&& resp) {
      promise->set_value(std::move(resp));
    };
    items.push_back(std::move(item));
  }
  broker.submitTuneBatch(std::move(items));
  int ok = 0;
  int overloaded = 0;
  int other = 0;
  int unresolved = 0;
  std::vector<double> okLatency;
  for (auto& f : futures) {
    if (f.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
      ++unresolved;
      continue;
    }
    const auto resp = f.get();
    if (resp.status == Status::Ok) {
      ++ok;
      okLatency.push_back(resp.latency.value() * 1e3);
    } else if (resp.status == Status::Overloaded) {
      ++overloaded;
    } else {
      ++other;
    }
  }
  check(unresolved == 0, "no request stuck under the burst");
  check(ok > 0, "admitted requests completed");
  check(overloaded > 0, "overflow fast-failed Overloaded before queueing");
  const auto m = broker.metrics();
  check(m.rejectedOverload == static_cast<std::uint64_t>(overloaded),
        "epserve_rejected_overloaded_total matches observed fast-fails");
  check(m.inFlightStudies == 0 && m.queueDepth == 0,
        "broker drained clean after the burst");
  if (!okLatency.empty()) {
    std::sort(okLatency.begin(), okLatency.end());
    const double p99 =
        okLatency[okLatency.size() * 99 / 100 >= okLatency.size()
                      ? okLatency.size() - 1
                      : okLatency.size() * 99 / 100];
    std::printf(
        "  burst: %d offered, %d ok, %d overloaded, %d other; admitted "
        "p99 %.3f ms (limit settled at %zu)\n",
        burst, ok, overloaded, other, p99, m.admissionLimit);
  }
  broker.shutdown();
}

// -- Phase E: SLO burn raised by chaos, cleared by recovery ----------
void phaseSloBurn() {
  std::printf("-- phase E: SLO burn raised and cleared --\n");
  constexpr std::int64_t kSec = 1000000000;
  auto inner = std::make_shared<ep::serve::EpStudyEngine>();
  ep::chaos::ChaosEngineOptions ceo;
  ceo.seed = gSeed;
  auto chaosEngine = std::make_shared<ep::chaos::ChaosEngine>(inner, ceo);
  ep::serve::BrokerOptions bo;
  bo.threads = 2;
  ep::serve::Broker broker(chaosEngine, bo);

  // Warm keys: the recovery phase serves them from cache well under
  // the latency threshold.
  std::vector<int> warm;
  for (int n = 512; n < 512 + 8 * 64; n += 64) {
    warm.push_back(n);
    ep::serve::TuneRequest req;
    req.device = Device::P100;
    req.n = n;
    req.maxDegradation = 0.11;
    (void)broker.submitTune(req).get();
  }

  ep::obs::Registry r;
  ep::obs::Histogram& hist = r.histogram(
      "chaos_client_latency_ms",
      "Client-observed tune latency under chaos, retries included (ms)",
      {1.0, 10.0});
  ep::obs::TimeSeriesStore store;
  ep::obs::SloSpec spec;
  spec.name = "chaos-latency";
  spec.family = "chaos_client_latency_ms";
  spec.latencyThresholdMs = 1.0;
  spec.objective = 0.9;
  spec.windows = {{10000, 2000, 5.0}};
  ep::obs::SloEngine slo(&store, {spec});

  ep::chaos::RetryPolicy policy;
  policy.maxRetries = 2;
  policy.baseDelayMs = 1.0;
  policy.maxDelayMs = 8.0;
  policy.seed = gSeed;

  // One client-observed request: retries with deterministic backoff on
  // error, so a request against the crashed engine genuinely costs
  // multiple milliseconds of backoff — the latency the SLO burns on.
  std::uint64_t requestIndex = 0;
  auto drive = [&](int n) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t idx = requestIndex++;
    for (int attempt = 0; attempt <= policy.maxRetries; ++attempt) {
      ep::serve::TuneRequest req;
      req.device = Device::P100;
      req.n = n;
      req.maxDegradation = 0.11;
      if (broker.submitTune(req).get().status == Status::Ok) break;
      if (attempt < policy.maxRetries) {
        const double ms = policy.delayMs(/*stream=*/0, idx, attempt + 1);
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
      }
    }
    hist.observe(elapsedMsSince(t0));
  };

  chaosEngine->crash();
  int raisedAtSec = -1;
  int sec = 0;
  int coldKey = 9000;
  for (; sec < 10; ++sec) {
    for (int i = 0; i < 6; ++i) drive(coldKey += 64);
    store.ingest(r.snapshot(), (sec + 1) * kSec);
    slo.evaluate((sec + 1) * kSec);
    if (raisedAtSec < 0 && slo.status()[0].burning) raisedAtSec = sec + 1;
  }
  check(raisedAtSec > 0, "SLO burn raised while the shard was crashed");

  chaosEngine->recover();
  int clearedAtSec = -1;
  for (; sec < 34; ++sec) {
    for (int i = 0; i < 6; ++i) drive(warm[static_cast<std::size_t>(sec) % warm.size()]);
    store.ingest(r.snapshot(), (sec + 1) * kSec);
    slo.evaluate((sec + 1) * kSec);
    if (raisedAtSec > 0 && clearedAtSec < 0 && !slo.status()[0].burning) {
      clearedAtSec = sec + 1;
    }
  }
  check(clearedAtSec > raisedAtSec, "SLO burn cleared after recovery");
  if (raisedAtSec > 0 && clearedAtSec > 0) {
    std::printf("  burn raised at t=%ds, cleared at t=%ds\n", raisedAtSec,
                clearedAtSec);
  }
  bool sawBurn = false;
  bool sawClear = false;
  for (const auto& ev : slo.events()) {
    if (std::strcmp(ev.kind, "slo_burn") == 0) sawBurn = true;
    if (std::strcmp(ev.kind, "slo_cleared") == 0) sawClear = true;
  }
  check(sawBurn && sawClear, "slo_burn + slo_cleared events recorded");
  broker.shutdown();
}

// -- Phase F: energy-aware routing still dominates round-robin -------
double traceJoules(ep::fleet::PolicyKind policy) {
  auto engine = std::make_shared<ep::serve::EpStudyEngine>();
  std::vector<FleetShardConfig> cfgs;
  for (int i = 0; i < 3; ++i) {
    FleetShardConfig c;
    c.id.append("p").append(std::to_string(i));
    c.engine = engine;
    c.broker.threads = 2;
    c.broker.queueCapacity = 128;
    cfgs.push_back(std::move(c));
  }
  FleetOptions fo;
  fo.policy = policy;
  FleetRouter router(std::move(cfgs), fo);
  // 25 keys over 3 shards: the counts are coprime, so round-robin's
  // rotation cannot accidentally re-land a repeated key on the shard
  // that already cached it.
  for (int pass = 0; pass < 3; ++pass) {
    for (int i = 0; i < 25; ++i) {
      FleetRequest r;
      r.device = Device::P100;
      r.n = 512 + i * 64;
      r.maxDegradation = 0.11;
      (void)router.tune(r);
    }
  }
  const double joules = router.metrics().clusterJoules;
  router.shutdown();
  return joules;
}

void phaseEnergyDominance() {
  std::printf("-- phase F: energy-aware vs round-robin under repeats --\n");
  const double ea = traceJoules(ep::fleet::PolicyKind::EnergyAware);
  const double rr = traceJoules(ep::fleet::PolicyKind::RoundRobin);
  std::printf("  cluster joules: energy-aware %.3f, round-robin %.3f\n", ea,
              rr);
  check(ea < rr, "energy-aware routing spends fewer cluster joules");
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[++i] : "";
    char* end = nullptr;
    errno = 0;
    gSeed = std::strtoull(v, &end, 0);  // base 0: hex seeds too
    if (a != "--seed" || *v == '\0' || *end != '\0' || errno != 0) {
      std::fprintf(stderr, "usage: chaoscheck [--seed S]\n");
      return 2;
    }
  }
  std::printf("== chaoscheck: seed 0x%llx ==\n",
              static_cast<unsigned long long>(gSeed));
  phaseTransportChaos();
  phaseServerChaos();
  phaseSelfHealing();
  phaseOverload();
  phaseSloBurn();
  phaseEnergyDominance();
  std::printf("== chaoscheck: %s ==\n",
              gFailures == 0 ? "all checks passed" : "FAILURES");
  return gFailures == 0 ? 0 : 1;
}
