// epserved — the epserve TCP daemon: one Broker, or with --shards N > 1
// a fleet of N broker shards behind one energy-aware FleetRouter.
//
// Mounts net::Server (edge-triggered epoll event loop, SO_REUSEPORT
// sharding, cross-connection request batching) over the backend.  Two
// wire framings share the port, picked per connection by the first
// byte:
//   * line-delimited JSON (see serve/wire.hpp),
//   * EPB1 binary framing (see net/frame.hpp) carrying either compact
//     binary tune frames or the full JSON vocabulary tunneled.
// Every tune request drained in one epoll round — across all
// connections — is admitted through ONE submitTuneBatch call: the
// broker's, or the router's, which routes lock-free and hands each
// shard its members in one Broker::submitTuneBatch.
//
// Usage:
//   epserved [--port P] [--threads T] [--event-threads E] [--queue Q]
//            [--cache C] [--deadline-ms D] [--meter] [--seed S]
//            [--tracing] [--watchdog] [--scrape-ms MS]
//            [--slo SPEC]... [--slo-window L:S:B]...
//            [--shards N]
//     N = 1: [--watchdog-watts W] [--fault-offset W] [--fault-offset-rate R]
//     N > 1: [--policy rr|queue|energy] [--vnodes V] [--health-probe-ms MS]
//
// --port 0 picks an ephemeral port; the chosen one is printed either
// way so scripts (and epserve_client) can parse it.  --threads counts
// broker workers, per shard when N > 1 (0 = one per hardware thread).
// SIGINT/SIGTERM drain in-flight work before exiting and print the
// final metrics (the fleet snapshot when N > 1).  A flag that would do
// nothing in the chosen mode is a usage error.
//
// Observability: {"op":"metrics","format":"prometheus"} answers with
// the process registry exposition (including the ep_net_* transport
// family), preceded at N = 1 by the broker's registry; with --tracing
// enabled, {"op":"trace"} answers with the Chrome trace-event JSON
// recorded so far (load it in Perfetto).  Requests carrying "trace_id"
// run under that trace (and echo it); "report":true adds the
// energy-attribution ledger.
//
// --watchdog arms the power-anomaly watchdog (one per shard when
// N > 1); {"op":"events"} drains its flight recorder and tools/epwatch
// renders it.  At N = 1 the watchdog also judges every measurement
// window (pair with --meter for real windows); --fault-offset injects
// the paper's Fig 6 constant component (default rate 1.0 when only
// the wattage is given) — the canonical demo is
// --meter --watchdog --fault-offset 58.
//
// A background scraper feeds the in-process tsdb from the backend +
// process registries every --scrape-ms (0 disables); {"op":"tsdb"}
// runs range/window queries over it.  --slo declares latency/energy
// SLOs ("latency:<ms>:<objective>" / "energy:<joulesPerReq>"),
// evaluated at scrape cadence with multi-window burn-rate alerting
// ({"op":"slo"}; burn transitions also land in {"op":"events"}).
// --slo-window L:S:B (ms:ms:burn) overrides the default window pairs.
//
// Fleet mode (N > 1) adds to the vocabulary:
//   {"op":"tune","device":"auto",...}   — the router places the
//     workload on the cheaper device by its EWMA cold-study price
//     table (binary tune frames carry the same flag);
//   {"op":"fleet"}                      — cluster snapshot: per-shard
//     gauges, cluster energy, both cluster Pareto front sizes and
//     frontsConsistent (streaming fronts vs batch recompute);
//   {"op":"fleet","action":"kill|revive|remove|add","shard":"s1"}
//                                       — drill and ring operations;
//   {"op":"metrics","scope":"cluster"}  — federated Prometheus text:
//     per-shard broker registries merged (counters summed, gauges
//     labeled {shard="sN"}, histogram buckets added);
//   {"op":"profile","action":"snapshot","scope":"cluster"} — shard
//     profiles federated under shard/<id> roots.
// The shards are in-process broker replicas sharing one deterministic
// engine (same seed => same tuning hash, so a replica resurrected from
// a peer's stale store answers for the same cache identity).  Events
// carry a "shard" tag: the shard id for watchdog events, "cluster" for
// SLO burns, and "fleet" for the eject/reinstate transitions of the
// --health-probe-ms self-healing monitor.  N = 1 keeps the bare broker
// rather than a one-shard fleet: the router logs every executed study
// for its front check, and answers {"op":"metrics"} with its snapshot.
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "core/watchdog.hpp"
#include "fleet/router.hpp"
#include "net/server.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "obs/tsdb.hpp"
#include "power/observer.hpp"
#include "serve/broker.hpp"
#include "serve/engine.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"

namespace {

namespace wire = ep::serve::wire;

// Self-pipe: the signal handler's only async-signal-safe job is one
// write; the main thread parks on the read end.
int gStopPipe[2] = {-1, -1};

void handleStopSignal(int) {
  const char byte = 1;
  [[maybe_unused]] ssize_t rc = write(gStopPipe[1], &byte, 1);
}

constexpr char kUsage[] =
    "usage: epserved [--port P] [--threads T] [--event-threads E]"
    " [--queue Q] [--cache C] [--deadline-ms D] [--meter] [--seed S]"
    " [--tracing] [--watchdog] [--scrape-ms MS] [--slo SPEC]..."
    " [--slo-window L:S:B]... [--shards N]\n"
    "  N = 1 only: [--watchdog-watts W] [--fault-offset W]"
    " [--fault-offset-rate R]\n"
    "  N > 1 only: [--policy rr|queue|energy] [--vnodes V]"
    " [--health-probe-ms MS]\n";

struct Args {
  std::uint16_t port = 7070;
  std::size_t threads = 0;  // broker workers (per shard); 0 = hardware
  std::size_t eventThreads = 1;
  std::size_t queue = 64;
  std::size_t cache = 128;
  double deadlineMs = 0.0;
  bool meter = false;
  bool tracing = false;
  std::uint64_t seed = 0xEB5EEDULL;
  bool watchdog = false;
  std::int64_t scrapeMs = 250;  // 0 disables the background scraper
  std::vector<std::string> sloSpecs;
  std::vector<ep::obs::BurnWindow> sloWindows;
  std::size_t shards = 1;
  // N = 1 only: the one watchdog is the process MeasureObserver, and
  // the offset rides the one engine's meter.
  double watchdogWatts = 25.0;
  double faultOffset = 0.0;
  double faultOffsetRate = 1.0;
  // N > 1 only.  healthProbeMs is the cadence of the self-healing
  // monitor (fleet/router.hpp FleetHealthOptions); 0 disables health
  // entirely, keeping the fleet bitwise-identical to a pre-epchaos one.
  ep::fleet::PolicyKind policy = ep::fleet::PolicyKind::EnergyAware;
  std::size_t vnodes = 64;
  double healthProbeMs = 0.0;
};

bool parseBurnWindow(const char* text, ep::obs::BurnWindow* out) {
  long long longMs = 0;
  long long shortMs = 0;
  double burn = 0.0;
  if (text == nullptr ||
      std::sscanf(text, "%lld:%lld:%lf", &longMs, &shortMs, &burn) != 3 ||
      longMs <= 0 || shortMs <= 0 || shortMs > longMs || !(burn > 0.0)) {
    return false;
  }
  out->longMs = longMs;
  out->shortMs = shortMs;
  out->burnThreshold = burn;
  return true;
}

bool parseArgs(int argc, char** argv, Args* out) {
  using ep::cli::parseNumber;
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr std::size_t kMaxThreads = 4096;
  constexpr std::size_t kMaxCount = std::size_t{1} << 30;
  bool fleetOnly = false;   // --policy, --vnodes, --health-probe-ms
  bool singleOnly = false;  // --watchdog-watts, --fault-offset[-rate]
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--meter") {
      out->meter = true;
      continue;
    }
    if (a == "--tracing") {
      out->tracing = true;
      continue;
    }
    if (a == "--watchdog") {
      out->watchdog = true;
      continue;
    }
    // Every other flag takes a value.
    const char* v = ++i < argc ? argv[i] : nullptr;
    bool ok = v != nullptr;
    if (a == "--port") {
      ok = parseNumber<std::uint16_t>(v, 0, 65535, &out->port);
    } else if (a == "--threads") {
      ok = parseNumber<std::size_t>(v, 0, kMaxThreads, &out->threads);
    } else if (a == "--event-threads") {
      ok = parseNumber<std::size_t>(v, 1, kMaxThreads, &out->eventThreads);
    } else if (a == "--queue") {
      ok = parseNumber<std::size_t>(v, 1, kMaxCount, &out->queue);
    } else if (a == "--cache") {
      ok = parseNumber<std::size_t>(v, 0, kMaxCount, &out->cache);
    } else if (a == "--deadline-ms") {
      ok = parseNumber(v, 0.0, kMax, &out->deadlineMs);
    } else if (a == "--seed") {
      ok = parseNumber<std::uint64_t>(
          v, 0, std::numeric_limits<std::uint64_t>::max(), &out->seed);
    } else if (a == "--scrape-ms") {
      ok = parseNumber<std::int64_t>(v, 0, std::int64_t{1} << 40,
                                     &out->scrapeMs);
    } else if (a == "--slo") {
      if (ok) out->sloSpecs.emplace_back(v);
    } else if (a == "--slo-window") {
      ep::obs::BurnWindow w;
      ok = parseBurnWindow(v, &w);
      if (ok) out->sloWindows.push_back(w);
    } else if (a == "--shards") {
      ok = parseNumber<std::size_t>(v, 1, 1024, &out->shards);
    } else if (a == "--watchdog-watts") {
      ok = parseNumber(v, 0.0, kMax, &out->watchdogWatts);
      singleOnly = true;
    } else if (a == "--fault-offset") {
      ok = parseNumber(v, 0.0, kMax, &out->faultOffset);
      singleOnly = true;
    } else if (a == "--fault-offset-rate") {
      ok = parseNumber(v, 0.0, 1.0, &out->faultOffsetRate);
      singleOnly = true;
    } else if (a == "--policy") {
      const auto policy = ep::fleet::parsePolicy(v != nullptr ? v : "");
      ok = policy.has_value();
      if (ok) out->policy = *policy;
      fleetOnly = true;
    } else if (a == "--vnodes") {
      ok = parseNumber<std::size_t>(v, 1, 1 << 16, &out->vnodes);
      fleetOnly = true;
    } else if (a == "--health-probe-ms") {
      ok = parseNumber(v, 0.0, kMax, &out->healthProbeMs);
      fleetOnly = true;
    } else {
      return false;
    }
    if (!ok) return false;
  }
  return out->shards > 1 ? !singleOnly : !fleetOnly;
}

std::int64_t steadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// What the control ops read: exactly one backend (broker at N = 1,
// router at N > 1), the flight recorders {"op":"events"} drains and
// the observability plane.
struct ControlPlane {
  ep::serve::Broker* broker = nullptr;
  ep::fleet::FleetRouter* router = nullptr;
  // Each watchdog with the tag its event lines carry: "" (untagged) for
  // the single broker's, the shard id in a fleet.
  std::vector<std::pair<std::string,
                        std::unique_ptr<ep::core::PowerAnomalyWatchdog>>>
      watchdogs;
  const ep::obs::TimeSeriesStore* tsdb = nullptr;
  ep::obs::SloEngine* slo = nullptr;
  bool healthArmed = false;
};

std::string handleFleetOp(ep::fleet::FleetRouter& router,
                          const wire::WireRequest& req) {
  if (req.fleetAction == "snapshot") return router.renderWireSnapshot();
  bool ok = false;
  if (req.fleetAction == "kill") {
    ok = router.killShard(req.fleetShard);
  } else if (req.fleetAction == "revive") {
    ok = router.reviveShard(req.fleetShard);
  } else if (req.fleetAction == "remove") {
    ok = router.removeShardFromRing(req.fleetShard);
  } else if (req.fleetAction == "add") {
    ok = router.addShardToRing(req.fleetShard);
  }
  if (!ok) return wire::encodeError("unknown shard \"" + req.fleetShard + "\"");
  wire::ObjectWriter w;
  w.add("status", "ok")
      .add("action", req.fleetAction)
      .add("shard", req.fleetShard);
  return w.str();
}

// The non-tune, non-study op switch (runs inline on event threads; all
// of these are string renders).
std::string handleControlOp(const wire::WireRequest& req,
                            const ControlPlane& plane) {
  using wire::WireRequest;
  static const std::string kClusterNeedsFleet =
      "cluster scope needs a fleet (epserved --shards N, N > 1)";
  switch (req.op) {
    case WireRequest::Op::Metrics: {
      const auto fmt = req.metricsFormat == wire::MetricsFormat::OpenMetrics
                           ? ep::obs::ExpositionFormat::OpenMetrics100
                           : ep::obs::ExpositionFormat::Prometheus004;
      if (req.clusterScope) {
        if (plane.router == nullptr) {
          return wire::encodeError(kClusterNeedsFleet);
        }
        return wire::encodeTextBody(plane.router->renderClusterMetrics(fmt));
      }
      if (req.metricsFormat == wire::MetricsFormat::Json) {
        // A fleet's flat-JSON surface is its cluster snapshot.
        return plane.router != nullptr
                   ? plane.router->renderWireSnapshot()
                   : wire::encodeMetrics(plane.broker->metrics());
      }
      // The process-wide registry (thread pool, cusim, study phases,
      // epnet), preceded at N = 1 by the broker registry — disjoint
      // names.  One combined snapshot so the OpenMetrics form carries a
      // single trailing # EOF.
      ep::obs::RegistrySnapshot snap;
      if (plane.broker != nullptr) snap = plane.broker->snapshotRegistry();
      snap.append(ep::obs::Registry::global().snapshot());
      return wire::encodeTextBody(ep::obs::renderExposition(snap, fmt));
    }
    case WireRequest::Op::Trace:
      return wire::encodeTextBody(
          ep::obs::Tracer::global().exportChromeTrace());
    case WireRequest::Op::Events: {
      if (plane.watchdogs.empty() && plane.slo == nullptr &&
          !plane.healthArmed) {
        return wire::encodeError(
            plane.router == nullptr
                ? "no flight recorders armed (start epserved with"
                  " --watchdog and/or --slo)"
                : "no flight recorders armed (start epserved --shards N"
                  " with --watchdog, --slo and/or --health-probe-ms)");
      }
      // One drain over every armed recorder: watchdog power anomalies,
      // SLO burn transitions and shard eject/reinstate transitions
      // share the wire format (epwatch renders them all).
      std::string body;
      std::uint64_t alerts = 0;
      std::uint64_t recorded = 0;
      std::uint64_t dropped = 0;
      for (const auto& [tag, wd] : plane.watchdogs) {
        for (const ep::obs::FlightEvent& e : wd->events(req.eventsSince)) {
          body += ep::obs::encodeFlightEventLine(e, tag);
          body += '\n';
        }
        alerts += wd->activeAlerts();
        recorded += wd->recorder().recorded();
        dropped += wd->recorder().dropped();
      }
      if (plane.slo != nullptr) {
        const std::string tag = plane.router != nullptr ? "cluster" : "";
        for (const ep::obs::FlightEvent& e :
             plane.slo->events(req.eventsSince)) {
          body += ep::obs::encodeFlightEventLine(e, tag);
          body += '\n';
        }
        alerts += plane.slo->activeAlerts();
        recorded += plane.slo->recorder().recorded();
        dropped += plane.slo->recorder().dropped();
      }
      if (plane.healthArmed) {
        for (const ep::obs::FlightEvent& e :
             plane.router->healthEvents(req.eventsSince)) {
          body += ep::obs::encodeFlightEventLine(e, "fleet");
          body += '\n';
          ++recorded;
        }
      }
      return wire::encodeEvents(alerts, recorded, dropped, body);
    }
    case WireRequest::Op::Tsdb:
      return wire::encodeTsdbResponse(*plane.tsdb, req, steadyNowNs());
    case WireRequest::Op::Slo:
      if (plane.slo == nullptr) {
        return wire::encodeError(
            "no SLOs declared (start epserved with --slo)");
      }
      return wire::encodeSloStatus(plane.slo->status());
    case WireRequest::Op::Fleet:
      if (plane.router == nullptr) {
        return wire::encodeError(
            "fleet ops need a fleet (epserved --shards N, N > 1)");
      }
      return handleFleetOp(*plane.router, req);
    case WireRequest::Op::Profile: {
      ep::obs::Profiler& prof = ep::obs::Profiler::global();
      if (req.profileAction == "start") {
        ep::obs::ProfilerOptions popts;
        popts.samplePeriodUs = req.profilePeriodUs;
        popts.cpuSampling = req.profileCpuSampling;
        const bool started = prof.start(popts);
        return wire::encodeProfileStatus(prof.running(),
                                         prof.registeredThreads(),
                                         started ? "start" : "already_running");
      }
      if (req.profileAction == "stop") {
        prof.stop();
        return wire::encodeProfileStatus(prof.running(),
                                         prof.registeredThreads(), "stop");
      }
      if (req.profileAction == "clear") {
        prof.clear();
        return wire::encodeProfileStatus(prof.running(),
                                         prof.registeredThreads(), "clear");
      }
      if (req.profileAction == "snapshot") {
        const ep::obs::ProfileKind kind = req.profileKind == "energy"
                                              ? ep::obs::ProfileKind::Energy
                                              : ep::obs::ProfileKind::Cpu;
        if (!req.clusterScope) {
          return wire::encodeProfileSnapshot(prof.snapshot(kind), req);
        }
        // Cluster scope federates shard profiles (stacks partitioned by
        // the shard/<id> roots, merged back like clusterSnapshot()).
        if (plane.router == nullptr) {
          return wire::encodeError(kClusterNeedsFleet);
        }
        return wire::encodeProfileSnapshot(plane.router->clusterProfile(kind),
                                           req);
      }
      return wire::encodeProfileStatus(prof.running(),
                                       prof.registeredThreads(), "status");
    }
    case WireRequest::Op::Tune:
    case WireRequest::Op::Study:
      break;  // handled by NetService, never routed here
  }
  return wire::encodeError("unsupported op");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, &args)) {
    std::cerr << kUsage;
    return 2;
  }
  std::vector<ep::obs::SloSpec> sloSpecs;
  for (const std::string& text : args.sloSpecs) {
    std::string sloError;
    const auto spec = ep::obs::parseSloSpec(text, &sloError);
    if (!spec) {
      std::cerr << "epserved: " << sloError << "\n";
      return 2;
    }
    sloSpecs.push_back(*spec);
  }
  if (args.tracing) ep::obs::Tracer::global().setEnabled(true);
  const bool fleet = args.shards > 1;

  ep::serve::EpStudyEngineOptions engineOpts;
  engineOpts.useMeter = args.meter;
  engineOpts.seed = args.seed;
  if (args.faultOffset > 0.0) {
    // The Fig 6 constant component rides on the meter; without the
    // wall-meter protocol there is nothing to offset.
    engineOpts.useMeter = true;
    engineOpts.faults.enabled = true;
    engineOpts.faults.offsetWatts = args.faultOffset;
    engineOpts.faults.offsetRate = args.faultOffsetRate;
  }
  // One deterministic engine, shared by every shard of a fleet: each
  // computes the same result for a key, which is what makes stale
  // replicas equivalent.
  auto engine = std::make_shared<ep::serve::EpStudyEngine>(engineOpts);

  // The plane owns the watchdogs and is declared before the backend,
  // so they outlive it: brokers feed them request outcomes, and at
  // N = 1 measuring threads feed the one watchdog its windows.
  ControlPlane plane;
  ep::core::WatchdogOptions wdOpts;
  wdOpts.constantComponentWatts = args.watchdogWatts;
  const auto armWatchdog = [&plane, &wdOpts](std::string tag) {
    plane.watchdogs.emplace_back(
        std::move(tag),
        std::make_unique<ep::core::PowerAnomalyWatchdog>(wdOpts));
    return plane.watchdogs.back().second.get();
  };
  ep::serve::BrokerOptions brokerOpts;
  brokerOpts.threads = args.threads;
  brokerOpts.queueCapacity = args.queue;
  brokerOpts.cacheCapacity = args.cache;
  brokerOpts.defaultDeadlineMs = args.deadlineMs;
  std::unique_ptr<ep::serve::Broker> broker;
  std::unique_ptr<ep::fleet::FleetRouter> router;
  if (!fleet) {
    if (args.watchdog) {
      brokerOpts.watchdog = armWatchdog("");
      ep::power::setMeasureObserver(brokerOpts.watchdog);
    }
    broker = std::make_unique<ep::serve::Broker>(engine, brokerOpts);
    plane.broker = broker.get();
  } else {
    std::vector<ep::fleet::FleetShardConfig> shards;
    shards.reserve(args.shards);
    for (std::size_t i = 0; i < args.shards; ++i) {
      char id[24];
      std::snprintf(id, sizeof id, "s%zu", i);
      ep::fleet::FleetShardConfig cfg;
      cfg.id = id;
      cfg.engine = engine;
      cfg.broker = brokerOpts;
      if (args.watchdog) cfg.broker.watchdog = armWatchdog(cfg.id);
      shards.push_back(std::move(cfg));
    }
    ep::fleet::FleetOptions fleetOpts;
    fleetOpts.policy = args.policy;
    fleetOpts.virtualNodes = args.vnodes;
    plane.healthArmed = args.healthProbeMs > 0.0;
    if (plane.healthArmed) {
      fleetOpts.health.enabled = true;
      fleetOpts.health.probeIntervalMs = args.healthProbeMs;
    }
    router = std::make_unique<ep::fleet::FleetRouter>(std::move(shards),
                                                      fleetOpts);
    if (plane.healthArmed) router->startHealthMonitor();
    plane.router = router.get();
  }

  // Observability plane: the tsdb is fed by a background scraper over
  // the backend (broker, or federated cluster) + process registries;
  // the SLO engine (when any --slo was declared) evaluates on every
  // scrape.  Declared after the backend so the scraper stops before
  // the backend it snapshots is torn down.
  ep::obs::TimeSeriesStore tsdb;
  std::unique_ptr<ep::obs::SloEngine> slo;
  if (!sloSpecs.empty()) {
    ep::obs::SloEngine::Options sloOpts;
    if (!args.sloWindows.empty()) sloOpts.defaultWindows = args.sloWindows;
    slo = std::make_unique<ep::obs::SloEngine>(&tsdb, sloSpecs, sloOpts);
  }
  plane.tsdb = &tsdb;
  plane.slo = slo.get();
  ep::obs::Scraper::Options scrapeOpts;
  scrapeOpts.intervalMs = args.scrapeMs > 0 ? args.scrapeMs : 250;
  if (slo != nullptr) {
    scrapeOpts.afterScrape = [&slo](std::int64_t nowNs) {
      slo->evaluate(nowNs);
    };
  }
  ep::obs::Scraper scraper(
      &tsdb,
      [&plane] {
        ep::obs::RegistrySnapshot snap =
            plane.broker != nullptr ? plane.broker->snapshotRegistry()
                                    : plane.router->clusterSnapshot();
        snap.append(ep::obs::Registry::global().snapshot());
        return snap;
      },
      scrapeOpts);
  if (args.scrapeMs > 0) scraper.start();

  // Frame batches -> backend; the control ops render here.
  ep::serve::NetServiceHooks hooks = fleet ? ep::fleet::routerHooks(*router)
                                           : ep::serve::brokerHooks(*broker);
  hooks.control = [&plane](const wire::WireRequest& req) {
    return handleControlOp(req, plane);
  };
  ep::serve::NetService service(std::move(hooks));

  // epprof: the main thread participates in continuous profiles too
  // (it mostly sleeps, so per-thread CPU timers make it nearly free).
  ep::obs::ProfileThreadLabel profileRoot(fleet ? "fleet/main" : "serve/main");
  ep::obs::Profiler::global().registerCurrentThread();

  ep::net::ServerOptions netOpts;
  netOpts.port = args.port;
  netOpts.eventThreads = args.eventThreads;
  // Keep the ep_net_* transport family on the process registry the
  // {"op":"metrics"} handler renders (servers default to a private
  // per-instance registry now).
  netOpts.registry = &ep::obs::Registry::global();
  ep::net::Server server(netOpts, service.handler());
  std::string netError;
  if (!server.start(&netError)) {
    std::cerr << "epserved: " << netError << "\n";
    return 1;
  }

  std::cout << "epserved listening on 127.0.0.1:" << server.port() << " (";
  if (fleet) {
    std::cout << "shards=" << args.shards << " ";
  }
  std::cout << "threads=" << (args.threads == 0
                                  ? std::thread::hardware_concurrency()
                                  : args.threads)
            << " event-threads=" << args.eventThreads
            << " queue=" << args.queue << " cache=" << args.cache;
  if (fleet) {
    std::cout << " policy=" << ep::fleet::policyName(args.policy)
              << " vnodes=" << args.vnodes;
  }
  std::cout << " meter=" << (engineOpts.useMeter ? "on" : "off")
            << " watchdog=" << (args.watchdog ? "on" : "off")
            << " scrape-ms=" << (args.scrapeMs > 0 ? args.scrapeMs : 0);
  if (fleet) std::cout << " health-probe-ms=" << args.healthProbeMs;
  std::cout << " slos=" << sloSpecs.size();
  if (engineOpts.faults.enabled) {
    std::cout << " fault-offset=" << std::to_string(args.faultOffset);
  }
  std::cout << ")" << std::endl;

  if (pipe(gStopPipe) != 0) {
    std::perror("pipe");
    return 1;
  }
  std::signal(SIGINT, handleStopSignal);
  std::signal(SIGTERM, handleStopSignal);
  char byte = 0;
  while (read(gStopPipe[0], &byte, 1) < 0 && errno == EINTR) {
  }

  std::cout << "epserved: draining..." << std::endl;
  scraper.stop();
  // Order matters: stop the transport first (drops unanswered frames),
  // then the slow-op pool, THEN drain the backend — its late
  // done-callbacks hit a stopped but still-alive server and are
  // ignored.
  server.stop();
  service.stop();
  if (fleet) {
    router->shutdown();
    std::cout << router->renderWireSnapshot() << std::endl;
  } else {
    broker->shutdown();
    ep::power::setMeasureObserver(nullptr);
    std::cout << ep::serve::formatMetrics(broker->metrics());
  }
  return 0;
}
