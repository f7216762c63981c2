// Serving-path benchmark: requests/sec through the epserve broker —
// in-process, then over real loopback TCP through the net::Server
// event loop in all three wire modes (JSON round-trip, JSON pipelined,
// EPB1 binary pipelined) at 1/4/16/64 connections.
//
// The interesting in-process ratio is cold vs hit: a cold TuneRequest
// pays the full configuration-space study (every launchable (BS, G, R)
// through the GPU model), while a hit replays the cached front through
// the budget-specific tuner.  The acceptance bar is hit latency at
// least 10x better than cold.
//
// The TCP section is the PR 8 acceptance record: binary pipelined
// throughput must be >= 3x the thread-per-connection baseline
// (44.7k req/s); every row lands in BENCH_serve.json.
//
// The chaos-off overhead section is the PR 9 acceptance record: with
// admission disabled the broker must run the pre-epchaos hot path at
// full speed, and even an enabled-but-never-shedding admission gate
// must cost <= 10% on warm hits.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "serve/broker.hpp"
#include "serve/engine.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "serve/wire_binary.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using ep::serve::Broker;
using ep::serve::BrokerOptions;
using ep::serve::Device;
using ep::serve::TuneRequest;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

TuneRequest req(Device d, int n) {
  TuneRequest r;
  r.device = d;
  r.n = n;
  r.maxDegradation = 0.11;
  return r;
}

struct LatencySplit {
  double coldMs = 0.0;  // mean over cold keys
  double hitMs = 0.0;   // mean over cache-hit repeats
};

LatencySplit measureLatencies(const std::vector<int>& sizes,
                              std::size_t threads) {
  auto engine = std::make_shared<ep::serve::EpStudyEngine>();
  BrokerOptions opts;
  opts.threads = threads;
  opts.queueCapacity = 1024;
  Broker broker(engine, opts);

  LatencySplit out;
  for (int n : sizes) {
    const auto t0 = Clock::now();
    const auto resp = broker.tune(req(Device::P100, n));
    if (resp.status != ep::serve::Status::Ok) {
      std::fprintf(stderr, "cold tune failed: %s\n", resp.error.c_str());
      continue;
    }
    out.coldMs += msSince(t0);
  }
  out.coldMs /= static_cast<double>(sizes.size());

  constexpr int kHitRepeats = 200;
  const auto t0 = Clock::now();
  for (int i = 0; i < kHitRepeats; ++i) {
    (void)broker.tune(req(Device::P100, sizes[static_cast<std::size_t>(i) %
                                              sizes.size()]));
  }
  out.hitMs = msSince(t0) / kHitRepeats;
  return out;
}

double measureThroughput(const std::vector<int>& sizes, std::size_t threads,
                         int requests, bool admission = false) {
  auto engine = std::make_shared<ep::serve::EpStudyEngine>();
  BrokerOptions opts;
  opts.threads = threads;
  opts.queueCapacity = static_cast<std::size_t>(requests) + 16;
  if (admission) {
    // Generous AIMD limit: the point is to price the admission branch
    // itself, not to shed load.
    opts.admission.enabled = true;
    opts.admission.initialLimit = 1 << 16;
    opts.admission.maxLimit = 1 << 16;
    opts.admission.targetLatencyMs = 1e9;
  }
  Broker broker(engine, opts);

  // Warm the cache so the measured mix is the steady serving state
  // (hits + coalescing), not a cold-start artifact.
  for (int n : sizes) (void)broker.tune(req(Device::P100, n));

  std::vector<std::future<ep::serve::TuneResponse>> futures;
  futures.reserve(static_cast<std::size_t>(requests));
  const auto t0 = Clock::now();
  for (int i = 0; i < requests; ++i) {
    futures.push_back(broker.submitTune(
        req(Device::P100, sizes[static_cast<std::size_t>(i) % sizes.size()])));
  }
  for (auto& f : futures) (void)f.get();
  const double s = msSince(t0) / 1e3;
  return static_cast<double>(requests) / s;
}

// ---------------------------------------------------------------------
// TCP section: the same broker mounted on the net::Server event loop,
// driven by loopback client threads (one net::Client connection each,
// the `epctl load` sliding window with batched writes).

struct TcpWorkerOut {
  std::vector<double> latenciesMs;
  int ok = 0;
  int errors = 0;
};

void runTcpWorker(std::uint16_t port, int requests,
                  const std::vector<int>& sizes, bool binary, int pipeline,
                  TcpWorkerOut* out) {
  ep::net::Client conn;
  if (!conn.open("127.0.0.1", port, {.binary = binary})) {
    out->errors = requests;
    return;
  }
  out->latenciesMs.reserve(static_cast<std::size_t>(requests));

  std::string outBuf;
  std::string payload;
  std::deque<Clock::time_point> starts;
  int queued = 0;
  int received = 0;

  ep::serve::wire_binary::BinaryTuneRequest breq;
  breq.tune.maxDegradation = 0.11;

  while (received < requests) {
    outBuf.clear();
    while (queued < requests && queued - received < pipeline) {
      const int n = sizes[static_cast<std::size_t>(queued) % sizes.size()];
      starts.push_back(Clock::now());
      if (binary) {
        breq.tune.n = n;
        ep::net::appendFrame(outBuf, ep::net::kOpTune,
                             ep::serve::wire_binary::encodeTuneRequest(breq));
      } else {
        ep::serve::wire::ObjectWriter w;
        w.add("op", "tune").add("device", "p100").add("n", n).add(
            "maxDegradation", 0.11);
        outBuf += w.str();
        outBuf += '\n';
      }
      ++queued;
    }
    // Send the window, read one response, then drain every response
    // already buffered before refilling.
    if (!conn.send(outBuf) || !conn.read(&payload)) {
      out->errors += requests - received;
      return;
    }
    do {
      const double ms = std::chrono::duration<double, std::milli>(
                            Clock::now() - starts.front())
                            .count();
      starts.pop_front();
      bool ok = false;
      if (binary) {
        std::string err;
        const auto resp =
            ep::serve::wire_binary::decodeTuneResponse(payload, &err);
        ok = resp && resp->status == ep::serve::Status::Ok;
      } else {
        // Cheap status check: every OK tune response leads with it.
        ok = payload.rfind("{\"status\":\"ok\"", 0) == 0;
      }
      if (ok) {
        ++out->ok;
        out->latenciesMs.push_back(ms);
      } else {
        ++out->errors;
      }
      ++received;
    } while (received < queued && conn.read(&payload, /*wait=*/false));
  }
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(p * static_cast<double>(v.size() - 1))];
}

struct TcpResult {
  double rps = 0.0;
  double p50Ms = 0.0;
  double p99Ms = 0.0;
  int ok = 0;
  int errors = 0;
};

TcpResult measureTcp(std::uint16_t port, int connections, int totalRequests,
                     const std::vector<int>& sizes, bool binary,
                     int pipeline) {
  std::vector<TcpWorkerOut> outs(static_cast<std::size_t>(connections));
  std::vector<std::thread> workers;
  const int perConn = totalRequests / connections;
  const auto t0 = Clock::now();
  for (int c = 0; c < connections; ++c) {
    workers.emplace_back(runTcpWorker, port, perConn, std::cref(sizes), binary,
                         pipeline, &outs[static_cast<std::size_t>(c)]);
  }
  for (auto& t : workers) t.join();
  const double s = msSince(t0) / 1e3;

  TcpResult r;
  std::vector<double> all;
  for (auto& o : outs) {
    r.ok += o.ok;
    r.errors += o.errors;
    all.insert(all.end(), o.latenciesMs.begin(), o.latenciesMs.end());
  }
  r.rps = s > 0.0 ? static_cast<double>(r.ok + r.errors) / s : 0.0;
  r.p50Ms = percentile(all, 0.50);
  r.p99Ms = percentile(all, 0.99);
  return r;
}

}  // namespace

int main() {
  const std::vector<int> sizes = {4096, 5120, 6144, 7168, 8192, 9216,
                                  10240, 12288};
  constexpr int kRequests = 20000;

  std::printf("== epserve broker throughput ==\n");
  std::printf("workloads: %zu P100 sizes, budget 11%%, cache warm\n\n",
              sizes.size());

  const LatencySplit split = measureLatencies(sizes, 4);
  std::printf("latency (4 worker threads):\n");
  std::printf("  cold study : %10.3f ms/request\n", split.coldMs);
  std::printf("  cache hit  : %10.3f ms/request\n", split.hitMs);
  const double ratio = split.hitMs > 0.0 ? split.coldMs / split.hitMs : 0.0;
  std::printf("  cold/hit   : %10.1fx  %s\n\n", ratio,
              ratio >= 10.0 ? "(PASS >= 10x)" : "(FAIL < 10x)");

  // Machine-readable record, tracked across PRs like BENCH_obs /
  // BENCH_study: ns_per_op is per request, configs_per_s is req/s.
  std::vector<ep::bench::BenchRecord> records;
  records.push_back({"latency/cold_study", 4, split.coldMs * 1e6,
                     split.coldMs > 0.0 ? 1e3 / split.coldMs : 0.0});
  records.push_back({"latency/cache_hit", 4, split.hitMs * 1e6,
                     split.hitMs > 0.0 ? 1e3 / split.hitMs : 0.0});

  std::printf("throughput (%d requests, warm cache, in-process):\n",
              kRequests);
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    const double rps = measureThroughput(sizes, threads, kRequests);
    std::printf("  threads=%zu : %12.0f req/s\n", threads, rps);
    records.push_back({"inprocess/warm", static_cast<int>(threads),
                       rps > 0.0 ? 1e9 / rps : 0.0, rps});
  }

  // epchaos acceptance gate: with chaos fully off the broker takes the
  // exact pre-epchaos hot path (one disabled-admission bool test), so
  // warm throughput must stay within noise of the admission-on run
  // with a never-shedding limit.  Best-of-3 each to damp CI jitter.
  {
    double rpsOff = 0.0;
    double rpsOn = 0.0;
    for (int i = 0; i < 3; ++i) {
      rpsOff = std::max(rpsOff, measureThroughput(sizes, 4, kRequests, false));
      rpsOn = std::max(rpsOn, measureThroughput(sizes, 4, kRequests, true));
    }
    const double deltaPct =
        rpsOff > 0.0 ? (rpsOff - rpsOn) / rpsOff * 100.0 : 0.0;
    std::printf("\nchaos-off overhead (warm hot path, threads=4):\n");
    std::printf("  admission off : %12.0f req/s\n", rpsOff);
    std::printf("  admission on  : %12.0f req/s\n", rpsOn);
    std::printf("  delta         : %11.1f%%  %s\n", deltaPct,
                deltaPct <= 10.0 ? "(PASS <= 10% overhead)"
                                 : "(FAIL > 10% overhead)");
    records.push_back({"chaos/admission_off", 4,
                       rpsOff > 0.0 ? 1e9 / rpsOff : 0.0, rpsOff});
    records.push_back({"chaos/admission_on", 4,
                       rpsOn > 0.0 ? 1e9 / rpsOn : 0.0, rpsOn});
  }

  // TCP serving path: one broker behind the net::Server event loop,
  // loaded over loopback in all three wire modes.  The `threads`
  // column of these records is the client connection count.
  {
    auto engine = std::make_shared<ep::serve::EpStudyEngine>();
    BrokerOptions opts;
    opts.threads = 2;
    opts.queueCapacity = 8192;
    Broker broker(engine, opts);
    for (int n : sizes) (void)broker.tune(req(Device::P100, n));

    ep::serve::NetServiceHooks hooks = ep::serve::brokerHooks(broker);
    hooks.control = [](const ep::serve::wire::WireRequest&) {
      return ep::serve::wire::encodeError("unsupported op");
    };
    ep::serve::NetService service(std::move(hooks));
    ep::net::ServerOptions netOpts;
    netOpts.port = 0;
    ep::net::Server server(netOpts, service.handler());
    std::string netError;
    if (!server.start(&netError)) {
      std::fprintf(stderr, "net server: %s\n", netError.c_str());
      return 1;
    }

    struct Mode {
      const char* name;
      bool binary;
      int pipeline;
    };
    constexpr Mode kModes[] = {{"tcp_json_roundtrip", false, 1},
                               {"tcp_json_pipelined", false, 32},
                               {"tcp_binary_pipelined", true, 32}};
    std::printf(
        "\ntcp serving path (event-loop server, loopback, warm cache):\n");
    for (const Mode& mode : kModes) {
      for (int conns : {1, 4, 16, 64}) {
        const TcpResult r =
            measureTcp(server.port(), conns, kRequests, sizes, mode.binary,
                       mode.pipeline);
        std::printf(
            "  %-20s conns=%2d : %9.0f req/s  p50=%7.3f ms  p99=%7.3f ms%s\n",
            mode.name, conns, r.rps, r.p50Ms, r.p99Ms,
            r.errors > 0 ? "  (ERRORS)" : "");
        records.push_back({std::string("tcp/") + mode.name, conns,
                           r.rps > 0.0 ? 1e9 / r.rps : 0.0, r.rps});
      }
    }
    server.stop();
    service.stop();
    broker.shutdown();
  }

  ep::bench::writeBenchJson("BENCH_serve.json", "serve_throughput", records);
  std::printf("\nwrote BENCH_serve.json (%zu records)\n", records.size());
  return 0;
}
