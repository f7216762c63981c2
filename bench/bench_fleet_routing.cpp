// Fleet routing-policy comparison under skewed traffic: round-robin vs
// queue-depth vs energy-aware, same shards, same request sequence.
//
// The mechanism under test is cache affinity as an energy decision.
// A key's cold study is the expensive part (the full configuration-
// space sweep); the energy-aware policy concentrates each key on its
// ring home so the cluster pays that study once, while round-robin
// scatters the key across every shard's private cache and pays it N
// times.  Queue-depth balances load but is blind to placement energy.
// The acceptance bar: energy-aware strictly dominates round-robin on
// (cluster energy, p99 latency) — no worse on both, better on one.
//
// Writes BENCH_fleet.json with per-policy cluster joules, executed
// studies, and client latency percentiles.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "fleet/router.hpp"
#include "serve/engine.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using ep::fleet::FleetOptions;
using ep::fleet::FleetRequest;
using ep::fleet::FleetRouter;
using ep::fleet::FleetShardConfig;
using ep::fleet::PolicyKind;
using ep::serve::Device;

constexpr int kShards = 3;
constexpr int kClientThreads = 4;
constexpr int kRequestsPerThread = 60;

// Deterministic skewed mix: 80% of traffic on 4 hot keys, the rest on
// a 16-key cold tail, both devices interleaved.
FleetRequest requestAt(int i) {
  static const std::vector<int> hot = {4096, 5120, 6144, 7168};
  static const std::vector<int> cold = {8192, 8320, 8448, 8576, 8704, 8832,
                                        8960, 9088, 9216, 9344, 9472, 9600,
                                        9728, 9856, 9984, 10112};
  FleetRequest r;
  r.device = i % 2 == 0 ? Device::P100 : Device::K40c;
  r.n = i % 5 < 4 ? hot[static_cast<std::size_t>(i / 5) % hot.size()]
                  : cold[static_cast<std::size_t>(i / 5) % cold.size()];
  r.maxDegradation = 0.11;
  return r;
}

struct PolicyResult {
  std::string name;
  double clusterJoules = 0.0;
  std::uint64_t studiesExecuted = 0;
  double p50Ms = 0.0;
  double p99Ms = 0.0;
  int errors = 0;
};

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(p * static_cast<double>(v.size() - 1))];
}

PolicyResult runPolicy(PolicyKind policy) {
  // Fresh shards per policy: every run starts with cold caches and a
  // zeroed ledger, so the comparison is exactly the routing decision.
  auto engine = std::make_shared<ep::serve::EpStudyEngine>();
  std::vector<FleetShardConfig> cfgs;
  for (int i = 0; i < kShards; ++i) {
    FleetShardConfig c;
    c.id.append("s").append(std::to_string(i));
    c.engine = engine;
    c.broker.threads = 2;
    c.broker.queueCapacity = 256;
    cfgs.push_back(std::move(c));
  }
  FleetOptions opts;
  opts.policy = policy;
  FleetRouter router(std::move(cfgs), opts);

  std::vector<std::vector<double>> latencies(kClientThreads);
  std::vector<int> errors(kClientThreads, 0);
  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      latencies[static_cast<std::size_t>(t)].reserve(kRequestsPerThread);
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const auto start = Clock::now();
        const auto resp =
            router.tune(requestAt(t * kRequestsPerThread + i));
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - start)
                .count();
        if (resp.status == ep::serve::Status::Ok) {
          latencies[static_cast<std::size_t>(t)].push_back(ms);
        } else {
          ++errors[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& c : clients) c.join();

  PolicyResult out;
  out.name = ep::fleet::policyName(policy);
  const auto m = router.metrics();
  out.clusterJoules = m.clusterJoules;
  for (const auto& s : m.shards) out.studiesExecuted += s.studiesExecuted;
  std::vector<double> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  for (int e : errors) out.errors += e;
  out.p50Ms = percentile(all, 0.50);
  out.p99Ms = percentile(all, 0.99);
  return out;
}

}  // namespace

int main() {
  std::printf("== fleet routing policies under skewed traffic ==\n");
  std::printf(
      "%d shards x 2 workers, %d clients x %d requests, 80%%/20%% "
      "hot/cold key mix over both devices\n\n",
      kShards, kClientThreads, kRequestsPerThread);

  std::vector<PolicyResult> results;
  for (PolicyKind k : {PolicyKind::RoundRobin, PolicyKind::QueueDepth,
                       PolicyKind::EnergyAware}) {
    results.push_back(runPolicy(k));
  }

  std::printf("%-14s %14s %10s %10s %10s %7s\n", "policy", "cluster J",
              "studies", "p50 ms", "p99 ms", "errors");
  for (const auto& r : results) {
    std::printf("%-14s %14.1f %10llu %10.3f %10.3f %7d\n", r.name.c_str(),
                r.clusterJoules,
                static_cast<unsigned long long>(r.studiesExecuted), r.p50Ms,
                r.p99Ms, r.errors);
  }

  std::vector<ep::bench::BenchValue> values;
  for (const auto& r : results) {
    values.push_back({r.name + "/clusterJoules", r.clusterJoules});
    values.push_back({r.name + "/studiesExecuted",
                      static_cast<double>(r.studiesExecuted)});
    values.push_back({r.name + "/p50Ms", r.p50Ms});
    values.push_back({r.name + "/p99Ms", r.p99Ms});
  }
  ep::bench::writeBenchValuesJson("BENCH_fleet.json", "fleet_routing",
                                  values);
  std::printf("\nwrote BENCH_fleet.json (%zu values)\n", values.size());

  const PolicyResult& rr = results[0];
  const PolicyResult& energy = results[2];
  const bool dominates = energy.clusterJoules < rr.clusterJoules &&
                         energy.p99Ms <= rr.p99Ms;
  std::printf(
      "energy-aware vs round-robin: %.1f%% cluster energy, %.1f%% p99 — "
      "%s\n",
      100.0 * energy.clusterJoules / rr.clusterJoules,
      rr.p99Ms > 0.0 ? 100.0 * energy.p99Ms / rr.p99Ms : 0.0,
      dominates ? "STRICTLY DOMINATES (PASS)" : "does not dominate (FAIL)");
  return dominates && energy.errors == 0 ? 0 : 1;
}
