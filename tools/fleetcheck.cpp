// fleetcheck — end-to-end drill for the epfleet layer.
//
// Default mode runs the whole fault story in-process against the real
// EpStudyEngine and exits non-zero on the first broken invariant:
//
//   1. warm a spread of keys across a 3-shard fleet (energy-aware
//      routing lands every key on its ring home; each key pays its
//      cold study exactly once cluster-wide);
//   2. kill a warm key's home shard and verify the ring successor
//      answers from the replicated stale store, flagged stale, with
//      no new cold study;
//   3. rebalance the ring (drop the dead shard's vnodes), re-drive
//      the traffic, and verify the streaming cluster Pareto fronts
//      are still bitwise-identical to a fresh batch recompute;
//   4. revive + re-add the shard and verify the partition returns to
//      the original layout and fronts stay consistent;
//   5. a heterogeneous-fleet drill (one GPU-only shard, one mixed, one
//      CPU-only): "device":"auto" routing only lands on shards serving
//      the resolved device, and replica stale-serving keeps working
//      across the asymmetric shard set.
//
// With --port P --check it instead connects to a running
// epserved --shards N, fetches {"op":"fleet"} and asserts a clean
// recovered state: status ok, every shard alive, and frontsConsistent
// true.  tools/ci.sh runs
// the drill both ways (in-process, and over the wire after a scripted
// kill/revive).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "fleet/router.hpp"
#include "net/client.hpp"
#include "serve/engine.hpp"
#include "serve/wire.hpp"

namespace {

using ep::fleet::FleetOptions;
using ep::fleet::FleetRequest;
using ep::fleet::FleetRouter;
using ep::fleet::FleetShardConfig;
using ep::fleet::RouteDecision;
using ep::serve::Device;
namespace wire = ep::serve::wire;

int gFailures = 0;

void check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++gFailures;
}

FleetRequest freq(int n, Device d = Device::P100) {
  FleetRequest r;
  r.device = d;
  r.n = n;
  r.maxDegradation = 0.11;
  return r;
}

int runDrill() {
  std::printf("== fleetcheck: shard-kill / stale-serve / rebalance drill ==\n");
  auto engine = std::make_shared<ep::serve::EpStudyEngine>();
  std::vector<FleetShardConfig> cfgs;
  for (int i = 0; i < 3; ++i) {
    FleetShardConfig c;
    c.id = "s" + std::to_string(i);
    c.engine = engine;
    c.broker.threads = 2;
    c.broker.queueCapacity = 128;
    cfgs.push_back(std::move(c));
  }
  FleetRouter router(std::move(cfgs), FleetOptions{});

  // 1. Warm: small sizes keep the real studies fast; 16 keys over 3
  // shards make every shard home to several.
  std::printf("-- warm --\n");
  std::vector<int> keys;
  for (int n = 512; n < 512 + 16 * 64; n += 64) keys.push_back(n);
  bool warmOk = true;
  bool allHome = true;
  for (int n : keys) {
    RouteDecision d;
    const auto resp = router.tune(freq(n), &d);
    warmOk = warmOk && resp.status == ep::serve::Status::Ok && !resp.stale;
    allHome = allHome && d.home;
  }
  check(warmOk, "all warm requests served fresh");
  check(allHome, "energy-aware routing landed every key on its ring home");
  auto m = router.metrics();
  std::uint64_t executed = 0;
  for (const auto& s : m.shards) executed += s.studiesExecuted;
  check(executed == keys.size(), "each key paid its cold study exactly once");
  check(router.frontsConsistent(), "cluster fronts consistent after warm");

  // 2. Kill a warm key's home; its keys must be stale-served by the
  // replica holder with no new studies.
  const std::string victim = router.homeShard(Device::P100, keys.front());
  std::printf("-- kill %s --\n", victim.c_str());
  check(router.killShard(victim), "killShard(" + victim + ")");
  int staleServed = 0;
  bool staleOk = true;
  for (int n : keys) {
    if (router.homeShard(Device::P100, n) != victim) continue;
    RouteDecision d;
    const auto resp = router.tune(freq(n), &d);
    staleOk = staleOk && resp.status == ep::serve::Status::Ok && resp.stale &&
              d.staleFallback && d.shardId != victim;
    ++staleServed;
  }
  check(staleServed > 0, "victim was home to at least one warm key");
  check(staleOk, "dead home's keys answered stale from the replica");
  m = router.metrics();
  std::uint64_t executedAfterKill = 0;
  for (const auto& s : m.shards) executedAfterKill += s.studiesExecuted;
  check(executedAfterKill == executed, "stale serving executed no new study");

  // 3. Rebalance: the dead shard leaves the ring; its keys re-home and
  // re-execute, and the streaming fronts must match a batch recompute.
  std::printf("-- rebalance (remove %s from ring) --\n", victim.c_str());
  check(router.removeShardFromRing(victim), "removeShardFromRing");
  bool rehomed = true;
  bool rebalanceOk = true;
  for (int n : keys) {
    rehomed = rehomed && router.homeShard(Device::P100, n) != victim;
    const auto resp = router.tune(freq(n));
    rebalanceOk = rebalanceOk && resp.status == ep::serve::Status::Ok;
  }
  check(rehomed, "no key homes on the removed shard");
  check(rebalanceOk, "all keys served after rebalance");
  check(router.frontsConsistent(),
        "streaming fronts bitwise-match batch recompute after rebalance");

  // 4. Recover: revive, re-add, and the original partition returns.
  std::printf("-- recover --\n");
  check(router.reviveShard(victim), "reviveShard");
  check(router.addShardToRing(victim), "addShardToRing");
  check(router.homeShard(Device::P100, keys.front()) == victim,
        "re-added shard owns its original keys again");
  bool recoverOk = true;
  for (int n : keys) {
    recoverOk =
        recoverOk && router.tune(freq(n)).status == ep::serve::Status::Ok;
  }
  check(recoverOk, "all keys served after recovery");
  check(router.frontsConsistent(), "cluster fronts consistent after recovery");
  m = router.metrics();
  std::uint64_t inFlight = 0;
  for (const auto& s : m.shards) inFlight += s.inFlight;
  check(inFlight == 0, "no request left in flight");
  check(m.noCandidate == 0, "no request ever lacked a live shard");

  std::printf("== fleetcheck: %s ==\n",
              gFailures == 0 ? "all checks passed" : "FAILURES");
  return gFailures == 0 ? 0 : 1;
}

// Heterogeneous fleet: shards with asymmetric device sets.  "auto"
// requests must only ever land on shards serving the resolved device,
// and replica stale-serving must keep working when the ring successor
// chain skips a shard that cannot serve the key's device.
int runHeteroDrill() {
  std::printf("== fleetcheck: heterogeneous-fleet drill ==\n");
  auto engine = std::make_shared<ep::serve::EpStudyEngine>();
  std::vector<FleetShardConfig> cfgs;
  for (int i = 0; i < 3; ++i) {
    FleetShardConfig c;
    c.id = "g" + std::to_string(i);
    c.engine = engine;
    c.broker.threads = 2;
    c.broker.queueCapacity = 128;
    cfgs.push_back(std::move(c));
  }
  cfgs[0].devices = {Device::K40c};                 // GPU-only shard
  cfgs[1].devices = {Device::P100, Device::K40c};   // mixed shard
  cfgs[2].devices = {Device::P100};                 // CPU-only shard
  FleetRouter router(std::move(cfgs), ep::fleet::FleetOptions{});

  // "device":"auto": the router resolves the device first, then routes
  // within the shards that serve it.
  bool autoOk = true;
  bool autoPlaced = true;
  for (int n = 768; n < 768 + 12 * 96; n += 96) {
    FleetRequest r;
    r.n = n;  // no device: auto
    r.maxDegradation = 0.11;
    RouteDecision d;
    const auto resp = router.tune(r, &d);
    autoOk = autoOk && resp.status == ep::serve::Status::Ok;
    // The decision's shard must actually serve the decision's device.
    const bool gpuShardOk = d.shardId != "g2" || d.device == Device::P100;
    const bool cpuShardOk = d.shardId != "g0" || d.device == Device::K40c;
    autoPlaced = autoPlaced && gpuShardOk && cpuShardOk;
  }
  check(autoOk, "auto-device requests all served");
  check(autoPlaced, "auto requests only landed on shards serving the device");

  // Warm explicit K40c keys (served by g0 or g1 only), then kill the
  // shard that served them and require the other K40c-capable shard to
  // answer from its replicated stale store.  (The ring home of a K40c
  // key may be the CPU-only shard; what matters is who executed it.)
  std::vector<int> gpuKeys;
  std::vector<std::string> servedBy;
  for (int n = 2048; n < 2048 + 12 * 128; n += 128) gpuKeys.push_back(n);
  bool warmOk = true;
  for (int n : gpuKeys) {
    RouteDecision d;
    const auto resp = router.tune(freq(n, Device::K40c), &d);
    warmOk = warmOk && resp.status == ep::serve::Status::Ok && !resp.stale &&
             d.shardId != "g2";
    servedBy.push_back(d.shardId);
  }
  check(warmOk, "explicit K40c keys served fresh by K40c-capable shards");
  const std::string gpuVictim = servedBy.front();
  check(router.killShard(gpuVictim), "killShard(" + gpuVictim + ")");
  const std::string gpuSurvivor = gpuVictim == "g0" ? "g1" : "g0";
  int staleServed = 0;
  bool staleOk = true;
  for (std::size_t i = 0; i < gpuKeys.size(); ++i) {
    if (servedBy[i] != gpuVictim) continue;
    RouteDecision d;
    const auto resp = router.tune(freq(gpuKeys[i], Device::K40c), &d);
    staleOk = staleOk && resp.status == ep::serve::Status::Ok && resp.stale &&
              d.staleFallback && d.shardId == gpuSurvivor;
    ++staleServed;
  }
  check(staleServed > 0, "victim served at least one warm K40c key");
  check(staleOk, "K40c keys stale-served by the other K40c-capable shard");
  check(router.reviveShard(gpuVictim), "reviveShard(" + gpuVictim + ")");
  check(router.frontsConsistent(), "cluster fronts consistent (hetero)");
  auto m = router.metrics();
  check(m.noCandidate == 0, "no request ever lacked a capable shard");
  router.shutdown();

  std::printf("== fleetcheck hetero: %s ==\n",
              gFailures == 0 ? "all checks passed" : "FAILURES");
  return gFailures == 0 ? 0 : 1;
}

// --check mode: assert a running fleet reports a clean state.
int runRemoteCheck(const std::string& host, std::uint16_t port) {
  std::printf("== fleetcheck --check against %s:%u ==\n", host.c_str(), port);
  ep::net::Client conn;
  std::string error;
  std::string response;
  if (!conn.open(host, port, {}, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (!conn.roundTrip("{\"op\":\"fleet\"}", &response)) {
    std::fprintf(stderr, "no response line\n");
    return 1;
  }
  const auto obj = wire::parseObject(response, &error);
  if (!obj) {
    std::fprintf(stderr, "bad snapshot: %s\n", error.c_str());
    return 1;
  }
  const double shards = wire::getNumber(*obj, "shards").value_or(-1.0);
  check(wire::getString(*obj, "status") == "ok", "snapshot status ok");
  check(shards > 0, "snapshot lists shards");
  check(wire::getNumber(*obj, "aliveShards").value_or(-1.0) == shards,
        "every shard alive");
  check(wire::getBool(*obj, "frontsConsistent").value_or(false),
        "cluster fronts consistent");
  std::printf("== fleetcheck --check: %s ==\n",
              gFailures == 0 ? "clean" : "FAILURES");
  return gFailures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  bool remoteCheck = false;
  bool ok = true;
  for (int i = 1; i < argc && ok; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--host" && v != nullptr) {
      host = v;
      ++i;
    } else if (a == "--port") {
      ok = ep::cli::parseNumber<std::uint16_t>(v, 1, 65535, &port);
      ++i;
    } else if (a == "--check") {
      remoteCheck = true;
    } else {
      ok = false;
    }
  }
  if (!ok || (remoteCheck && port == 0)) {
    std::fprintf(stderr,
                 "usage: fleetcheck            (in-process drill)\n"
                 "       fleetcheck --port P [--host H] --check\n");
    return 2;
  }
  if (remoteCheck) return runRemoteCheck(host, port);
  const int rc = runDrill();
  const int heteroRc = runHeteroDrill();
  return rc != 0 ? rc : heteroRc;
}
