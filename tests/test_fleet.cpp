// epfleet tests: consistent-hash ring properties (balance, minimal
// remapping), routing-policy scoring, and the FleetRouter end to end —
// energy-aware cache affinity, cross-shard stale serving after a shard
// kill, ring-rebalance front consistency, the EWMA price table, and a
// concurrent mixed-traffic storm for TSan.  Everything runs in-process
// against a controllable fake engine (no sockets).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "chaos/chaos_engine.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "pareto/front.hpp"
#include "pareto/tradeoff.hpp"
#include "fleet/policy.hpp"
#include "fleet/ring.hpp"
#include "fleet/router.hpp"
#include "serve/broker.hpp"
#include "serve/wire.hpp"

namespace ep::fleet {
namespace {

using serve::Device;

pareto::BiPoint mk(double t, double e, std::uint64_t id) {
  pareto::BiPoint p;
  p.time = Seconds{t};
  p.energy = Joules{e};
  p.configId = id;
  p.label = "cfg" + std::to_string(id);
  return p;
}

// Deterministic counting engine with a per-device cost multiplier so
// tests can make one device measurably cheaper than the other.
class FleetFakeEngine : public serve::TuningEngine {
 public:
  explicit FleetFakeEngine(double k40cMultiplier = 1.0)
      : k40cMultiplier_(k40cMultiplier) {}

  std::uint64_t tuningHash(Device d) const override {
    return 0xF1EE7u + static_cast<std::uint64_t>(d);
  }

  core::WorkloadResult evaluate(Device d, int n,
                                ThreadPool*) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    perDevice_[d == Device::K40c ? 1 : 0].fetch_add(
        1, std::memory_order_relaxed);
    const double mult = d == Device::K40c ? k40cMultiplier_ : 1.0;
    core::WorkloadResult r;
    r.n = n;
    // Deterministic energy ledger: (0.01*n + 2) * mult joules total, so
    // attributeEnergy() prices the cold study predictably.
    apps::GpuDataPoint d1;
    d1.dynamicEnergy = Joules{0.01 * n * mult};
    d1.repetitions = 3;
    d1.remeasures = 1;
    apps::GpuDataPoint d2;
    d2.dynamicEnergy = Joules{2.0 * mult};
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

  int calls() const { return calls_.load(std::memory_order_relaxed); }
  int calls(Device d) const {
    return perDevice_[d == Device::K40c ? 1 : 0].load(
        std::memory_order_relaxed);
  }

 private:
  double k40cMultiplier_;
  mutable std::atomic<int> calls_{0};
  mutable std::array<std::atomic<int>, 2> perDevice_{};
};

std::vector<FleetShardConfig> shardConfigs(
    const std::shared_ptr<const serve::TuningEngine>& engine, int count,
    std::size_t threads = 2) {
  std::vector<FleetShardConfig> cfgs;
  for (int i = 0; i < count; ++i) {
    FleetShardConfig c;
    c.id.append("s").append(std::to_string(i));
    c.engine = engine;
    c.broker.threads = threads;
    c.broker.queueCapacity = 256;
    cfgs.push_back(std::move(c));
  }
  return cfgs;
}

FleetRequest freq(int n, Device d = Device::P100, double budget = 0.5) {
  FleetRequest r;
  r.device = d;
  r.n = n;
  r.maxDegradation = budget;
  return r;
}

// --- consistent-hash ring ---

// Satellite property: with 64 vnodes/shard, key ownership across three
// shards stays within +-20% of the even split.
TEST(Ring, BalanceWithin20Percent) {
  HashRing ring(64);
  ring.addShard("s0");
  ring.addShard("s1");
  ring.addShard("s2");
  std::map<std::string, int> owned;
  int total = 0;
  for (int n = 1; n <= 12000; ++n) {
    for (Device d : {Device::P100, Device::K40c}) {
      ++owned[ring.shardFor(ringKeyHash(d, n))];
      ++total;
    }
  }
  ASSERT_EQ(owned.size(), 3u);
  const double expected = total / 3.0;
  for (const auto& [id, count] : owned) {
    EXPECT_GT(count, expected * 0.8) << id;
    EXPECT_LT(count, expected * 1.2) << id;
  }
}

// Satellite property: removing one of N shards remaps only the keys it
// owned (~1/N), and every other key keeps its owner.
TEST(Ring, SingleShardRemovalRemapsAtMostItsShare) {
  constexpr int kShards = 5;
  HashRing ring(64);
  for (int i = 0; i < kShards; ++i) {
    ring.addShard(std::string("s").append(std::to_string(i)));
  }

  std::vector<std::uint64_t> keys;
  for (int n = 1; n <= 10000; ++n) {
    keys.push_back(ringKeyHash(Device::P100, n));
    keys.push_back(ringKeyHash(Device::K40c, n));
  }
  std::vector<std::string> before;
  before.reserve(keys.size());
  for (auto k : keys) before.push_back(ring.shardFor(k));

  HashRing after = ring;
  after.removeShard("s2");
  int moved = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::string& now = after.shardFor(keys[i]);
    if (now != before[i]) {
      // Only keys the removed shard owned may move.
      EXPECT_EQ(before[i], "s2");
      ++moved;
    } else {
      EXPECT_NE(before[i], "s2");
    }
  }
  // Everything s2 owned moved somewhere...
  const auto s2Owned = static_cast<int>(
      std::count(before.begin(), before.end(), "s2"));
  EXPECT_EQ(moved, s2Owned);
  // ...and that share is about 1/N of the space (balance bound again).
  EXPECT_LT(moved, static_cast<int>(keys.size()) * 1.2 / kShards);

  // Re-adding the shard restores the exact original partition
  // (vnode positions depend only on the id).
  after.addShard("s2");
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(after.shardFor(keys[i]), before[i]);
  }
}

TEST(Ring, PreferenceOrderStartsAtOwnerAndIsDistinct) {
  HashRing ring(64);
  for (int i = 0; i < 4; ++i) {
    ring.addShard(std::string("s").append(std::to_string(i)));
  }
  for (int n : {7, 512, 9999, 123456}) {
    const auto key = ringKeyHash(Device::P100, n);
    const auto pref = ring.preferenceOrder(key, 4);
    ASSERT_EQ(pref.size(), 4u);
    EXPECT_EQ(pref[0], ring.shardFor(key));
    EXPECT_EQ(std::set<std::string>(pref.begin(), pref.end()).size(), 4u);
  }
  EXPECT_EQ(ring.preferenceOrder(1234, 2).size(), 2u);
  EXPECT_EQ(ring.preferenceOrder(1234, 99).size(), 4u);
}

TEST(Ring, EditsAreIdempotentAndEmptyRingIsSane) {
  HashRing ring(8);
  EXPECT_EQ(ring.shardFor(42), "");
  EXPECT_TRUE(ring.preferenceOrder(42, 3).empty());
  ring.addShard("a");
  ring.addShard("a");
  EXPECT_EQ(ring.shardCount(), 1u);
  ring.removeShard("missing");
  EXPECT_EQ(ring.shardCount(), 1u);
  ring.removeShard("a");
  EXPECT_EQ(ring.shardCount(), 0u);
  EXPECT_EQ(ring.shardFor(42), "");
}

TEST(Ring, DeterministicAcrossInstances) {
  HashRing a(32);
  HashRing b(32);
  for (const char* id : {"alpha", "beta", "gamma"}) {
    a.addShard(id);
    b.addShard(id);
  }
  for (int n = 1; n <= 500; ++n) {
    const auto key = ringKeyHash(Device::K40c, n);
    EXPECT_EQ(a.shardFor(key), b.shardFor(key));
  }
}

// --- policies ---

TEST(Policy, ParseAndNameRoundTrip) {
  EXPECT_EQ(parsePolicy("rr"), PolicyKind::RoundRobin);
  EXPECT_EQ(parsePolicy("round-robin"), PolicyKind::RoundRobin);
  EXPECT_EQ(parsePolicy("queue"), PolicyKind::QueueDepth);
  EXPECT_EQ(parsePolicy("energy"), PolicyKind::EnergyAware);
  EXPECT_EQ(parsePolicy("energy-aware"), PolicyKind::EnergyAware);
  EXPECT_FALSE(parsePolicy("bogus").has_value());
  for (PolicyKind k : {PolicyKind::RoundRobin, PolicyKind::QueueDepth,
                       PolicyKind::EnergyAware}) {
    EXPECT_EQ(parsePolicy(policyName(k)), k);
  }
}

TEST(Policy, EnergyAwarePrefersHomeAtEqualLoad) {
  CandidateSnapshot home;
  home.index = 0;
  home.preference = 0;
  home.inFlight = 1;
  CandidateSnapshot away = home;
  away.index = 1;
  away.preference = 1;
  away.expectedJoules = 25.0;
  EXPECT_LT(scoreCandidate(PolicyKind::EnergyAware, home),
            scoreCandidate(PolicyKind::EnergyAware, away));
  // Queue-depth scoring cannot tell them apart.
  EXPECT_EQ(scoreCandidate(PolicyKind::QueueDepth, home),
            scoreCandidate(PolicyKind::QueueDepth, away));
  const auto pick = pickCandidate(PolicyKind::EnergyAware, {home, away}, 7);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 0u);
}

TEST(Policy, QueuePressureOvercomesEnergyPrice) {
  // A deeply backlogged home loses to an idle overflow shard even
  // after paying the cold-study price.
  CandidateSnapshot home;
  home.preference = 0;
  home.inFlight = 100;
  CandidateSnapshot away;
  away.index = 1;
  away.preference = 1;
  away.inFlight = 0;
  away.expectedJoules = 25.0;
  const auto pick = pickCandidate(PolicyKind::EnergyAware, {home, away}, 0);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 1u);
}

TEST(Policy, OpenBreakerIsLastResort) {
  CandidateSnapshot a;
  a.index = 0;
  a.breakerOpen = true;
  CandidateSnapshot b;
  b.index = 1;
  b.preference = 3;
  b.inFlight = 50;
  b.expectedJoules = 100.0;
  for (PolicyKind k : {PolicyKind::QueueDepth, PolicyKind::EnergyAware}) {
    const auto pick = pickCandidate(k, {a, b}, 0);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, 1u) << policyName(k);
  }
  // ...but a breaker alone never makes a shard unroutable.
  b.alive = false;
  const auto pick = pickCandidate(PolicyKind::QueueDepth, {a, b}, 0);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 0u);
}

TEST(Policy, RoundRobinRotatesAndSkipsDead) {
  std::vector<CandidateSnapshot> cands(3);
  for (std::size_t i = 0; i < cands.size(); ++i) cands[i].index = i;
  for (std::size_t r = 0; r < 9; ++r) {
    const auto pick = pickCandidate(PolicyKind::RoundRobin, cands, r);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, r % 3);
  }
  cands[1].alive = false;
  const auto pick = pickCandidate(PolicyKind::RoundRobin, cands, 1);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 2u);  // rotation lands on dead s1, slides to s2
  cands[0].alive = false;
  cands[2].alive = false;
  EXPECT_FALSE(pickCandidate(PolicyKind::RoundRobin, cands, 0).has_value());
}

// --- cluster fronts ---

bool samePoints(const std::vector<pareto::BiPoint>& a,
                const std::vector<pareto::BiPoint>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](const pareto::BiPoint& x, const pareto::BiPoint& y) {
                      return x.time == y.time && x.energy == y.energy &&
                             x.configId == y.configId && x.label == y.label;
                    });
}

// Seeded insert streams drawn with replacement from a small pool of
// points, so exact duplicates recur (a study that runs again re-inserts
// its front); the coarse pools add objective ties between distinct
// points.  After every insert both sides of the front equal the batch
// front of the de-duplicated stream, and no duplicate ever grows them.
TEST(ClusterFront, BothSidesEqualTheBatchFrontOfTheDeduplicatedStream) {
  Rng rng(20261019);
  for (int trial = 0; trial < 60; ++trial) {
    const bool coarse = trial % 2 == 1;
    std::vector<pareto::BiPoint> pool;
    const int poolSize = 1 + static_cast<int>(rng.uniformInt(0, 40));
    for (int i = 0; i < poolSize; ++i) {
      const double t = coarse ? static_cast<double>(rng.uniformInt(1, 5))
                              : rng.uniform(1.0, 10.0);
      const double e = coarse ? static_cast<double>(rng.uniformInt(1, 5))
                              : rng.uniform(1.0, 10.0);
      pool.push_back(mk(t, e, static_cast<std::uint64_t>(i)));
    }
    ClusterFront front;
    std::vector<pareto::BiPoint> unique;
    std::set<std::uint64_t> seen;
    for (int k = 0; k < 3 * poolSize; ++k) {
      const auto& p = pool[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::uint64_t>(poolSize - 1)))];
      if (seen.insert(p.configId).second) unique.push_back(p);
      front.insert(p);
      const auto batch = pareto::paretoFront(unique);
      ASSERT_TRUE(samePoints(front.streaming.snapshot(), batch))
          << "trial " << trial << " insert " << k;
      ASSERT_TRUE(samePoints(front.reference, batch))
          << "trial " << trial << " insert " << k;
      ASSERT_TRUE(front.consistent());
    }
  }
}

TEST(ClusterFront, ACorruptedStreamingFrontReadsInconsistent) {
  ClusterFront front;
  front.insert(mk(1.0, 4.0, 0));
  front.insert(mk(2.0, 2.0, 1));
  ASSERT_TRUE(front.consistent());
  // A member the reference never saw.
  front.streaming.insert(mk(3.0, 1.0, 2));
  EXPECT_FALSE(front.consistent());
  // A member the streaming side lost.
  ClusterFront lost;
  lost.insert(mk(1.0, 4.0, 0));
  lost.streaming.clear();
  EXPECT_FALSE(lost.consistent());
}

// --- router: cache affinity and energy accounting ---

TEST(Router, EnergyAwareAffinityExecutesEachKeyOnce) {
  auto engine = std::make_shared<FleetFakeEngine>();
  FleetRouter router(shardConfigs(engine, 3));
  for (int rep = 0; rep < 3; ++rep) {
    for (int n : {100, 200, 300}) {
      RouteDecision d;
      const auto resp = router.tune(freq(n), &d);
      ASSERT_EQ(resp.status, serve::Status::Ok) << resp.error;
      EXPECT_FALSE(resp.stale);
      // Energy-aware always lands a healthy key on its ring home.
      EXPECT_EQ(d.shardId, router.homeShard(Device::P100, n));
      EXPECT_TRUE(d.home);
    }
  }
  // 9 requests, 3 distinct keys: exactly 3 cold studies cluster-wide.
  EXPECT_EQ(engine->calls(), 3);
  const auto m = router.metrics();
  EXPECT_EQ(m.requests, 9u);
  std::uint64_t completed = 0;
  std::uint64_t inFlight = 0;
  std::uint64_t executed = 0;
  for (const auto& s : m.shards) {
    completed += s.completed;
    inFlight += s.inFlight;
    executed += s.studiesExecuted;
  }
  EXPECT_EQ(completed, 9u);
  EXPECT_EQ(executed, 3u);  // the shards' own count agrees
  EXPECT_EQ(inFlight, 0u);
  EXPECT_TRUE(router.frontsConsistent());
}

TEST(Router, RoundRobinScattersColdStudies) {
  auto engine = std::make_shared<FleetFakeEngine>();
  FleetOptions opts;
  opts.policy = PolicyKind::RoundRobin;
  FleetRouter router(shardConfigs(engine, 3), opts);
  for (int i = 0; i < 6; ++i) {
    const auto resp = router.tune(freq(4242));
    ASSERT_EQ(resp.status, serve::Status::Ok) << resp.error;
  }
  // One key, but round-robin visits every shard: each pays the study.
  EXPECT_EQ(engine->calls(), 3);

  // Energy-aware routing serves the same trace from one study, so it
  // spends fewer cluster joules.
  auto affinityEngine = std::make_shared<FleetFakeEngine>();
  FleetRouter energyAware(shardConfigs(affinityEngine, 3));
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(energyAware.tune(freq(4242)).status, serve::Status::Ok);
  }
  EXPECT_EQ(affinityEngine->calls(), 1);
  EXPECT_GT(energyAware.metrics().clusterJoules, 0.0);
  EXPECT_LT(energyAware.metrics().clusterJoules,
            router.metrics().clusterJoules);
}

TEST(Router, EwmaTracksColdStudyPrice) {
  auto engine = std::make_shared<FleetFakeEngine>();
  FleetRouter router(shardConfigs(engine, 2));
  const int n = 1000;
  EXPECT_EQ(router.ewmaColdJoules(Device::P100, n), 0.0);
  ASSERT_EQ(router.tune(freq(n)).status, serve::Status::Ok);
  // FleetFakeEngine bills 0.01*n + 2 J for the cold study; the executed
  // request owns all of it, so the EWMA adopts it as the first sample.
  EXPECT_NEAR(router.ewmaColdJoules(Device::P100, n), 0.01 * n + 2.0, 1e-6);
  // Same workload class (bit-width bucket), so n=1023 shares the price.
  EXPECT_NEAR(router.ewmaColdJoules(Device::P100, 1023), 0.01 * n + 2.0, 1e-6);
  // Other device still unsampled.
  EXPECT_EQ(router.ewmaColdJoules(Device::K40c, n), 0.0);
}

TEST(Router, AutoDeviceExploresThenPicksCheaper) {
  // K40c's per-study price relative to P100's, and the device "auto"
  // must settle on: the cheaper one, and P100 on a tie.
  const std::pair<double, Device> cases[] = {
      {3.0, Device::P100}, {1.0 / 3.0, Device::K40c}, {1.0, Device::P100}};
  for (const auto& [k40cMultiplier, cheaper] : cases) {
    SCOPED_TRACE(k40cMultiplier);
    auto engine = std::make_shared<FleetFakeEngine>(k40cMultiplier);
    FleetRouter router(shardConfigs(engine, 2));
    const auto autoTune = [&](int n) {
      FleetRequest r;
      r.device.reset();  // "auto"
      r.n = n;
      r.maxDegradation = 0.5;
      RouteDecision d;
      EXPECT_EQ(router.tune(r, &d).status, serve::Status::Ok);
      return d.device;
    };
    // Exploration: with no price signal the router rotates, then tries
    // the device still without a price, so one fresh key prices both.
    std::set<Device> explored;
    for (int i = 0; i < 2; ++i) explored.insert(autoTune(900));
    EXPECT_EQ(explored.size(), 2u);
    const double p100 = router.ewmaColdJoules(Device::P100, 900);
    const double k40c = router.ewmaColdJoules(Device::K40c, 900);
    EXPECT_GT(p100, 0.0);
    EXPECT_DOUBLE_EQ(k40c, p100 * k40cMultiplier);
    // Exploitation: both priced, the cheaper device wins every time.
    // The priced key answers from cache, so the prices stay put.
    for (int i = 0; i < 3; ++i) EXPECT_EQ(autoTune(900), cheaper) << i;
    EXPECT_EQ(router.ewmaColdJoules(Device::P100, 900), p100);
    EXPECT_EQ(router.ewmaColdJoules(Device::K40c, 900), k40c);
  }
}

TEST(Router, RejectsInvalidRequestsWithoutTouchingShards) {
  auto engine = std::make_shared<FleetFakeEngine>();
  FleetRouter router(shardConfigs(engine, 2));
  FleetRequest bad;
  bad.device = Device::P100;
  bad.n = 0;
  EXPECT_EQ(router.tune(bad).status, serve::Status::Error);
  bad.n = 10;
  bad.maxDegradation = -1.0;
  EXPECT_EQ(router.tune(bad).status, serve::Status::Error);
  EXPECT_EQ(engine->calls(), 0);
  for (const auto& s : router.metrics().shards) {
    EXPECT_EQ(s.routed, 0u);
    EXPECT_EQ(s.inFlight, 0u);
  }
}

// --- router: shard kill, stale fallback, ring rebalance ---

// The fleet's fault story: kill a warm key's home shard, verify the
// replica answers (flagged stale), then rebalance the ring and verify
// the streaming cluster fronts still match a fresh batch recompute
// bitwise; revive, and the original partition returns.
TEST(Router, KillHomeServesStaleFromReplicaThenRebalances) {
  auto engine = std::make_shared<FleetFakeEngine>();
  FleetRouter router(shardConfigs(engine, 3));

  // Warm a spread of keys so every shard is home to some of them.
  std::vector<int> keys;
  for (int n = 100; n < 124; ++n) keys.push_back(n);
  for (int n : keys) {
    ASSERT_EQ(router.tune(freq(n)).status, serve::Status::Ok);
  }
  const int coldStudies = engine->calls();
  EXPECT_EQ(coldStudies, static_cast<int>(keys.size()));

  // Pick a victim key and kill its home shard.
  const int victimKey = keys.front();
  const std::string victim = router.homeShard(Device::P100, victimKey);
  ASSERT_FALSE(victim.empty());
  ASSERT_TRUE(router.killShard(victim));

  // Keys homed on the dead shard are answered from the successor's
  // replica, marked stale, with no new cold study.
  int staleHits = 0;
  for (int n : keys) {
    if (router.homeShard(Device::P100, n) != victim) continue;
    RouteDecision d;
    const auto resp = router.tune(freq(n), &d);
    ASSERT_EQ(resp.status, serve::Status::Ok) << resp.error;
    EXPECT_TRUE(resp.stale);
    EXPECT_TRUE(d.staleFallback);
    EXPECT_NE(d.shardId, victim);
    ++staleHits;
  }
  ASSERT_GT(staleHits, 0);  // 24 keys over 3 shards: some map to victim
  EXPECT_EQ(engine->calls(), coldStudies);
  EXPECT_EQ(router.metrics().staleFallbacks,
            static_cast<std::uint64_t>(staleHits));

  // Keys homed elsewhere are untouched by the kill.
  for (int n : keys) {
    if (router.homeShard(Device::P100, n) == victim) continue;
    const auto resp = router.tune(freq(n));
    ASSERT_EQ(resp.status, serve::Status::Ok);
    EXPECT_FALSE(resp.stale);
  }

  // Rebalance: drop the dead shard's vnodes.  Its keys re-home and pay
  // a fresh cold study on their new owner; the streaming cluster fronts
  // must stay bitwise-identical to a batch recompute throughout.
  ASSERT_TRUE(router.removeShardFromRing(victim));
  for (int n : keys) {
    EXPECT_NE(router.homeShard(Device::P100, n), victim);
    ASSERT_EQ(router.tune(freq(n)).status, serve::Status::Ok);
  }
  EXPECT_GT(engine->calls(), coldStudies);
  EXPECT_TRUE(router.frontsConsistent());

  // Recovery: revive and re-add; the partition returns to the original
  // layout and the fronts remain consistent.
  ASSERT_TRUE(router.reviveShard(victim));
  ASSERT_TRUE(router.addShardToRing(victim));
  EXPECT_EQ(router.homeShard(Device::P100, victimKey), victim);
  for (int n : keys) {
    ASSERT_EQ(router.tune(freq(n)).status, serve::Status::Ok);
  }
  EXPECT_TRUE(router.frontsConsistent());
  std::uint64_t inFlight = 0;
  for (const auto& s : router.metrics().shards) inFlight += s.inFlight;
  EXPECT_EQ(inFlight, 0u);
  EXPECT_EQ(router.metrics().noCandidate, 0u);
}

TEST(Router, AllShardsDeadIsAnErrorNotACrash) {
  auto engine = std::make_shared<FleetFakeEngine>();
  FleetRouter router(shardConfigs(engine, 2));
  ASSERT_TRUE(router.killShard("s0"));
  ASSERT_TRUE(router.killShard("s1"));
  const auto resp = router.tune(freq(77));
  EXPECT_EQ(resp.status, serve::Status::Error);
  EXPECT_NE(resp.error.find("no live shard"), std::string::npos);
  EXPECT_EQ(router.metrics().noCandidate, 1u);
  EXPECT_FALSE(router.killShard("nope"));
  EXPECT_FALSE(router.reviveShard("nope"));
  EXPECT_FALSE(router.removeShardFromRing("nope"));
  EXPECT_FALSE(router.addShardToRing("nope"));
}

TEST(Router, StudySweepRoutesToLeastLoadedAndAccountsEnergy) {
  auto engine = std::make_shared<FleetFakeEngine>();
  FleetRouter router(shardConfigs(engine, 2));
  serve::StudyRequest sreq;
  sreq.device = Device::K40c;
  sreq.nBegin = 64;
  sreq.nEnd = 256;
  sreq.nStep = 64;
  std::string shardId;
  const auto resp = router.study(sreq, &shardId);
  ASSERT_EQ(resp.status, serve::Status::Ok) << resp.error;
  EXPECT_FALSE(shardId.empty());
  EXPECT_EQ(engine->calls(), 4);
  const auto m = router.metrics();
  double joules = 0.0;
  for (const auto& s : m.shards) joules += s.attributedJoules;
  EXPECT_GT(joules, 0.0);
  EXPECT_NEAR(joules, m.clusterJoules, 1e-9);
  EXPECT_GT(m.configFrontSize, 0u);
}

// --- router: wire snapshot ---

TEST(Router, WireSnapshotIsParseableFlatJson) {
  auto engine = std::make_shared<FleetFakeEngine>();
  FleetRouter router(shardConfigs(engine, 2));
  ASSERT_EQ(router.tune(freq(321)).status, serve::Status::Ok);
  const std::string line = router.renderWireSnapshot();
  std::string err;
  const auto obj = serve::wire::parseObject(line, &err);
  ASSERT_TRUE(obj.has_value()) << err;
  EXPECT_EQ(obj->at("status").string, "ok");
  EXPECT_EQ(obj->at("policy").string, policyName(PolicyKind::EnergyAware));
  EXPECT_EQ(obj->at("shards").number, 2.0);
  EXPECT_EQ(obj->at("aliveShards").number, 2.0);
  EXPECT_TRUE(obj->at("frontsConsistent").boolean);
  EXPECT_EQ(obj->at("requests").number, 1.0);
  ASSERT_TRUE(obj->count("shard.s0.completed"));
  ASSERT_TRUE(obj->count("shard.s1.completed"));
  EXPECT_EQ(obj->at("shard.s0.completed").number +
                obj->at("shard.s1.completed").number,
            1.0);
}

TEST(Wire, FleetOpDecodes) {
  std::string err;
  auto snap = serve::wire::decodeRequest(R"({"op":"fleet"})", &err);
  ASSERT_TRUE(snap.has_value()) << err;
  EXPECT_EQ(snap->op, serve::wire::WireRequest::Op::Fleet);
  EXPECT_EQ(snap->fleetAction, "snapshot");

  auto kill = serve::wire::decodeRequest(
      R"({"op":"fleet","action":"kill","shard":"s1"})", &err);
  ASSERT_TRUE(kill.has_value()) << err;
  EXPECT_EQ(kill->fleetAction, "kill");
  EXPECT_EQ(kill->fleetShard, "s1");

  EXPECT_FALSE(serve::wire::decodeRequest(
      R"({"op":"fleet","action":"explode","shard":"s1"})", &err));
  EXPECT_FALSE(serve::wire::decodeRequest(
      R"({"op":"fleet","action":"kill"})", &err));
}

TEST(Wire, AutoDeviceIsTuneOnly) {
  std::string err;
  auto tune = serve::wire::decodeRequest(
      R"({"op":"tune","device":"auto","n":512,"maxDegradation":0.1})", &err);
  ASSERT_TRUE(tune.has_value()) << err;
  EXPECT_TRUE(tune->deviceAuto);

  auto named = serve::wire::decodeRequest(
      R"({"op":"tune","device":"p100","n":512,"maxDegradation":0.1})", &err);
  ASSERT_TRUE(named.has_value()) << err;
  EXPECT_FALSE(named->deviceAuto);

  EXPECT_FALSE(serve::wire::decodeRequest(
      R"({"op":"study","device":"auto","nBegin":64,"nEnd":128,"nStep":64})",
      &err));
  EXPECT_NE(err.find("tune-only"), std::string::npos);
}

// --- broker stale-replication primitives ---

TEST(Broker, InstallStaleResultEnablesTuneFromStale) {
  auto engine = std::make_shared<FleetFakeEngine>();
  serve::BrokerOptions opts;
  opts.threads = 1;
  serve::Broker b(engine, opts);

  serve::TuneRequest req;
  req.device = Device::P100;
  req.n = 640;
  req.maxDegradation = 0.5;

  // Nothing replicated yet: b has no stale answer.
  EXPECT_FALSE(b.tuneFromStale(req).has_value());

  // Replicate a finished study's result into b by hand (the router's
  // onStudyExecuted hook does exactly this with the executor's result).
  auto replica = std::make_shared<const core::WorkloadResult>(
      engine->evaluate(req.device, req.n, nullptr));
  b.installStaleResult(req.device, req.n, replica);

  const auto stale = b.tuneFromStale(req);
  ASSERT_TRUE(stale.has_value());
  EXPECT_EQ(stale->status, serve::Status::Ok);
  EXPECT_TRUE(stale->stale);
  EXPECT_EQ(stale->report.staleServed, 1u);
  // Served from the replica without executing anything on b.
  EXPECT_EQ(engine->calls(), 1);  // only the evaluate() above

  // Invalid inputs are refused, not asserted on.
  serve::TuneRequest bad = req;
  bad.n = -1;
  EXPECT_FALSE(b.tuneFromStale(bad).has_value());
}

// --- concurrency storm (the TSan acceptance target) ---

TEST(Router, ConcurrentMixedTrafficWithKillAndRebalance) {
  auto engine = std::make_shared<FleetFakeEngine>();
  FleetRouter router(shardConfigs(engine, 3));

  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  std::atomic<int> okCount{0};
  std::atomic<int> errCount{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Skewed key mix over both devices; some requests run "auto".
        FleetRequest r;
        const int pick = (t * kPerThread + i) % 10;
        r.n = 50 + (pick < 8 ? pick % 3 : pick) * 37;
        r.maxDegradation = 0.5;
        if (pick == 9) {
          r.device.reset();
        } else {
          r.device = pick % 2 == 0 ? Device::P100 : Device::K40c;
        }
        const auto resp = router.tune(r);
        (resp.status == serve::Status::Ok ? okCount : errCount)
            .fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Admin churn concurrent with traffic: kill/rebalance/revive one
  // shard while the clients hammer the other two.
  std::thread admin([&] {
    router.killShard("s2");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    router.removeShardFromRing("s2");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    router.addShardToRing("s2");
    router.reviveShard("s2");
  });
  for (auto& c : clients) c.join();
  admin.join();

  // Every request resolved: stale answers and re-executions both count
  // as Ok; nothing may error (two shards always stayed alive).
  EXPECT_EQ(okCount.load(), kThreads * kPerThread);
  EXPECT_EQ(errCount.load(), 0);
  const auto m = router.metrics();
  std::uint64_t inFlight = 0;
  std::uint64_t completed = 0;
  for (const auto& s : m.shards) {
    inFlight += s.inFlight;
    completed += s.completed;
  }
  EXPECT_EQ(inFlight, 0u);
  EXPECT_EQ(completed, static_cast<std::uint64_t>(okCount.load()));
  EXPECT_TRUE(router.frontsConsistent());
  router.shutdown();  // idempotent; the destructor calls it again
}

// Construction-time validation.
TEST(Router, ConstructorValidatesConfiguration) {
  auto engine = std::make_shared<FleetFakeEngine>();
  EXPECT_THROW(FleetRouter({}, {}), PreconditionError);
  {
    auto cfgs = shardConfigs(engine, 2);
    cfgs[1].id = cfgs[0].id;
    EXPECT_THROW(FleetRouter(std::move(cfgs), {}), PreconditionError);
  }
  {
    auto cfgs = shardConfigs(engine, 1);
    cfgs[0].engine = nullptr;
    EXPECT_THROW(FleetRouter(std::move(cfgs), {}), PreconditionError);
  }
  {
    auto cfgs = shardConfigs(engine, 1);
    cfgs[0].devices.clear();
    EXPECT_THROW(FleetRouter(std::move(cfgs), {}), PreconditionError);
  }
  {
    FleetOptions opts;
    opts.ewmaAlpha = 0.0;
    EXPECT_THROW(FleetRouter(shardConfigs(engine, 1), opts),
                 PreconditionError);
  }
}

// ---------------------------------------------------------------------------
// Cluster metric federation

const obs::FamilySnapshot* familyNamed(const obs::RegistrySnapshot& snap,
                                       const std::string& name) {
  for (const auto& f : snap.families) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

// The acceptance pin: the cluster-scope snapshot must be the exact
// bucket/count merge of the per-shard snapshots — not an approximation,
// not a re-scrape.
TEST(Federation, ClusterSnapshotIsExactMergeOfShardSnapshots) {
  auto engine = std::make_shared<FleetFakeEngine>();
  FleetRouter router(shardConfigs(engine, 3));
  for (int n : {100, 200, 300, 400, 500, 600, 700}) {
    ASSERT_EQ(router.tune(freq(n)).status, serve::Status::Ok);
  }

  const auto shardSnaps = router.shardSnapshots();
  ASSERT_EQ(shardSnaps.size(), 3u);
  EXPECT_EQ(shardSnaps[0].first, "s0");

  const obs::RegistrySnapshot cluster = router.clusterSnapshot();
  // Identical render (the strongest equality the snapshot offers).
  EXPECT_EQ(
      obs::renderExposition(cluster, obs::ExpositionFormat::Prometheus004),
      obs::renderExposition(obs::mergeShardSnapshots(shardSnaps),
                            obs::ExpositionFormat::Prometheus004));

  // Counters: cluster value is the exact per-shard sum.
  std::uint64_t completedAcrossShards = 0;
  for (const auto& [id, snap] : shardSnaps) {
    (void)id;
    const auto* f = familyNamed(snap, "ep_serve_completed_total");
    ASSERT_NE(f, nullptr);
    for (const auto& s : f->series) completedAcrossShards += s.counterValue;
  }
  const auto* completed = familyNamed(cluster, "ep_serve_completed_total");
  ASSERT_NE(completed, nullptr);
  ASSERT_EQ(completed->series.size(), 1u);
  EXPECT_EQ(completed->series[0].counterValue, completedAcrossShards);
  EXPECT_EQ(completedAcrossShards, 7u);

  // Histograms: per-bucket counts and the observation count are the
  // exact sums too.
  const auto* latency = familyNamed(cluster, "ep_serve_request_latency_ms");
  ASSERT_NE(latency, nullptr);
  ASSERT_EQ(latency->series.size(), 1u);
  std::uint64_t clusterObs = 0;
  for (const std::uint64_t b : latency->series[0].buckets) clusterObs += b;
  std::vector<std::uint64_t> bucketSums(latency->series[0].buckets.size(), 0);
  std::uint64_t shardObs = 0;
  for (const auto& [id, snap] : shardSnaps) {
    (void)id;
    const auto* f = familyNamed(snap, "ep_serve_request_latency_ms");
    ASSERT_NE(f, nullptr);
    for (const auto& s : f->series) {
      ASSERT_EQ(s.buckets.size(), bucketSums.size());
      for (std::size_t i = 0; i < s.buckets.size(); ++i) {
        bucketSums[i] += s.buckets[i];
        shardObs += s.buckets[i];
      }
    }
  }
  EXPECT_EQ(latency->series[0].buckets, bucketSums);
  EXPECT_EQ(clusterObs, shardObs);
  EXPECT_EQ(clusterObs, 7u);

  // Gauges survive per shard, tagged with the shard id.
  const auto* depth = familyNamed(cluster, "ep_serve_queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->series.size(), 3u);
  std::set<std::string> shardLabels;
  for (const auto& s : depth->series) {
    ASSERT_FALSE(s.labels.empty());
    EXPECT_EQ(s.labels.back().first, "shard");
    shardLabels.insert(s.labels.back().second);
  }
  EXPECT_EQ(shardLabels, (std::set<std::string>{"s0", "s1", "s2"}));
}

TEST(Federation, RenderClusterMetricsSpeaksBothFormats) {
  auto engine = std::make_shared<FleetFakeEngine>();
  FleetRouter router(shardConfigs(engine, 2));
  ASSERT_EQ(router.tune(freq(11)).status, serve::Status::Ok);

  const std::string prom =
      router.renderClusterMetrics(obs::ExpositionFormat::Prometheus004);
  EXPECT_NE(prom.find("ep_serve_queue_depth{shard=\"s0\"} "),
            std::string::npos);
  EXPECT_EQ(prom.find("# EOF"), std::string::npos);

  const std::string om =
      router.renderClusterMetrics(obs::ExpositionFormat::OpenMetrics100);
  ASSERT_GE(om.size(), 6u);
  EXPECT_EQ(om.substr(om.size() - 6), "# EOF\n");
  EXPECT_NE(om.find("ep_serve_completed_total 1"), std::string::npos);
}

TEST(Federation, BuildInfoGaugeSurvivesClusterShardLabeling) {
  auto engine = std::make_shared<FleetFakeEngine>();
  FleetRouter router(shardConfigs(engine, 2));
  // Every shard broker stamps ep_build_info into its private registry;
  // the cluster merge must keep the build labels and add the shard tag.
  const std::string prom =
      router.renderClusterMetrics(obs::ExpositionFormat::Prometheus004);
  for (const char* shard : {"s0", "s1"}) {
    const std::string needle = std::string("shard=\"") + shard + "\"";
    bool found = false;
    std::size_t pos = prom.find("ep_build_info{");
    while (pos != std::string::npos) {
      const std::size_t eol = prom.find('\n', pos);
      const std::string line = prom.substr(pos, eol - pos);
      if (line.find(needle) != std::string::npos) {
        found = true;
        EXPECT_NE(line.find("git_hash=\""), std::string::npos) << line;
        EXPECT_NE(line.find("build_type=\""), std::string::npos) << line;
        EXPECT_EQ(line.substr(line.size() - 2), " 1") << line;
      }
      pos = prom.find("ep_build_info{", eol);
    }
    EXPECT_TRUE(found) << "no ep_build_info for shard " << shard;
  }
}

TEST(Federation, ClusterProfileFederatesShardStacksAndKeepsRouterFrames) {
  obs::Profiler& prof = obs::Profiler::global();
  obs::ProfilerOptions popts;
  popts.cpuSampling = false;  // deterministic energy-only window
  ASSERT_TRUE(prof.start(popts));
  prof.clear();
  auto engine = std::make_shared<FleetFakeEngine>();
  FleetRouter router(shardConfigs(engine, 2));

  // Deterministic energy records standing in for shard pool work: the
  // root frames are exactly what the shard worker pools push.
  {
    obs::ProfileThreadLabel root("shard/s0");
    obs::ProfileFrame kernel("kernel/dgemm");
    prof.recordEnergySample(2.0, 0x42u);
  }
  {
    obs::ProfileThreadLabel root("shard/s1");
    obs::ProfileFrame kernel("kernel/fft2d");
    prof.recordEnergySample(3.0, 0x42u);
  }
  {
    obs::ProfileThreadLabel root("fleet/main");  // router-side stack
    prof.recordEnergySample(1.0, 0u);
  }
  {
    // An inline study on an event thread: the shard broker pushes its
    // frame under the loop's root.
    obs::ProfileThreadLabel root("net/event_loop");
    obs::ProfileFrame shard("shard/s0");
    obs::ProfileFrame study("serve/engine_evaluate");
    prof.recordEnergySample(0.5, 0u);
  }
  {
    obs::ProfileThreadLabel root("shard/ghost");  // not a configured shard
    prof.recordEnergySample(0.25, 0u);
  }
  prof.stop();

  const auto shards = router.shardProfiles(obs::ProfileKind::Energy);
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(shards[0].first, "s0");
  ASSERT_EQ(shards[0].second.entries.size(), 2u);
  // Per-shard partitions drop their own shard frame, wherever it sits.
  EXPECT_EQ(shards[0].second.entries[0].stack,
            (std::vector<std::string>{"kernel/dgemm"}));
  EXPECT_EQ(shards[0].second.entries[1].stack,
            (std::vector<std::string>{"net/event_loop",
                                      "serve/engine_evaluate"}));
  EXPECT_DOUBLE_EQ(shards[0].second.totalWeight, 2.5);
  EXPECT_EQ(shards[1].first, "s1");
  EXPECT_DOUBLE_EQ(shards[1].second.totalWeight, 3.0);

  // The cluster view re-merges the shard partitions (roots restored)
  // and carries router-side frames plus unconfigured shard/* stacks.
  const obs::ProfileSnapshot cluster =
      router.clusterProfile(obs::ProfileKind::Energy);
  EXPECT_EQ(cluster.samples, 5u);
  EXPECT_DOUBLE_EQ(cluster.totalWeight, 6.75);
  ASSERT_EQ(cluster.entries.size(), 5u);
  EXPECT_EQ(cluster.entries[0].stack,
            (std::vector<std::string>{"shard/s1", "kernel/fft2d"}));
  EXPECT_EQ(cluster.entries[1].stack,
            (std::vector<std::string>{"shard/s0", "kernel/dgemm"}));
  EXPECT_EQ(cluster.entries[2].stack,
            (std::vector<std::string>{"fleet/main"}));
  EXPECT_EQ(cluster.entries[3].stack,
            (std::vector<std::string>{"shard/s0", "net/event_loop",
                                      "serve/engine_evaluate"}));
  EXPECT_EQ(cluster.entries[4].stack,
            (std::vector<std::string>{"shard/ghost"}));

  // Trace slices stay global: the fanned-out request sums both shards.
  ASSERT_EQ(cluster.traces.size(), 2u);
  EXPECT_EQ(cluster.traces[0].traceId, 0x42u);
  EXPECT_DOUBLE_EQ(cluster.traces[0].weight, 5.0);
  EXPECT_EQ(cluster.traces[0].samples, 2u);
  prof.clear();
}

TEST(Federation, WireSnapshotCarriesPerShardLatencyAndQueueKeys) {
  auto engine = std::make_shared<FleetFakeEngine>();
  FleetRouter router(shardConfigs(engine, 2));
  ASSERT_EQ(router.tune(freq(55)).status, serve::Status::Ok);
  std::string err;
  const auto obj = serve::wire::parseObject(router.renderWireSnapshot(), &err);
  ASSERT_TRUE(obj.has_value()) << err;
  for (const char* id : {"s0", "s1"}) {
    const std::string p = std::string("shard.") + id + ".";
    ASSERT_TRUE(obj->count(p + "q50Ms")) << p;
    ASSERT_TRUE(obj->count(p + "q99Ms")) << p;
    ASSERT_TRUE(obj->count(p + "queueDepth")) << p;
    EXPECT_GE(obj->at(p + "q50Ms").number, 0.0);
    EXPECT_EQ(obj->at(p + "queueDepth").number, 0.0);
  }
  // shardBroker resolves configured shards and rejects strangers.
  EXPECT_NE(router.shardBroker("s0"), nullptr);
  EXPECT_EQ(router.shardBroker("nope"), nullptr);
}

// --- self-healing shard health (epchaos) ---

// Builds a 3-shard fleet where `victimIndex` runs behind a ChaosEngine
// (crashable); the other shards use the shared inner engine directly.
struct ChaosFleet {
  std::shared_ptr<FleetFakeEngine> inner;
  std::shared_ptr<chaos::ChaosEngine> chaos;
  std::vector<FleetShardConfig> configs;
};

ChaosFleet chaosFleet(int victimIndex) {
  ChaosFleet f;
  f.inner = std::make_shared<FleetFakeEngine>();
  f.chaos = std::make_shared<chaos::ChaosEngine>(f.inner);
  for (int i = 0; i < 3; ++i) {
    FleetShardConfig c;
    c.id.append("s").append(std::to_string(i));
    c.engine = i == victimIndex
                   ? std::static_pointer_cast<const serve::TuningEngine>(
                         f.chaos)
                   : std::static_pointer_cast<const serve::TuningEngine>(
                         f.inner);
    c.broker.threads = 2;
    c.broker.queueCapacity = 256;
    f.configs.push_back(std::move(c));
  }
  return f;
}

FleetOptions healthOpts(int ejectAfter = 2, int reinstateAfter = 2) {
  FleetOptions o;
  o.health.probeIntervalMs = 50.0;
  o.health.ejectAfterFailures = ejectAfter;
  o.health.reinstateAfterSuccesses = reinstateAfter;
  return o;
}

TEST(Health, AutoEjectRoutesBitwiseLikeAManualKill) {
  // The ring is deterministic across instances, so the victim of key
  // 300 can be located on a throwaway router first.
  std::string victim;
  int victimIndex = 0;
  {
    auto engine = std::make_shared<FleetFakeEngine>();
    FleetRouter probe(shardConfigs(engine, 3));
    victim = probe.homeShard(Device::P100, 300);
    victimIndex = victim.back() - '0';
  }

  ChaosFleet f = chaosFleet(victimIndex);
  FleetRouter router(f.configs, healthOpts());
  std::vector<int> keys;
  for (int n = 300; n < 324; ++n) keys.push_back(n);
  for (int n : keys) ASSERT_EQ(router.tune(freq(n)).status, serve::Status::Ok);

  // Crash the victim's engine; two failed probes auto-eject it.
  f.chaos->crash();
  router.healthTick();
  EXPECT_FALSE(router.shardEjected(victim));  // 1 failure < ejectAfter
  router.healthTick();
  ASSERT_TRUE(router.shardEjected(victim));

  // Record the full decision stream against the auto-ejected shard...
  auto drive = [&] {
    std::vector<std::string> journal;
    for (int n : keys) {
      RouteDecision d;
      const auto resp = router.tune(freq(n), &d);
      EXPECT_EQ(resp.status, serve::Status::Ok) << resp.error;
      // The victim's keys are stale-served by the ring successor's
      // replica.
      if (router.homeShard(Device::P100, n) == victim) {
        EXPECT_TRUE(resp.stale) << n;
        EXPECT_TRUE(d.staleFallback) << n;
      }
      journal.push_back(d.shardId + (d.staleFallback ? "*" : "") +
                        (resp.stale ? "~" : ""));
    }
    return journal;
  };
  const std::vector<std::string> ejectedJournal = drive();

  // ...then replay the identical traffic against a *manual* kill of the
  // same shard.  Auto-eject flips the same alive flag killShard() does,
  // so the decisions must match entry for entry.
  ASSERT_TRUE(router.reviveShard(victim));
  ASSERT_TRUE(router.killShard(victim));
  EXPECT_FALSE(router.shardEjected(victim));  // manual kill, not ejected
  EXPECT_EQ(drive(), ejectedJournal);

  bool sawStale = false;
  for (const std::string& entry : ejectedJournal) {
    EXPECT_TRUE(entry.find(victim) == std::string::npos) << entry;
    if (entry.find('*') != std::string::npos) sawStale = true;
  }
  EXPECT_TRUE(sawStale);  // 24 keys over 3 shards: some homed on victim
  router.shutdown();
}

TEST(Health, AutoReinstateRestoresHomeRoutingAndRecordsEvents) {
  ChaosFleet f = chaosFleet(1);
  // The victim's breaker trips on real failing traffic, and its open
  // window runs on the broker's injected clock: time moves only when
  // the test advances it.
  std::atomic<std::int64_t> clockNs{0};
  f.configs[1].broker.breaker.failureThreshold = 2;
  f.configs[1].broker.breaker.openMs = 60.0;
  f.configs[1].broker.clock = [&clockNs] {
    return serve::Clock::time_point(serve::Clock::duration(clockNs.load()));
  };
  FleetRouter router(f.configs, healthOpts(/*ejectAfter=*/2,
                                           /*reinstateAfter=*/2));
  std::vector<int> keys;
  for (int n = 400; n < 424; ++n) keys.push_back(n);
  for (int n : keys) {
    const auto resp = router.tune(freq(n));
    ASSERT_EQ(resp.status, serve::Status::Ok);
    EXPECT_FALSE(resp.stale);  // the fleet warms fresh
  }
  int victimKey = -1;
  for (int n : keys) {
    if (router.homeShard(Device::P100, n) == "s1") { victimKey = n; break; }
  }
  ASSERT_NE(victimKey, -1);

  // Cold keys homed on the crashed shard are the failing traffic that
  // trips its breaker, which the health probes read.
  f.chaos->crash();
  int failing = 0;
  for (int n = 5000; failing < 2; ++n) {
    if (router.homeShard(Device::P100, n) != "s1") continue;
    EXPECT_EQ(router.tune(freq(n)).status, serve::Status::Error);
    ++failing;
  }
  const serve::ServeMetrics tripped = router.shardBroker("s1")->metrics();
  EXPECT_STREQ(tripped.breakerState[serve::deviceIndex(Device::P100)], "open");
  router.healthTick();
  EXPECT_FALSE(router.shardEjected("s1"));  // 1 failure < ejectAfter
  router.healthTick();
  ASSERT_TRUE(router.shardEjected("s1"));
  EXPECT_EQ(router.metrics().shardsEjected, 1u);

  // Ejected shards keep being probed.  A recovered engine still fails
  // them while its breaker is open; once the open window has lapsed on
  // the broker's clock, exactly reinstateAfterSuccesses clean probes
  // reinstate it.
  f.chaos->recover();
  router.healthTick();
  EXPECT_TRUE(router.shardEjected("s1"));  // breaker still open
  clockNs.fetch_add(60'000'000);
  router.healthTick();
  EXPECT_TRUE(router.shardEjected("s1"));  // 1 success < reinstateAfter
  router.healthTick();
  ASSERT_FALSE(router.shardEjected("s1"));
  const FleetMetrics m = router.metrics();
  EXPECT_EQ(m.shardsReinstated, 1u);
  EXPECT_GT(m.healthProbes, 0u);
  EXPECT_GT(m.healthProbeFailures, 0u);

  // Both transitions land in the flight recorder, scoped to the shard.
  const auto events = router.healthEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(std::string_view(events[0].kind), "shard_ejected");
  EXPECT_EQ(std::string_view(events[1].kind), "shard_reinstated");
  for (const auto& e : events) {
    EXPECT_EQ(std::string_view(e.scope), "s1");
  }

  // The reinstated shard serves its warm home keys fresh again, every
  // key answers, and the cluster fronts still match a batch recompute.
  RouteDecision d;
  const auto resp = router.tune(freq(victimKey), &d);
  ASSERT_EQ(resp.status, serve::Status::Ok);
  EXPECT_FALSE(resp.stale);
  EXPECT_EQ(d.shardId, "s1");
  EXPECT_TRUE(d.home);
  for (int n : keys) {
    EXPECT_EQ(router.tune(freq(n)).status, serve::Status::Ok) << n;
  }
  EXPECT_TRUE(router.frontsConsistent());
  router.shutdown();
}

TEST(Health, ManualKillIsNeverProbedOrResurrected) {
  ChaosFleet f = chaosFleet(0);
  FleetRouter router(f.configs, healthOpts(/*ejectAfter=*/1));
  std::vector<int> keys;
  for (int n = 500; n < 524; ++n) keys.push_back(n);
  for (int n : keys) ASSERT_EQ(router.tune(freq(n)).status, serve::Status::Ok);
  const std::string victim = router.homeShard(Device::P100, keys.front());

  ASSERT_TRUE(router.killShard(victim));
  const std::uint64_t probesBefore = router.metrics().healthProbes;
  for (int i = 0; i < 5; ++i) router.healthTick();
  const FleetMetrics m = router.metrics();
  // Exactly the two live shards are probed per tick: the monitor never
  // touches an operator-killed shard, and never resurrects it.
  EXPECT_EQ(m.healthProbes - probesBefore, 10u);
  EXPECT_EQ(m.shardsEjected, 0u);
  EXPECT_EQ(m.shardsReinstated, 0u);
  EXPECT_FALSE(router.shardEjected(victim));
  for (const auto& s : m.shards) {
    if (s.id == victim) {
      EXPECT_FALSE(s.alive);
      EXPECT_FALSE(s.ejected);
    }
  }
  RouteDecision d;
  const auto resp = router.tune(freq(keys.front()), &d);
  ASSERT_EQ(resp.status, serve::Status::Ok);
  EXPECT_TRUE(d.staleFallback);
  EXPECT_NE(d.shardId, victim);
  router.shutdown();
}

TEST(Health, DisabledHealthIsInvisibleInEverySurface) {
  // Chaos off: a health-disabled fleet must expose byte-identical
  // snapshots to a pre-epchaos build — no health keys, no health
  // metric families, no events, and healthTick() is a no-op.
  auto engine = std::make_shared<FleetFakeEngine>();
  FleetRouter router(shardConfigs(engine, 3));
  for (int n : {700, 701, 702}) {
    ASSERT_EQ(router.tune(freq(n)).status, serve::Status::Ok);
  }
  router.healthTick();  // no-op: must not probe or study anything
  EXPECT_EQ(engine->calls(), 3);

  const std::string wire = router.renderWireSnapshot();
  EXPECT_EQ(wire.find("health"), std::string::npos);
  EXPECT_EQ(wire.find("shardsEjected"), std::string::npos);
  EXPECT_EQ(wire.find(".ejected"), std::string::npos);
  const std::string prom =
      router.renderClusterMetrics(obs::ExpositionFormat::Prometheus004);
  EXPECT_EQ(prom.find("fleet_health"), std::string::npos);
  EXPECT_EQ(prom.find("fleet_shard_ejected_total"), std::string::npos);

  EXPECT_TRUE(router.healthEvents().empty());
  EXPECT_FALSE(router.shardEjected("s0"));
  const FleetMetrics m = router.metrics();
  EXPECT_EQ(m.healthProbes, 0u);
  EXPECT_EQ(m.shardsEjected, 0u);

  // The enabled counterpart *does* carry the extra surfaces, proving
  // the assertions above test absence rather than misspelled keys.
  ChaosFleet f = chaosFleet(0);
  FleetRouter healthy(f.configs, healthOpts());
  healthy.healthTick();
  EXPECT_NE(healthy.renderWireSnapshot().find("healthProbes"),
            std::string::npos);
  EXPECT_NE(healthy.renderClusterMetrics(obs::ExpositionFormat::Prometheus004)
                .find("fleet_health_probes_total"),
            std::string::npos);
  healthy.shutdown();
  router.shutdown();
}

// --- heterogeneous fleets (single-device and mixed shards) ---

TEST(Hetero, AutoDeviceRespectsShardCapabilities) {
  auto engine = std::make_shared<FleetFakeEngine>();
  std::vector<FleetShardConfig> cfgs;
  const std::vector<std::vector<Device>> caps = {
      {Device::K40c},                 // g0: K40c-only shard
      {Device::P100, Device::K40c},   // g1: mixed
      {Device::P100},                 // g2: P100-only shard
  };
  for (int i = 0; i < 3; ++i) {
    FleetShardConfig c;
    c.id.append("g").append(std::to_string(i));
    c.engine = engine;
    c.broker.threads = 2;
    c.devices = caps[static_cast<std::size_t>(i)];
    cfgs.push_back(std::move(c));
  }
  FleetRouter router(cfgs);

  // "device":"auto" requests must only ever land where the chosen
  // device is actually served.
  for (int i = 0; i < 16; ++i) {
    FleetRequest r;
    r.n = 900 + i * 7;
    r.maxDegradation = 0.5;
    RouteDecision d;
    const auto resp = router.tune(r, &d);
    ASSERT_EQ(resp.status, serve::Status::Ok) << resp.error;
    if (d.shardId == "g0") {
      EXPECT_EQ(d.device, Device::K40c);
    }
    if (d.shardId == "g2") {
      EXPECT_EQ(d.device, Device::P100);
    }
  }

  // Pinned-device requests never touch a shard that lacks the device.
  for (int i = 0; i < 12; ++i) {
    RouteDecision d;
    ASSERT_EQ(router.tune(freq(1200 + i * 13, Device::K40c), &d).status,
              serve::Status::Ok);
    EXPECT_NE(d.shardId, "g2");
    ASSERT_EQ(router.tune(freq(1600 + i * 13, Device::P100), &d).status,
              serve::Status::Ok);
    EXPECT_NE(d.shardId, "g0");
  }
  EXPECT_EQ(router.metrics().noCandidate, 0u);
  EXPECT_TRUE(router.frontsConsistent());
  router.shutdown();
}

TEST(Hetero, StaleServingCrossesOnlyCapableShards) {
  auto engine = std::make_shared<FleetFakeEngine>();
  std::vector<FleetShardConfig> cfgs;
  const std::vector<std::vector<Device>> caps = {
      {Device::K40c}, {Device::P100, Device::K40c}, {Device::P100}};
  for (int i = 0; i < 3; ++i) {
    FleetShardConfig c;
    c.id.append("g").append(std::to_string(i));
    c.engine = engine;
    c.broker.threads = 2;
    c.devices = caps[static_cast<std::size_t>(i)];
    cfgs.push_back(std::move(c));
  }
  FleetRouter router(cfgs);

  // Warm K40c keys, remembering who actually executed each one (the
  // ring home of a K40c key may be the P100-only shard, in which case
  // the router already diverted it).
  std::vector<int> keys;
  std::vector<std::string> servedBy;
  for (int n = 2000; n < 2024; ++n) {
    keys.push_back(n);
    RouteDecision d;
    const auto resp = router.tune(freq(n, Device::K40c), &d);
    ASSERT_EQ(resp.status, serve::Status::Ok);
    EXPECT_FALSE(resp.stale);
    EXPECT_NE(d.shardId, "g2");
    servedBy.push_back(d.shardId);
  }
  const std::string victim = servedBy.front();
  const std::string survivor = victim == "g0" ? "g1" : "g0";

  // Replicas of an executed K40c study can only live on the *other*
  // K40c-capable shard, so after the executor dies every one of its
  // keys stale-serves from that survivor — never from the P100-only g2.
  ASSERT_TRUE(router.killShard(victim));
  const int callsBefore = engine->calls();
  int staleHits = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (servedBy[i] != victim) continue;
    RouteDecision d;
    const auto resp = router.tune(freq(keys[i], Device::K40c), &d);
    ASSERT_EQ(resp.status, serve::Status::Ok) << resp.error;
    EXPECT_TRUE(resp.stale);
    EXPECT_TRUE(d.staleFallback);
    EXPECT_EQ(d.shardId, survivor);
    ++staleHits;
  }
  ASSERT_GT(staleHits, 0);
  EXPECT_EQ(engine->calls(), callsBefore);  // stale serving, no re-study
  ASSERT_TRUE(router.reviveShard(victim));
  EXPECT_TRUE(router.frontsConsistent());
  EXPECT_EQ(router.metrics().noCandidate, 0u);
  router.shutdown();
}

}  // namespace
}  // namespace ep::fleet
