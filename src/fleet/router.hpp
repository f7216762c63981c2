// FleetRouter: the cluster layer above epserve's single-process Broker.
//
// N replicated broker shards sit behind one router.  Each shard owns a
// subset of the modeled devices and its own result cache; the caches
// are partitioned by a consistent-hash ring (fleet/ring.hpp), so a
// given (device, workload) key has one "home" shard that amortizes the
// key's cold study across all requests for it.  The router scores the
// live shards with a pluggable policy (fleet/policy.hpp) — round-robin
// baseline, queue-depth least-loaded, or energy-aware placement priced
// by the PR 5 per-request energy ledger (EWMA cold-study J/request per
// workload class).
//
// Concurrency contract (the part TSan and the acceptance criteria pin
// down): the routing decision holds no lock while it scores shards.
//   * Ring topology is an immutable HashRing snapshot; a router copies
//     the shared_ptr under a pointer-sized critical section and routes
//     on the snapshot unlocked.  Admin edits copy-modify-swap it.
//   * Every per-shard scoring input (aliveness, in-flight count,
//     breaker mirror) and the cluster EWMA price table are relaxed
//     atomics, updated from broker completion hooks.
// The other router mutexes are adminMu_ (topology edits, rare) and
// clusterMu_ (Pareto-front inserts on the *completion* path — O(log n)
// per executed study, never consulted while scoring).
//
// Fault story: killShard() simulates losing a node (the router stops
// routing to it; the shard's state survives for revival, like a
// partitioned node).  Executed studies are replicated into the ring
// successor's stale-while-error store, so when a key's home is dead
// the router answers from the replica — flagged stale on the wire —
// instead of paying a fresh cold study or an error.
//
// Cluster-level Pareto fronts, maintained by O(log n) streaming insert
// (pareto/streaming_front.hpp), never re-peeled:
//   * config front — every executed study's global front streamed in:
//     the cluster's best-known (time, energy) configurations.
//   * service front — one (latency, attributed joules) point per
//     request that executed a cold study: what answering actually cost.
// Each is a ClusterFront: the streaming front beside a batch-computed
// reference, so frontsConsistent() can check the streaming fronts
// bitwise against a recompute — the invariant the shard-kill drill
// asserts across a ring rebalance — in memory bounded by the fronts.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fleet/policy.hpp"
#include "fleet/ring.hpp"
#include "obs/events.hpp"
#include "obs/profile_export.hpp"
#include "pareto/streaming_front.hpp"
#include "serve/broker.hpp"
#include "serve/service.hpp"

namespace ep::fleet {

struct FleetShardConfig {
  std::string id;
  std::shared_ptr<const serve::TuningEngine> engine;
  serve::BrokerOptions broker{};
  // The modeled devices this shard serves (default: every table row).
  std::vector<serve::Device> devices = std::apply(
      [](const auto&... d) { return std::vector<serve::Device>{d.device...}; },
      serve::kDevices);
};

// Self-healing shard health (the epchaos tentpole's fleet half).
//
// A periodic probe — a cheap synthetic tune against a fixed key (N =
// 4096, 50 % degradation budget, no deadline) — is sent to every
// shard.  A probe FAILS when the shard's circuit breaker is open on any
// device it serves (the breaker is the failure detector: the fixed
// probe key caches after its first study, so only the breaker can see
// an engine that started dying under real traffic), when the probe
// response is not Ok or had to be served stale, or when the shard does
// not answer inside 250 ms (a hung engine; the abandoned probe still
// releases its slot through the completion hook if it ever finishes).
//
// ejectAfterFailures consecutive failures auto-eject the shard: the
// router stops routing to it through EXACTLY the same alive flag that
// killShard() flips, so routing and ring-successor stale-serving
// behave bitwise-identically to a manual kill.  An ejected shard keeps
// being probed (half-open); reinstateAfterSuccesses consecutive
// successes — possible once the shard breaker leaves "open" after its
// openMs — auto-reinstate it.  A shard killed *manually* is the
// operator's decision: the monitor never probes or resurrects it.
struct FleetHealthOptions {
  int ejectAfterFailures = 3;
  int reinstateAfterSuccesses = 2;
  // Cadence of the background monitor (startHealthMonitor()); 0 turns
  // health probing off.
  double probeIntervalMs = 0.0;
  [[nodiscard]] bool enabled() const { return probeIntervalMs > 0.0; }
};

// Executed studies are always replicated into the ring successor's
// stale store, and a CircuitOpen response marks the router's relaxed
// breaker mirror for 250 ms (the scoring path never touches the
// broker's own breaker).
struct FleetOptions {
  std::size_t virtualNodes = 64;
  PolicyKind policy = PolicyKind::EnergyAware;
  // Smoothing of the cold-study J/request price per workload class.
  double ewmaAlpha = 0.25;
  // Active health probing + auto eject/reinstate; off by default so a
  // chaos-free fleet is bitwise-identical to one built before epchaos.
  FleetHealthOptions health{};
};

// One cluster front kept two ways: streamed through pareto::StreamingFront
// (O(log n) per insert), and as a reference that pareto::paretoFront
// recomputes over its own members plus each new point, sharing no code
// with the streaming side.  Both hold front members only, so memory is
// bounded by the front, not by the inserts; an exact duplicate of a
// member (a study that ran again) adds nothing to either.  Not
// synchronized: the router guards it with clusterMu_.
struct ClusterFront {
  pareto::StreamingFront streaming;
  std::vector<pareto::BiPoint> reference;

  void insert(const pareto::BiPoint& p);
  // True iff the streaming front equals the reference bitwise, in order.
  [[nodiscard]] bool consistent() const;
};

struct FleetRequest {
  // nullopt = "auto": the router picks the cheaper device by the EWMA
  // price table (unsampled devices count as free, so both get explored).
  std::optional<serve::Device> device;
  int n = 0;
  double maxDegradation = 0.0;
  double deadlineMs = 0.0;
};

struct RouteDecision {
  std::string shardId;
  serve::Device device = serve::Device::P100;
  bool home = false;           // landed on the key's ring home
  bool staleFallback = false;  // home dead, answered from a replica
};

struct FleetShardMetrics {
  std::string id;
  bool alive = true;
  bool inRing = true;
  bool ejected = false;  // auto-ejected by health probes (not manual kill)
  std::uint64_t routed = 0;
  std::uint64_t inFlight = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t staleServed = 0;
  std::uint64_t studiesExecuted = 0;
  double attributedJoules = 0.0;
  // Instantaneous serving state, read from the shard broker at
  // snapshot time: latency quantile upper bounds and queue depth.
  double q50Ms = 0.0;
  double q99Ms = 0.0;
  std::uint64_t queueDepth = 0;
};

struct FleetMetrics {
  PolicyKind policy = PolicyKind::EnergyAware;
  std::vector<FleetShardMetrics> shards;
  std::uint64_t requests = 0;
  std::uint64_t staleFallbacks = 0;
  std::uint64_t noCandidate = 0;
  double clusterJoules = 0.0;
  std::size_t configFrontSize = 0;
  std::size_t serviceFrontSize = 0;
  // Health-monitor totals (all zero unless FleetHealthOptions is
  // enabled()).
  std::uint64_t healthProbes = 0;
  std::uint64_t healthProbeFailures = 0;
  std::uint64_t shardsEjected = 0;
  std::uint64_t shardsReinstated = 0;
};

class FleetRouter {
 public:
  explicit FleetRouter(std::vector<FleetShardConfig> shards,
                       FleetOptions options = {});
  ~FleetRouter();

  FleetRouter(const FleetRouter&) = delete;
  FleetRouter& operator=(const FleetRouter&) = delete;

  // Route and serve one tune request (blocking; call from any number
  // of client threads).  `decision`, when non-null, reports where and
  // why the request landed.
  [[nodiscard]] serve::TuneResponse tune(const FleetRequest& req,
                                         RouteDecision* decision = nullptr);

  // One member of a submitTuneBatch() call; mirrors
  // serve::Broker::TuneBatchItem at the fleet layer.
  struct FleetTuneBatchItem {
    FleetRequest req;
    obs::TraceContext ctx;
    std::function<void(serve::TuneResponse&&)> done;
  };

  // Route every item (lock-free scoring, exactly as tune()), answer
  // the inline outcomes (invalid request, stale fallback, no live
  // candidate) immediately, then hand each shard its members through
  // ONE serve::Broker::submitTuneBatch call — the event-loop frontend
  // amortizes one lock acquisition (and, for a pooled engine, one pool
  // hop) per shard per epoll round instead of paying them per request;
  // an inline engine's cold studies run in that call.  Every `done`
  // runs exactly once, under its item's trace context.
  void submitTuneBatch(std::vector<FleetTuneBatchItem> items);

  // Route a study sweep to the least-loaded live shard serving the
  // device (sweeps span workload classes, so ring affinity of a single
  // key does not apply).
  [[nodiscard]] serve::StudyResponse study(const serve::StudyRequest& req,
                                           std::string* shardId = nullptr);

  // Drill operations; all return false for an unknown shard id.
  // Kill/revive simulate node loss: a killed shard keeps its state but
  // receives no traffic until revived.  Both clear any health-monitor
  // state: a manual kill/revive is the operator overriding the probes.
  bool killShard(const std::string& id);
  bool reviveShard(const std::string& id);

  // Self-healing: probe every shard once and apply the eject /
  // reinstate state machine (no-op unless FleetHealthOptions is
  // enabled()).
  // Deterministic and synchronous — drills and tests drive it
  // directly; daemons run it from the background monitor instead.
  void healthTick();
  // Start the background monitor thread (one healthTick every
  // probeIntervalMs).  Idempotent; stopped by shutdown().
  void startHealthMonitor();
  // True while `id` is auto-ejected by the health monitor (false for
  // unknown ids and for manual kills).
  [[nodiscard]] bool shardEjected(const std::string& id) const;
  // Eject/reinstate transitions recorded by the health monitor (kind
  // "shard_ejected" / "shard_reinstated"), in seq order.
  [[nodiscard]] std::vector<obs::FlightEvent> healthEvents(
      std::uint64_t sinceSeq = 0) const;
  // Ring rebalance: remove/re-add a shard's vnodes (copy-on-write; in-
  // flight lookups keep the snapshot they started with).
  bool removeShardFromRing(const std::string& id);
  bool addShardToRing(const std::string& id);

  [[nodiscard]] FleetMetrics metrics() const;
  // One-line flat-JSON body of the {"op":"fleet"} wire snapshot.
  [[nodiscard]] std::string renderWireSnapshot() const;

  // Cluster metric federation: per-shard broker registry snapshots
  // (shard id + RegistrySnapshot, dead shards included — their metrics
  // still exist), and the merged cluster registry: counters summed,
  // gauges labeled {shard="<id>"}, histograms bucket-merged.
  [[nodiscard]] std::vector<std::pair<std::string, obs::RegistrySnapshot>>
  shardSnapshots() const;
  [[nodiscard]] obs::RegistrySnapshot clusterSnapshot() const;
  // The federated registry rendered as a text exposition; every series
  // from a shard-scoped merge keeps or gains its shard label upstream.
  [[nodiscard]] std::string renderClusterMetrics(
      obs::ExpositionFormat format) const;

  // Profile federation, mirroring metric federation: shardProfiles()
  // partitions the process profiler's aggregated stacks on their first
  // "shard/<id>" frame — the root frame of a shard pool's workers, or
  // the frame a shard broker pushes around an inline study on an event
  // thread (net/event_loop;shard/<id>;...).  Per-shard stacks drop that
  // frame and keep the rest; trace slices stay cluster-global.
  // clusterProfile() merges them back — shard-rooted — together with
  // router-side stacks and the global per-trace slices.
  [[nodiscard]] std::vector<std::pair<std::string, obs::ProfileSnapshot>>
  shardProfiles(obs::ProfileKind kind) const;
  [[nodiscard]] obs::ProfileSnapshot clusterProfile(obs::ProfileKind kind) const;

  // Read-only access to one shard's broker (nullptr for unknown ids),
  // e.g. for a test to read a shard's own breaker and cache metrics.
  [[nodiscard]] const serve::Broker* shardBroker(const std::string& id) const;

  // Both cluster fronts' streaming state equals their batch reference
  // (ClusterFront::consistent).
  [[nodiscard]] bool frontsConsistent() const;

  // The EWMA cold-study price the scorer currently charges for placing
  // workload `n` on `device` off its home shard (0 = no samples yet).
  [[nodiscard]] double ewmaColdJoules(serve::Device device, int n) const;

  // The current ring home of key (device, n); empty when the ring is.
  [[nodiscard]] std::string homeShard(serve::Device device, int n) const;

  // Drain every shard.  Idempotent; the destructor calls it.
  void shutdown();

 private:
  static constexpr std::size_t kClasses = 32;  // bit-width buckets of n
  static constexpr int kProbeN = 1 << 12;
  static constexpr double kProbeMaxDegradation = 0.5;
  static constexpr double kProbeTimeoutMs = 250.0;
  static constexpr double kBreakerMirrorMs = 250.0;

  struct Shard {
    std::string id;
    std::vector<serve::Device> devices;
    std::atomic<bool> alive{true};
    // Health-monitor state: ejected distinguishes an auto-eject (keep
    // probing, may reinstate) from a manual kill (operator owns it).
    std::atomic<bool> ejected{false};
    std::atomic<int> probeFailures{0};
    std::atomic<int> probeSuccesses{0};
    std::atomic<std::uint64_t> routed{0};
    std::atomic<std::uint64_t> inFlight{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> staleServed{0};
    std::atomic<std::uint64_t> studiesExecuted{0};
    std::atomic<std::uint64_t> joulesBits{0};  // double, bit-cast
    // Relaxed mirror of the shard's per-device breaker: steady-clock
    // ns until which the scorer treats the device circuit as open.
    std::array<std::atomic<std::uint64_t>, serve::kDeviceCount>
        breakerOpenUntilNs{};
    std::unique_ptr<serve::Broker> broker;

    [[nodiscard]] bool serves(serve::Device d) const;
  };

  static std::size_t workloadClass(int n);
  static std::uint64_t nowNs();

  [[nodiscard]] serve::Device pickDevice(int n) const;

  // Routing outcome shared by tune() and submitTuneBatch(): either the
  // request was answered during routing (`immediate` set: invalid
  // input, stale fallback, no candidate) or it must be submitted to
  // shards_[shard] as `req` (routed/inFlight already incremented).
  struct RoutedTune {
    std::optional<serve::TuneResponse> immediate;
    std::size_t shard = 0;
    serve::TuneRequest req;
  };
  [[nodiscard]] RoutedTune routeTune(const FleetRequest& freq,
                                     RouteDecision* decision);

  [[nodiscard]] std::shared_ptr<const HashRing> ringSnapshot() const {
    std::lock_guard lk(ringMu_);
    return ring_;
  }
  void publishRing(std::shared_ptr<const HashRing> ring) {
    std::lock_guard lk(ringMu_);
    ring_ = std::move(ring);
  }
  [[nodiscard]] const Shard* shardById(const std::string& id) const;
  [[nodiscard]] Shard* shardById(const std::string& id);

  // One synthetic probe against `s`; true = healthy.  Never takes the
  // admin lock; accounts its in-flight slot like routed traffic.
  [[nodiscard]] bool probeShard(Shard& s);

  // Broker completion hooks (run on shard worker/submitter threads).
  void onTuneComplete(std::size_t shardIndex, const serve::TuneRequest& req,
                      const serve::TuneResponse& resp);
  void onStudyExecuted(std::size_t shardIndex, serve::Device device, int n,
                       const std::shared_ptr<const core::WorkloadResult>& r);

  void updateEwma(serve::Device device, int n, double coldJoules);
  void recordServicePoint(const serve::TuneResponse& resp);

  FleetOptions options_;

  // Cluster EWMA cold-study price table, indexed [device][class].
  std::array<std::atomic<std::uint64_t>, serve::kDeviceCount * kClasses>
      ewmaBits_{};

  std::atomic<std::uint64_t> rotation_{0};  // round-robin / tie rotation
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> staleFallbacks_{0};
  std::atomic<std::uint64_t> noCandidate_{0};

  // Cluster fronts.  Completion-path only; never touched while scoring.
  mutable std::mutex clusterMu_;
  ClusterFront configFront_;
  ClusterFront serviceFront_;
  std::uint64_t servicePointSeq_ = 0;

  std::mutex adminMu_;  // serializes topology edits and shutdown
  bool shutdown_ = false;
  // The current ring snapshot.  ringMu_ guards only the pointer copy
  // (never held while routing on a snapshot): libstdc++ 12's
  // atomic<shared_ptr>::load() releases its internal lock with relaxed
  // ordering, which does not order the read before the next store().
  mutable std::mutex ringMu_;
  std::shared_ptr<const HashRing> ring_;

  // Health-monitor state; null unless FleetHealthOptions is enabled(), so a
  // health-off router carries no extra registry and clusterSnapshot()
  // stays byte-identical to the pre-epchaos fleet.
  struct HealthState {
    explicit HealthState(const FleetHealthOptions& opts);
    obs::Registry registry;
    obs::Counter& probes;
    obs::Counter& probeFailures;
    obs::Counter& ejects;
    obs::Counter& reinstates;
    obs::FlightRecorder recorder{64};
    std::mutex tickMu;  // one healthTick at a time (monitor vs drill)
    std::mutex monitorMu;
    std::condition_variable monitorCv;
    bool stopMonitor = false;
    std::thread monitor;
  };
  std::unique_ptr<HealthState> health_;

  // Immutable after construction (only atomics inside mutate); declared
  // last so shards drain before the state their hooks reference dies.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unordered_map<std::string, std::size_t> shardIndex_;
};

// The fleet backend's tune and study hooks (control stays unset): every
// tune of one round is routed and handed to the shard brokers through
// ONE submitTuneBatch call, and "device":"auto" becomes the
// nullopt-device request the price table resolves.
[[nodiscard]] serve::NetServiceHooks routerHooks(FleetRouter& router);

}  // namespace ep::fleet
