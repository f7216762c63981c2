#include "fleet/router.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <future>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "obs/trace.hpp"
#include "pareto/front.hpp"
#include "serve/wire.hpp"

namespace ep::fleet {

namespace {

double bitsToDouble(std::uint64_t b) { return std::bit_cast<double>(b); }
std::uint64_t doubleToBits(double d) { return std::bit_cast<std::uint64_t>(d); }

void atomicAddDouble(std::atomic<std::uint64_t>& a, double v) {
  std::uint64_t old = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(old, doubleToBits(bitsToDouble(old) + v),
                                  std::memory_order_relaxed)) {
  }
}

// EWMA with bits==0 ("never sampled") as the empty state: the first
// sample is adopted verbatim.  Cold-study costs are strictly positive,
// so 0.0 cannot be a legitimate stored value.
void atomicEwma(std::atomic<std::uint64_t>& a, double sample, double alpha) {
  std::uint64_t old = a.load(std::memory_order_relaxed);
  for (;;) {
    const double prev = bitsToDouble(old);
    const double next =
        (old == 0) ? sample : alpha * sample + (1.0 - alpha) * prev;
    if (a.compare_exchange_weak(old, doubleToBits(next),
                                std::memory_order_relaxed)) {
      return;
    }
  }
}

bool samePoint(const pareto::BiPoint& a, const pareto::BiPoint& b) {
  return a.time == b.time && a.energy == b.energy &&
         a.configId == b.configId && a.label == b.label;
}

}  // namespace

void ClusterFront::insert(const pareto::BiPoint& p) {
  // A point equal to a member adds nothing; one equal to a point that
  // left the front is dominated by a member and is rejected below.
  for (const auto& m : reference) {
    if (samePoint(m, p)) return;
  }
  streaming.insert(p);
  reference.push_back(p);
  reference = pareto::paretoFront(reference);
}

bool ClusterFront::consistent() const {
  const std::vector<pareto::BiPoint> live = streaming.snapshot();
  return live.size() == reference.size() &&
         std::equal(live.begin(), live.end(), reference.begin(), samePoint);
}

bool FleetRouter::Shard::serves(serve::Device d) const {
  return std::find(devices.begin(), devices.end(), d) != devices.end();
}

std::size_t FleetRouter::workloadClass(int n) {
  const auto width = static_cast<std::size_t>(
      std::bit_width(static_cast<std::uint64_t>(n > 0 ? n : 1)));
  return std::min(width, kClasses) - 1;
}

std::uint64_t FleetRouter::nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

FleetRouter::HealthState::HealthState(const FleetHealthOptions& opts)
    : probes(registry.counter("fleet_health_probes_total",
                              "Synthetic health probes sent to shards")),
      probeFailures(registry.counter("fleet_health_probe_failures_total",
                                     "Health probes that failed")),
      ejects(registry.counter("fleet_shard_ejected_total",
                              "Shards auto-ejected by the health monitor")),
      reinstates(registry.counter(
          "fleet_shard_reinstated_total",
          "Ejected shards auto-reinstated after probe recovery")) {
  EP_REQUIRE(opts.ejectAfterFailures >= 1,
             "ejectAfterFailures must be >= 1");
  EP_REQUIRE(opts.reinstateAfterSuccesses >= 1,
             "reinstateAfterSuccesses must be >= 1");
}

FleetRouter::FleetRouter(std::vector<FleetShardConfig> shards,
                         FleetOptions options)
    : options_(options) {
  EP_REQUIRE(!shards.empty(), "fleet needs at least one shard");
  EP_REQUIRE(options_.ewmaAlpha > 0.0 && options_.ewmaAlpha <= 1.0,
             "ewmaAlpha must be in (0, 1]");
  if (options_.health.enabled()) {
    health_ = std::make_unique<HealthState>(options_.health);
  }
  auto ring = std::make_shared<HashRing>(options_.virtualNodes);
  shards_.reserve(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    FleetShardConfig& cfg = shards[i];
    EP_REQUIRE(!cfg.id.empty(), "shard id must be non-empty");
    EP_REQUIRE(cfg.engine != nullptr, "shard needs an engine");
    EP_REQUIRE(!cfg.devices.empty(), "shard needs at least one device");
    EP_REQUIRE(shardIndex_.emplace(cfg.id, i).second,
               "duplicate shard id");
    auto shard = std::make_unique<Shard>();
    shard->id = cfg.id;
    shard->devices = cfg.devices;
    serve::BrokerOptions bopts = cfg.broker;
    // epprof: each shard's work carries a "shard/<id>" frame — the root
    // of its pool workers, or pushed around inline studies on the event
    // threads — so cluster CPU/energy profiles partition by shard (the
    // profile analogue of metric federation's shard labels).
    if (bopts.profileLabel.empty()) bopts.profileLabel = "shard/" + cfg.id;
    bopts.onTuneComplete = [this, i](const serve::TuneRequest& req,
                                     const serve::TuneResponse& resp) {
      onTuneComplete(i, req, resp);
    };
    bopts.onStudyExecuted =
        [this, i](serve::Device device, int n,
                  std::shared_ptr<const core::WorkloadResult> result) {
          onStudyExecuted(i, device, n, result);
        };
    shard->broker =
        std::make_unique<serve::Broker>(cfg.engine, std::move(bopts));
    ring->addShard(cfg.id);
    shards_.push_back(std::move(shard));
  }
  publishRing(std::move(ring));
}

FleetRouter::~FleetRouter() { shutdown(); }

void FleetRouter::shutdown() {
  std::lock_guard lk(adminMu_);
  if (shutdown_) return;
  shutdown_ = true;
  if (health_ != nullptr && health_->monitor.joinable()) {
    {
      std::lock_guard mlk(health_->monitorMu);
      health_->stopMonitor = true;
    }
    health_->monitorCv.notify_all();
    health_->monitor.join();
  }
  for (auto& s : shards_) s->broker->shutdown();
}

const FleetRouter::Shard* FleetRouter::shardById(const std::string& id) const {
  const auto it = shardIndex_.find(id);
  return it == shardIndex_.end() ? nullptr : shards_[it->second].get();
}

FleetRouter::Shard* FleetRouter::shardById(const std::string& id) {
  const auto it = shardIndex_.find(id);
  return it == shardIndex_.end() ? nullptr : shards_[it->second].get();
}

double FleetRouter::ewmaColdJoules(serve::Device device, int n) const {
  return bitsToDouble(
      ewmaBits_[serve::deviceIndex(device) * kClasses + workloadClass(n)].load(
          std::memory_order_relaxed));
}

std::string FleetRouter::homeShard(serve::Device device, int n) const {
  return ringSnapshot()->shardFor(ringKeyHash(device, n));
}

void FleetRouter::updateEwma(serve::Device device, int n, double coldJoules) {
  if (coldJoules <= 0.0) return;
  atomicEwma(ewmaBits_[serve::deviceIndex(device) * kClasses + workloadClass(n)],
             coldJoules, options_.ewmaAlpha);
}

serve::Device FleetRouter::pickDevice(int n) const {
  const auto price = serve::perDevice(
      [&](const serve::DeviceInfo& d) { return ewmaColdJoules(d.device, n); });
  // Explore first: with no price signal yet for this class, rotate so
  // every device gets sampled; otherwise try a device still without a
  // price (optimistic exploration).  Once every device is priced the
  // cheapest wins, a tie going to the earlier table row.
  auto pick = std::find(price.begin(), price.end(), 0.0);
  if (pick == price.end()) {
    pick = std::min_element(price.begin(), price.end());
  } else if (std::count(price.begin(), price.end(), 0.0) == std::ssize(price)) {
    pick = price.begin() +
           rotation_.load(std::memory_order_relaxed) % price.size();
  }
  return serve::kDevices[static_cast<std::size_t>(pick - price.begin())]
      .device;
}

FleetRouter::RoutedTune FleetRouter::routeTune(const FleetRequest& freq,
                                               RouteDecision* decision) {
  obs::Span span("fleet/route_tune");
  requests_.fetch_add(1, std::memory_order_relaxed);

  RoutedTune routed;
  serve::TuneRequest& req = routed.req;
  req.n = freq.n;
  req.maxDegradation = freq.maxDegradation;
  req.deadlineMs = freq.deadlineMs;
  if (freq.n <= 0 || freq.maxDegradation < 0.0) {
    serve::TuneResponse resp;
    resp.status = serve::Status::Error;
    resp.error = "invalid fleet tune request (need n > 0, maxDegradation >= 0)";
    routed.immediate = std::move(resp);
    return routed;
  }
  req.device = freq.device ? *freq.device : pickDevice(freq.n);
  if (decision != nullptr) {
    *decision = RouteDecision{};
    decision->device = req.device;
  }

  // Scoring inputs: an immutable ring snapshot plus per-shard relaxed
  // atomics.  No lock shared across shards is taken on this path.
  const std::uint64_t key = ringKeyHash(req.device, req.n);
  const auto ring = ringSnapshot();
  const auto pref = ring->preferenceOrder(key, shards_.size());
  const auto prefRank = [&](const std::string& id) {
    const auto it = std::find(pref.begin(), pref.end(), id);
    return static_cast<std::size_t>(it - pref.begin());  // pref.size() = none
  };

  const std::uint64_t now = nowNs();
  const double coldPrice = ewmaColdJoules(req.device, req.n);
  std::vector<CandidateSnapshot> cands(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = *shards_[i];
    CandidateSnapshot& c = cands[i];
    c.index = i;
    c.preference = prefRank(s.id);
    c.inFlight = s.inFlight.load(std::memory_order_relaxed);
    c.expectedJoules = c.preference == 0 ? 0.0 : coldPrice;
    c.breakerOpen =
        s.breakerOpenUntilNs[serve::deviceIndex(req.device)].load(
            std::memory_order_relaxed) > now;
    c.alive = s.alive.load(std::memory_order_relaxed) && s.serves(req.device);
  }

  // Cross-shard stale serving: when the key's home shard is dead, its
  // replica lives in the next live shard's stale store — answer from
  // there (flagged stale) instead of paying a fresh cold study.
  if (!pref.empty() && !cands[shardIndex_.at(pref[0])].alive) {
    for (std::size_t p = 1; p < pref.size(); ++p) {
      Shard& rep = *shards_[shardIndex_.at(pref[p])];
      if (!cands[shardIndex_.at(pref[p])].alive) continue;
      rep.inFlight.fetch_add(1, std::memory_order_relaxed);
      // On a hit the broker fires onTuneComplete, which balances the
      // in-flight increment; a miss fires nothing, so undo by hand.
      if (auto stale = rep.broker->tuneFromStale(req)) {
        rep.routed.fetch_add(1, std::memory_order_relaxed);
        staleFallbacks_.fetch_add(1, std::memory_order_relaxed);
        if (decision != nullptr) {
          decision->shardId = rep.id;
          decision->staleFallback = true;
        }
        routed.immediate = std::move(*stale);
        return routed;
      }
      rep.inFlight.fetch_sub(1, std::memory_order_relaxed);
      break;  // only the first live preference shard holds the replica
    }
  }

  const auto pick =
      pickCandidate(options_.policy, cands,
                    rotation_.fetch_add(1, std::memory_order_relaxed));
  if (!pick) {
    noCandidate_.fetch_add(1, std::memory_order_relaxed);
    serve::TuneResponse resp;
    resp.status = serve::Status::Error;
    resp.error = "no live shard serves device " +
                 std::string(serve::deviceName(req.device));
    routed.immediate = std::move(resp);
    return routed;
  }
  Shard& s = *shards_[*pick];
  if (decision != nullptr) {
    decision->shardId = s.id;
    decision->home = cands[*pick].preference == 0;
  }
  s.routed.fetch_add(1, std::memory_order_relaxed);
  s.inFlight.fetch_add(1, std::memory_order_relaxed);
  // onTuneComplete (fired when the response is delivered) decrements
  // inFlight and does all outcome accounting.
  routed.shard = *pick;
  return routed;
}

serve::TuneResponse FleetRouter::tune(const FleetRequest& freq,
                                      RouteDecision* decision) {
  RoutedTune routed = routeTune(freq, decision);
  if (routed.immediate) return std::move(*routed.immediate);
  return shards_[routed.shard]->broker->submitTune(routed.req).get();
}

void FleetRouter::submitTuneBatch(std::vector<FleetTuneBatchItem> items) {
  // Route every item first (lock-free), then one Broker batch per
  // shard so admission locks (and pool hops) amortize across the batch.
  std::unordered_map<std::size_t, std::vector<serve::Broker::TuneBatchItem>>
      perShard;
  for (auto& item : items) {
    RoutedTune routed;
    {
      // Route under the item's own context so the fleet/route_tune
      // span (and any stale-fallback answer) lands on its trace.
      obs::ScopedTraceContext tctx(item.ctx);
      routed = routeTune(item.req, nullptr);
      if (routed.immediate) {
        item.done(std::move(*routed.immediate));
        continue;
      }
    }
    serve::Broker::TuneBatchItem member;
    member.req = routed.req;
    member.ctx = item.ctx;
    member.done = std::move(item.done);
    perShard[routed.shard].push_back(std::move(member));
  }
  for (auto& [shard, members] : perShard) {
    shards_[shard]->broker->submitTuneBatch(std::move(members));
  }
}

serve::StudyResponse FleetRouter::study(const serve::StudyRequest& req,
                                        std::string* shardId) {
  obs::Span span("fleet/route_study");
  requests_.fetch_add(1, std::memory_order_relaxed);

  // Sweeps span workload classes, so key affinity does not apply:
  // place least-loaded among the live shards serving the device.
  const std::uint64_t now = nowNs();
  std::vector<CandidateSnapshot> cands(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = *shards_[i];
    cands[i].index = i;
    cands[i].inFlight = s.inFlight.load(std::memory_order_relaxed);
    cands[i].breakerOpen =
        s.breakerOpenUntilNs[serve::deviceIndex(req.device)].load(
            std::memory_order_relaxed) > now;
    cands[i].alive =
        s.alive.load(std::memory_order_relaxed) && s.serves(req.device);
  }
  const auto pick =
      pickCandidate(PolicyKind::QueueDepth, cands,
                    rotation_.fetch_add(1, std::memory_order_relaxed));
  if (!pick) {
    noCandidate_.fetch_add(1, std::memory_order_relaxed);
    serve::StudyResponse resp;
    resp.status = serve::Status::Error;
    resp.error = "no live shard serves device " +
                 std::string(serve::deviceName(req.device));
    return resp;
  }
  Shard& s = *shards_[*pick];
  if (shardId != nullptr) *shardId = s.id;
  s.routed.fetch_add(1, std::memory_order_relaxed);
  s.inFlight.fetch_add(1, std::memory_order_relaxed);
  serve::StudyResponse resp = s.broker->submitStudy(req).get();
  // Studies have no completion hook; account here.
  s.inFlight.fetch_sub(1, std::memory_order_relaxed);
  if (resp.status == serve::Status::Ok) {
    s.completed.fetch_add(1, std::memory_order_relaxed);
  } else {
    s.rejected.fetch_add(1, std::memory_order_relaxed);
  }
  if (resp.report.studiesExecuted > 0) {
    s.studiesExecuted.fetch_add(resp.report.studiesExecuted,
                                std::memory_order_relaxed);
    atomicAddDouble(s.joulesBits, resp.report.attributedJoules);
  }
  return resp;
}

void FleetRouter::onTuneComplete(std::size_t shardIndex,
                                 const serve::TuneRequest& req,
                                 const serve::TuneResponse& resp) {
  Shard& s = *shards_[shardIndex];
  s.inFlight.fetch_sub(1, std::memory_order_relaxed);
  const std::size_t di = serve::deviceIndex(req.device);
  if (resp.status == serve::Status::Ok) {
    s.completed.fetch_add(1, std::memory_order_relaxed);
    if (resp.stale) s.staleServed.fetch_add(1, std::memory_order_relaxed);
    if (resp.report.studiesExecuted > 0) {
      s.studiesExecuted.fetch_add(resp.report.studiesExecuted,
                                  std::memory_order_relaxed);
      atomicAddDouble(s.joulesBits, resp.report.attributedJoules);
      updateEwma(req.device, req.n, resp.report.attributedJoules);
      recordServicePoint(resp);
    }
    if (!resp.stale) {
      s.breakerOpenUntilNs[di].store(0, std::memory_order_relaxed);
    }
  } else {
    s.rejected.fetch_add(1, std::memory_order_relaxed);
    if (resp.status == serve::Status::CircuitOpen) {
      s.breakerOpenUntilNs[di].store(
          nowNs() + static_cast<std::uint64_t>(kBreakerMirrorMs * 1e6),
          std::memory_order_relaxed);
    }
  }
}

void FleetRouter::onStudyExecuted(
    std::size_t shardIndex, serve::Device device, int n,
    const std::shared_ptr<const core::WorkloadResult>& result) {
  if (shards_.size() > 1) {
    const auto ring = ringSnapshot();
    // Replica target: the first shard in ring preference order that is
    // not the executor AND serves the device — the successor when the
    // home executed, the home itself when an overflow shard did.  The
    // serves() filter matters only for heterogeneous fleets: a replica
    // on a shard that cannot serve the device would never be found by
    // the stale-fallback path (which skips non-serving shards).
    for (const auto& id :
         ring->preferenceOrder(ringKeyHash(device, n), shards_.size())) {
      if (id == shards_[shardIndex]->id) continue;
      Shard* target = shardById(id);
      if (target == nullptr || !target->serves(device)) continue;
      target->broker->installStaleResult(device, n, result);
      break;
    }
  }
  std::lock_guard lk(clusterMu_);
  for (const auto& p : result->globalFront) configFront_.insert(p);
}

void FleetRouter::recordServicePoint(const serve::TuneResponse& resp) {
  std::lock_guard lk(clusterMu_);
  pareto::BiPoint p;
  p.time = resp.latency;
  p.energy = Joules{resp.report.attributedJoules};
  p.configId = servicePointSeq_++;
  serviceFront_.insert(p);
}

bool FleetRouter::killShard(const std::string& id) {
  Shard* s = shardById(id);
  if (s == nullptr) return false;
  s->alive.store(false, std::memory_order_relaxed);
  // A manual kill overrides the health monitor: with ejected clear the
  // monitor neither probes the shard nor resurrects it.
  s->ejected.store(false, std::memory_order_relaxed);
  s->probeFailures.store(0, std::memory_order_relaxed);
  s->probeSuccesses.store(0, std::memory_order_relaxed);
  return true;
}

bool FleetRouter::reviveShard(const std::string& id) {
  Shard* s = shardById(id);
  if (s == nullptr) return false;
  s->alive.store(true, std::memory_order_relaxed);
  s->ejected.store(false, std::memory_order_relaxed);
  s->probeFailures.store(0, std::memory_order_relaxed);
  s->probeSuccesses.store(0, std::memory_order_relaxed);
  return true;
}

bool FleetRouter::probeShard(Shard& s) {
  // The breaker is the probe's failure detector for engine death: the
  // fixed probe key caches after its first study, so only the breaker
  // — tripped by real traffic hitting uncached keys — can see an
  // engine that started failing.  Open on any served device = sick.
  const serve::ServeMetrics m = s.broker->metrics();
  for (const serve::Device d : s.devices) {
    const char* state = m.breakerState[serve::deviceIndex(d)];
    if (std::string_view(state) == "open") return false;
  }
  serve::TuneRequest req;
  req.device = s.devices.front();
  req.n = kProbeN;
  req.maxDegradation = kProbeMaxDegradation;
  // Probes bypass routing, but the broker's onTuneComplete hook still
  // fires and decrements inFlight — balance it here.  A probe that
  // outlives the timeout keeps its slot until the hook runs, which is
  // exactly right: a hung shard *is* loaded.
  s.inFlight.fetch_add(1, std::memory_order_relaxed);
  auto fut = s.broker->submitTune(req);
  if (fut.wait_for(std::chrono::duration<double, std::milli>(
          kProbeTimeoutMs)) != std::future_status::ready) {
    return false;
  }
  const serve::TuneResponse resp = fut.get();
  return resp.status == serve::Status::Ok && !resp.stale;
}

void FleetRouter::healthTick() {
  if (health_ == nullptr) return;
  std::lock_guard lk(health_->tickMu);
  for (auto& sp : shards_) {
    Shard& s = *sp;
    const bool alive = s.alive.load(std::memory_order_relaxed);
    const bool ejected = s.ejected.load(std::memory_order_relaxed);
    if (!alive && !ejected) continue;  // manually killed: operator owns it
    health_->probes.inc();
    if (probeShard(s)) {
      s.probeFailures.store(0, std::memory_order_relaxed);
      if (!ejected) continue;
      const int runs =
          s.probeSuccesses.fetch_add(1, std::memory_order_relaxed) + 1;
      if (runs < options_.health.reinstateAfterSuccesses) continue;
      s.probeSuccesses.store(0, std::memory_order_relaxed);
      s.ejected.store(false, std::memory_order_relaxed);
      // The exact store reviveShard() makes, so routing after an
      // auto-reinstate is bitwise-identical to a manual revive.
      s.alive.store(true, std::memory_order_relaxed);
      health_->reinstates.inc();
      obs::FlightEvent e;
      e.timeNs = nowNs();
      e.value = static_cast<double>(runs);
      e.threshold = static_cast<double>(options_.health.reinstateAfterSuccesses);
      obs::setFlightField(e.kind, "shard_reinstated");
      obs::setFlightField(e.scope, s.id.c_str());
      obs::setFlightField(e.message,
                          "probes recovered; shard back in rotation");
      health_->recorder.record(e);
    } else {
      health_->probeFailures.inc();
      s.probeSuccesses.store(0, std::memory_order_relaxed);
      if (ejected) continue;
      const int fails =
          s.probeFailures.fetch_add(1, std::memory_order_relaxed) + 1;
      if (fails < options_.health.ejectAfterFailures) continue;
      s.probeFailures.store(0, std::memory_order_relaxed);
      s.ejected.store(true, std::memory_order_relaxed);
      // The exact store killShard() makes: routing and ring-successor
      // stale-serving treat an auto-eject like a manual kill.
      s.alive.store(false, std::memory_order_relaxed);
      health_->ejects.inc();
      obs::FlightEvent e;
      e.timeNs = nowNs();
      e.value = static_cast<double>(fails);
      e.threshold = static_cast<double>(options_.health.ejectAfterFailures);
      obs::setFlightField(e.kind, "shard_ejected");
      obs::setFlightField(e.scope, s.id.c_str());
      obs::setFlightField(e.message,
                          "consecutive probe failures; shard ejected");
      health_->recorder.record(e);
    }
  }
}

void FleetRouter::startHealthMonitor() {
  if (health_ == nullptr) return;
  std::lock_guard lk(adminMu_);
  if (shutdown_ || health_->monitor.joinable()) return;
  health_->monitor = std::thread([this] {
    std::unique_lock mlk(health_->monitorMu);
    for (;;) {
      const auto interval = std::chrono::duration<double, std::milli>(
          options_.health.probeIntervalMs);
      if (health_->monitorCv.wait_for(
              mlk, interval, [this] { return health_->stopMonitor; })) {
        return;
      }
      mlk.unlock();
      healthTick();
      mlk.lock();
    }
  });
}

bool FleetRouter::shardEjected(const std::string& id) const {
  const Shard* s = shardById(id);
  return s != nullptr && s->ejected.load(std::memory_order_relaxed);
}

std::vector<obs::FlightEvent> FleetRouter::healthEvents(
    std::uint64_t sinceSeq) const {
  if (health_ == nullptr) return {};
  return health_->recorder.snapshot(sinceSeq);
}

bool FleetRouter::removeShardFromRing(const std::string& id) {
  if (shardById(id) == nullptr) return false;
  std::lock_guard lk(adminMu_);
  auto next = std::make_shared<HashRing>(*ringSnapshot());
  next->removeShard(id);
  publishRing(std::move(next));
  return true;
}

bool FleetRouter::addShardToRing(const std::string& id) {
  if (shardById(id) == nullptr) return false;
  std::lock_guard lk(adminMu_);
  auto next = std::make_shared<HashRing>(*ringSnapshot());
  next->addShard(id);
  publishRing(std::move(next));
  return true;
}

FleetMetrics FleetRouter::metrics() const {
  FleetMetrics out;
  out.policy = options_.policy;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.staleFallbacks = staleFallbacks_.load(std::memory_order_relaxed);
  out.noCandidate = noCandidate_.load(std::memory_order_relaxed);
  const auto ring = ringSnapshot();
  out.shards.reserve(shards_.size());
  for (const auto& s : shards_) {
    FleetShardMetrics m;
    m.id = s->id;
    m.alive = s->alive.load(std::memory_order_relaxed);
    m.ejected = s->ejected.load(std::memory_order_relaxed);
    m.inRing = ring->contains(s->id);
    m.routed = s->routed.load(std::memory_order_relaxed);
    m.inFlight = s->inFlight.load(std::memory_order_relaxed);
    m.completed = s->completed.load(std::memory_order_relaxed);
    m.rejected = s->rejected.load(std::memory_order_relaxed);
    m.staleServed = s->staleServed.load(std::memory_order_relaxed);
    m.studiesExecuted = s->studiesExecuted.load(std::memory_order_relaxed);
    m.attributedJoules =
        bitsToDouble(s->joulesBits.load(std::memory_order_relaxed));
    const serve::ServeMetrics sm = s->broker->metrics();
    m.q50Ms = sm.latency.quantileUpperBoundMs(0.50);
    m.q99Ms = sm.latency.quantileUpperBoundMs(0.99);
    m.queueDepth = sm.queueDepth;
    out.clusterJoules += m.attributedJoules;
    out.shards.push_back(std::move(m));
  }
  if (health_ != nullptr) {
    out.healthProbes = health_->probes.value();
    out.healthProbeFailures = health_->probeFailures.value();
    out.shardsEjected = health_->ejects.value();
    out.shardsReinstated = health_->reinstates.value();
  }
  std::lock_guard lk(clusterMu_);
  out.configFrontSize = configFront_.streaming.size();
  out.serviceFrontSize = serviceFront_.streaming.size();
  return out;
}

std::string FleetRouter::renderWireSnapshot() const {
  const FleetMetrics m = metrics();
  const bool consistent = frontsConsistent();
  serve::wire::ObjectWriter w;
  std::uint64_t alive = 0;
  for (const auto& s : m.shards) alive += s.alive ? 1 : 0;
  w.add("status", "ok")
      .add("policy", policyName(m.policy))
      .add("shards", static_cast<std::uint64_t>(m.shards.size()))
      .add("aliveShards", alive)
      .add("requests", m.requests)
      .add("staleFallbacks", m.staleFallbacks)
      .add("noCandidate", m.noCandidate)
      .add("clusterJoules", m.clusterJoules)
      .add("configFrontSize", static_cast<std::uint64_t>(m.configFrontSize))
      .add("serviceFrontSize", static_cast<std::uint64_t>(m.serviceFrontSize))
      .add("frontsConsistent", consistent);
  // Health keys only exist on a health-enabled fleet, so the snapshot
  // of a chaos-free fleet is byte-identical to the pre-epchaos one.
  if (health_ != nullptr) {
    w.add("healthProbes", m.healthProbes)
        .add("healthProbeFailures", m.healthProbeFailures)
        .add("shardsEjected", m.shardsEjected)
        .add("shardsReinstated", m.shardsReinstated);
  }
  for (const auto& s : m.shards) {
    const std::string prefix = "shard." + s.id + ".";
    w.add(prefix + "alive", s.alive)
        .add(prefix + "inRing", s.inRing);
    if (health_ != nullptr) w.add(prefix + "ejected", s.ejected);
    w.add(prefix + "routed", s.routed)
        .add(prefix + "inFlight", s.inFlight)
        .add(prefix + "completed", s.completed)
        .add(prefix + "rejected", s.rejected)
        .add(prefix + "staleServed", s.staleServed)
        .add(prefix + "studiesExecuted", s.studiesExecuted)
        .add(prefix + "attributedJoules", s.attributedJoules)
        .add(prefix + "q50Ms", s.q50Ms)
        .add(prefix + "q99Ms", s.q99Ms)
        .add(prefix + "queueDepth", s.queueDepth);
  }
  return w.str();
}

std::vector<std::pair<std::string, obs::RegistrySnapshot>>
FleetRouter::shardSnapshots() const {
  std::vector<std::pair<std::string, obs::RegistrySnapshot>> out;
  out.reserve(shards_.size());
  for (const auto& s : shards_) {
    out.emplace_back(s->id, s->broker->snapshotRegistry());
  }
  return out;
}

obs::RegistrySnapshot FleetRouter::clusterSnapshot() const {
  auto shards = shardSnapshots();
  if (health_ != nullptr) {
    // The health registry federates like a shard of its own; absent
    // entirely when health is off, so the merged snapshot of a
    // health-off fleet is byte-identical to the pre-epchaos merge.
    shards.emplace_back("health", health_->registry.snapshot());
  }
  return obs::mergeShardSnapshots(shards);
}

std::string FleetRouter::renderClusterMetrics(
    obs::ExpositionFormat format) const {
  return obs::renderExposition(clusterSnapshot(), format);
}

namespace {

// The first "shard/<id>" frame of a stack: the root of a shard pool
// worker's stacks, or the frame an inline broker pushes under
// "net/event_loop".  end() when the stack has none.
std::vector<std::string>::const_iterator shardFrame(
    const std::vector<std::string>& stack) {
  return std::find_if(stack.begin(), stack.end(), [](const std::string& f) {
    return f.rfind("shard/", 0) == 0;
  });
}

}  // namespace

std::vector<std::pair<std::string, obs::ProfileSnapshot>>
FleetRouter::shardProfiles(obs::ProfileKind kind) const {
  // All shards share one process (and therefore one Profiler); the
  // partition key is the first "shard/<id>" frame of a stack.
  const obs::ProfileSnapshot global = obs::Profiler::global().snapshot(kind);
  std::vector<std::pair<std::string, obs::ProfileSnapshot>> out;
  out.reserve(shards_.size());
  for (const auto& s : shards_) {
    obs::ProfileSnapshot snap;
    snap.kind = global.kind;
    snap.samplePeriodUs = global.samplePeriodUs;
    const std::string root = "shard/" + s->id;
    for (const obs::ProfileEntry& e : global.entries) {
      const auto frame = shardFrame(e.stack);
      if (frame == e.stack.end() || *frame != root) continue;
      obs::ProfileEntry stripped;
      if (e.stack.size() == 1) {
        // CPU at the root itself: the worker's own dispatch loop.
        stripped.stack = {"(worker)"};
      } else {
        // The shard frame goes; the frames around it stay in order.
        stripped.stack.assign(e.stack.begin(), frame);
        stripped.stack.insert(stripped.stack.end(), frame + 1, e.stack.end());
      }
      stripped.samples = e.samples;
      stripped.weight = e.weight;
      snap.samples += e.samples;
      snap.totalWeight += e.weight;
      snap.entries.push_back(std::move(stripped));
    }
    out.emplace_back(s->id, std::move(snap));
  }
  return out;
}

obs::ProfileSnapshot FleetRouter::clusterProfile(obs::ProfileKind kind) const {
  // Reconstruct the cluster view through the same merge the wire layer
  // uses, then carry over router-side stacks (frontend threads, event
  // loops) and the global per-trace slices that a per-shard partition
  // cannot attribute.
  const obs::ProfileSnapshot global = obs::Profiler::global().snapshot(kind);
  obs::ProfileSnapshot merged = obs::mergeProfileSnapshots(shardProfiles(kind));
  merged.kind = global.kind;
  merged.samplePeriodUs = global.samplePeriodUs;
  merged.dropped = global.dropped;
  merged.truncated = global.truncated;
  for (const obs::ProfileEntry& e : global.entries) {
    const auto frame = shardFrame(e.stack);
    if (frame != e.stack.end() && shardIndex_.count(frame->substr(6)) != 0) {
      continue;  // already federated through its shard
    }
    merged.samples += e.samples;
    merged.totalWeight += e.weight;
    merged.entries.push_back(e);
  }
  std::sort(merged.entries.begin(), merged.entries.end(),
            [](const obs::ProfileEntry& a, const obs::ProfileEntry& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              if (a.samples != b.samples) return a.samples > b.samples;
              return a.stack < b.stack;
            });
  merged.traces = global.traces;
  return merged;
}

const serve::Broker* FleetRouter::shardBroker(const std::string& id) const {
  const Shard* s = shardById(id);
  return s == nullptr ? nullptr : s->broker.get();
}

bool FleetRouter::frontsConsistent() const {
  std::lock_guard lk(clusterMu_);
  return configFront_.consistent() && serviceFront_.consistent();
}

serve::NetServiceHooks routerHooks(FleetRouter& router) {
  serve::NetServiceHooks hooks;
  hooks.tuneBatch = [&router](std::vector<serve::ServiceTuneItem>&& items) {
    std::vector<FleetRouter::FleetTuneBatchItem> batch;
    batch.reserve(items.size());
    for (auto& item : items) {
      FleetRouter::FleetTuneBatchItem member;
      if (!item.deviceAuto) member.req.device = item.req.device;
      member.req.n = item.req.n;
      member.req.maxDegradation = item.req.maxDegradation;
      member.req.deadlineMs = item.req.deadlineMs;
      member.ctx = item.ctx;
      member.done = std::move(item.done);
      batch.push_back(std::move(member));
    }
    router.submitTuneBatch(std::move(batch));
  };
  hooks.study = [&router](const serve::StudyRequest& req) {
    return router.study(req);
  };
  return hooks;
}

}  // namespace ep::fleet
