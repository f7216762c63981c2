// epchaos tests: deterministic retry backoff schedules (serial ==
// parallel), retry budgets that never amplify under concurrency, the
// per-key determinism of the ChaosEngine decorator, NetChaos decision
// streams, FaultyTransport campaigns over a real loopback server, and
// the chaos campaign over a real 3-shard fleet (ChaosCampaign.*).
//
// Each decision stream is pinned by a digest of the journal its test
// builds.  The digests were recorded by running the same test bodies
// against the injectors as they were before all of them moved onto
// epfault's shared decision kernel, so a kernel that reorders a key, a
// salt or a subtraction fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "chaos/chaos.hpp"
#include "chaos/chaos_engine.hpp"
#include "chaos/faulty_transport.hpp"
#include "chaos/net_chaos.hpp"
#include "chaos/retry.hpp"
#include "common/rng.hpp"
#include "fleet/router.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "serve/engine.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "serve/wire_binary.hpp"

namespace ep::chaos {
namespace {

using fault::FaultKind;

// FNV-1a over a text journal.
std::uint64_t digest(std::string_view journal) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : journal) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

// A transport's tally in a fixed kind order: a journal line that tells
// apart faults whose effect on the client is the same (a reset and a
// torn frame are both one replayed attempt).
std::string transportTally(const fault::FaultTally& t) {
  std::string out;
  for (const FaultKind k : {FaultKind::ConnectReset, FaultKind::TornFrame,
                            FaultKind::CorruptFrame, FaultKind::Stall}) {
    out += std::to_string(t[k]) + ';';
  }
  return out;
}

// --- RetryPolicy ---

TEST(RetryPolicy, DelayIsAPureFunctionOfItsInputs) {
  RetryPolicy a;
  RetryPolicy b;
  std::uint64_t h = 0;
  for (std::uint64_t stream = 0; stream < 4; ++stream) {
    for (std::uint64_t req = 0; req < 16; ++req) {
      for (int attempt = 1; attempt <= 4; ++attempt) {
        EXPECT_DOUBLE_EQ(a.delayMs(stream, req, attempt),
                         b.delayMs(stream, req, attempt));
        h = mix64(h, std::bit_cast<std::uint64_t>(
                         a.delayMs(stream, req, attempt)));
      }
    }
  }
  EXPECT_EQ(h, 0x215D272914567892ULL) << std::hex << h;
  // Distinct streams decorrelate: the schedules cannot all coincide.
  bool anyDiffer = false;
  for (std::uint64_t req = 0; req < 16 && !anyDiffer; ++req) {
    anyDiffer = a.delayMs(0, req, 1) != a.delayMs(1, req, 1);
  }
  EXPECT_TRUE(anyDiffer);
}

TEST(RetryPolicy, DelaysStayInsideTheJitteredExponentialEnvelope) {
  RetryPolicy p;
  p.baseDelayMs = 2.0;
  p.maxDelayMs = 50.0;
  p.jitter = 0.5;
  for (std::uint64_t req = 0; req < 64; ++req) {
    for (int attempt = 1; attempt <= 8; ++attempt) {
      const double envelope =
          std::min(p.baseDelayMs * static_cast<double>(1ULL << (attempt - 1)),
                   p.maxDelayMs);
      const double d = p.delayMs(7, req, attempt);
      EXPECT_LE(d, envelope) << "attempt " << attempt;
      EXPECT_GE(d, (1.0 - p.jitter) * envelope) << "attempt " << attempt;
    }
  }
}

TEST(RetryPolicy, ScheduleIsIdenticalSerialAndParallel) {
  RetryPolicy p;
  constexpr int kStreams = 4;
  constexpr int kRequests = 64;
  constexpr int kAttempts = 3;
  // Serial reference schedule.
  std::vector<std::vector<double>> serial(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    for (int r = 0; r < kRequests; ++r) {
      for (int a = 1; a <= kAttempts; ++a) {
        serial[s].push_back(p.delayMs(static_cast<std::uint64_t>(s),
                                      static_cast<std::uint64_t>(r), a));
      }
    }
  }
  // The same schedule computed by concurrent workers.
  std::vector<std::vector<double>> parallel(kStreams);
  std::vector<std::thread> threads;
  for (int s = 0; s < kStreams; ++s) {
    threads.emplace_back([&p, &parallel, s] {
      for (int r = 0; r < kRequests; ++r) {
        for (int a = 1; a <= kAttempts; ++a) {
          parallel[s].push_back(p.delayMs(static_cast<std::uint64_t>(s),
                                          static_cast<std::uint64_t>(r), a));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(serial, parallel);
}

// --- RetryBudget ---

TEST(RetryBudget, AccruesPerAttemptAndSpendsPerRetry) {
  RetryBudget budget(/*ratio=*/0.5, /*maxTokens=*/8.0, /*initialTokens=*/1.0);
  budget.onAttempt();
  budget.onAttempt();  // 1 initial + 2 * 0.5 accrued = 2 tokens
  EXPECT_TRUE(budget.tryRetry());
  EXPECT_TRUE(budget.tryRetry());
  EXPECT_FALSE(budget.tryRetry());
  EXPECT_EQ(budget.granted(), 2u);
  EXPECT_EQ(budget.denied(), 1u);
}

TEST(RetryBudget, NeverExceedsTheRatioUnderConcurrentCoalescedCallers) {
  // 8 workers sharing one budget: 100 first attempts each, then every
  // worker hammers tryRetry.  Whatever the interleaving, grants can
  // never exceed ratio * attempts (plus nothing: initialTokens = 0).
  RetryBudget budget(/*ratio=*/0.1, /*maxTokens=*/1e9, /*initialTokens=*/0.0);
  constexpr int kWorkers = 8;
  constexpr int kAttemptsPer = 100;
  constexpr int kRetryTriesPer = 50;
  std::atomic<std::uint64_t> grants{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAttemptsPer; ++i) budget.onAttempt();
      for (int i = 0; i < kRetryTriesPer; ++i) {
        if (budget.tryRetry()) grants.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  const std::uint64_t cap = static_cast<std::uint64_t>(
      0.1 * kWorkers * kAttemptsPer);  // = 80 whole tokens
  EXPECT_LE(budget.granted(), cap);
  EXPECT_EQ(budget.granted(), grants.load());
  EXPECT_EQ(budget.granted() + budget.denied(),
            static_cast<std::uint64_t>(kWorkers) * kRetryTriesPer);
}

// --- ChaosOptions ---

TEST(ChaosOptions, CampaignSplitsTheBudgetAcrossFaultKinds) {
  const ChaosOptions o = ChaosOptions::campaign(0.05);
  EXPECT_TRUE(o.enabled());
  EXPECT_NEAR(o.connectResetRate + o.tornFrameRate + o.corruptFrameRate +
                  o.stallRate,
              0.05, 1e-12);
  EXPECT_GT(o.acceptDropRate, 0.0);
  EXPECT_GT(o.inboundCorruptRate, 0.0);
  EXPECT_EQ(o.failRate, 0.0);  // engine faults are armed per test
  EXPECT_EQ(o.hangRate, 0.0);
  EXPECT_FALSE(ChaosOptions::campaign(0.0).enabled());
  ChaosOptions engineOnly;
  engineOnly.hangRate = 0.1;
  EXPECT_TRUE(engineOnly.enabled());
}

// --- ChaosEngine ---

std::shared_ptr<serve::EpStudyEngine> innerEngine() {
  return std::make_shared<serve::EpStudyEngine>();
}

TEST(ChaosEngine, DelegatesBitwiseWhenNoFaultFires) {
  auto inner = innerEngine();
  ChaosOptions o;  // failRate/hangRate 0
  ChaosEngine chaotic(inner, o);
  EXPECT_EQ(chaotic.tuningHash(serve::Device::P100),
            inner->tuningHash(serve::Device::P100));
  const auto clean = inner->evaluate(serve::Device::P100, 512);
  const auto wrapped = chaotic.evaluate(serve::Device::P100, 512);
  ASSERT_EQ(wrapped.data.size(), clean.data.size());
  for (std::size_t i = 0; i < clean.data.size(); ++i) {
    EXPECT_EQ(wrapped.data[i].time.value(), clean.data[i].time.value());
    EXPECT_EQ(wrapped.data[i].dynamicEnergy.value(),
              clean.data[i].dynamicEnergy.value());
  }
  EXPECT_EQ(chaotic.counts().total(), 0u);
}

TEST(ChaosEngine, FaultingKeysAreAPureFunctionOfTheSeed) {
  auto inner = innerEngine();
  ChaosOptions o;
  o.failRate = 0.5;
  o.seed = 0xFEEDULL;
  auto faultedKeys = [&](const ChaosEngine& e) {
    std::set<int> keys;
    for (int n = 64; n <= 64 * 40; n += 64) {
      try {
        (void)e.evaluate(serve::Device::P100, n);
      } catch (...) {
        keys.insert(n);
      }
    }
    return keys;
  };
  ChaosEngine a(inner, o);
  ChaosEngine b(inner, o);
  const auto ka = faultedKeys(a);
  EXPECT_EQ(ka, faultedKeys(b));
  EXPECT_FALSE(ka.empty());
  EXPECT_LT(ka.size(), 40u);  // rate 0.5 faults some, not all
  std::uint64_t h = 0;
  for (const int n : ka) h = mix64(h, static_cast<std::uint64_t>(n));
  EXPECT_EQ(h, 0x3BB5202916A9A9A7ULL) << std::hex << h;
  EXPECT_EQ(a.counts()[FaultKind::EngineFailure], ka.size());
  o.seed = 0xBEEFULL;
  ChaosEngine c(inner, o);
  EXPECT_NE(ka, faultedKeys(c));
}

TEST(ChaosEngine, CrashFailsEveryKeyUntilRecover) {
  auto inner = innerEngine();
  ChaosEngine chaotic(inner);
  EXPECT_NO_THROW((void)chaotic.evaluate(serve::Device::P100, 256));
  chaotic.crash();
  EXPECT_TRUE(chaotic.crashed());
  EXPECT_THROW((void)chaotic.evaluate(serve::Device::P100, 256),
               std::exception);
  EXPECT_THROW((void)chaotic.evaluate(serve::Device::K40c, 512),
               std::exception);
  EXPECT_EQ(chaotic.counts()[FaultKind::EngineFailure], 2u);
  chaotic.recover();
  EXPECT_NO_THROW((void)chaotic.evaluate(serve::Device::P100, 256));
}

TEST(ChaosEngine, HangDelegatesAfterTheDelayAndCounts) {
  auto inner = innerEngine();
  ChaosOptions o;
  o.hangRate = 1.0;
  o.hangMs = 5.0;
  ChaosEngine chaotic(inner, o);
  const auto r = chaotic.evaluate(serve::Device::P100, 384);
  EXPECT_FALSE(r.data.empty());  // slow, not wrong
  EXPECT_EQ(chaotic.counts()[FaultKind::EngineHang], 1u);
}

// --- NetChaos ---

TEST(NetChaos, DecisionStreamsAreReproducible) {
  ChaosOptions o;
  o.acceptDropRate = 0.3;
  o.inboundCorruptRate = 0.3;
  auto runStream = [&o] {
    NetChaos chaos(o);
    const auto hooks = chaos.hooks();
    std::string journal;
    for (std::uint64_t conn = 1; conn <= 50; ++conn) {
      journal += hooks.dropOnAccept(conn) ? 'D' : '.';
      for (int chunk = 0; chunk < 4; ++chunk) {
        std::string bytes(32, static_cast<char>('a' + chunk));
        const bool close = hooks.onInbound(conn, bytes);
        journal += close ? 'C' : '-';
        journal += bytes;  // mutations included in the comparison
      }
    }
    return std::make_pair(journal, chaos.counts().summary());
  };
  const auto a = runStream();
  const auto b = runStream();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_NE(a.first.find('D'), std::string::npos);
  EXPECT_EQ(digest(a.first), 0x9730C47CE78F3DA9ULL)
      << std::hex << digest(a.first);
}

// --- FaultyTransport over a real loopback server ---

net::ResponseBuffer okBuffer() { return net::makeBuffer("{\"ok\":true}\n"); }

TEST(FaultyTransport, CampaignIsReproducibleAgainstARealServer) {
  net::ServerOptions so;
  net::Server server(so, [](net::Server& s,
                            std::vector<net::InboundFrame>&& batch) {
    for (const auto& f : batch) s.respond(f.conn, f.seq, okBuffer());
  });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  auto runCampaign = [&server] {
    FaultyTransportOptions to;
    to.port = server.port();
    to.chaos = ChaosOptions::campaign(0.3);
    FaultyTransport transport(to, /*stream=*/3);
    std::string journal;
    for (int i = 0; i < 48; ++i) {
      const auto out = transport.roundTrip(
          "{\"op\":\"noop\"}\n", static_cast<std::uint64_t>(i));
      journal += out.ok ? 'k' : 'x';
      journal += std::to_string(out.attempts);
      journal += '/';
      journal += std::to_string(out.faultsInjected);
      journal += ';';
    }
    journal += transportTally(transport.counts());
    return std::make_pair(journal, transport.counts().summary());
  };
  const auto a = runCampaign();
  const auto b = runCampaign();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  // A 30% campaign over 48 requests must actually inject.
  EXPECT_NE(a.first.find('/'), std::string::npos);
  EXPECT_EQ(digest(a.first), 0x8E3DB6757224C1C3ULL)
      << std::hex << digest(a.first);
  server.stop();
}

TEST(FaultyTransport, NeverWedgesWhenTheServerVanishes) {
  net::ServerOptions so;
  auto server = std::make_unique<net::Server>(
      so, [](net::Server& s, std::vector<net::InboundFrame>&& batch) {
        for (const auto& f : batch) s.respond(f.conn, f.seq, okBuffer());
      });
  std::string error;
  ASSERT_TRUE(server->start(&error)) << error;
  FaultyTransportOptions to;
  to.port = server->port();
  to.maxAttempts = 3;
  to.recvTimeoutMs = 100.0;
  FaultyTransport transport(to, /*stream=*/4);
  EXPECT_TRUE(transport.roundTrip("{\"op\":\"noop\"}\n", 0).ok);
  server->stop();
  server.reset();
  const auto out = transport.roundTrip("{\"op\":\"noop\"}\n", 1);
  EXPECT_FALSE(out.ok);  // bounded attempts, no hang, no throw
  EXPECT_LE(out.attempts, 3);
}

// --- the chaos campaign over a real fleet ---

// A 3-shard fleet on the real engine behind a real net::Server, wired as
// epserved --shards 3 wires it: each round's tunes go to one
// router.submitTuneBatch.
class WiredFleet {
 public:
  explicit WiredFleet(const net::ServerChaosHooks* chaos = nullptr) {
    auto engine = std::make_shared<serve::EpStudyEngine>();
    std::vector<fleet::FleetShardConfig> cfgs;
    for (int i = 0; i < 3; ++i) {
      fleet::FleetShardConfig c;
      c.id = "w" + std::to_string(i);
      c.engine = engine;
      c.broker.threads = 2;
      c.broker.queueCapacity = 128;
      cfgs.push_back(std::move(c));
    }
    router_ = std::make_unique<fleet::FleetRouter>(std::move(cfgs));
    serve::NetServiceHooks hooks = fleet::routerHooks(*router_);
    hooks.control = [](const serve::wire::WireRequest&) {
      return std::string("{\"status\":\"ok\"}");
    };
    service_ = std::make_unique<serve::NetService>(std::move(hooks));
    net::ServerOptions so;
    so.chaos = chaos;
    server_ = std::make_unique<net::Server>(so, service_->handler());
  }
  ~WiredFleet() {
    server_->stop();
    service_->stop();
  }

  net::Server& server() { return *server_; }

 private:
  std::unique_ptr<fleet::FleetRouter> router_;
  std::unique_ptr<serve::NetService> service_;
  std::unique_ptr<net::Server> server_;
};

std::string tuneFrame(int n) {
  serve::wire_binary::BinaryTuneRequest breq;
  breq.tune.device = serve::Device::P100;
  breq.tune.n = n;
  breq.tune.maxDegradation = 0.11;
  std::string framed;
  net::appendFrame(framed, net::kOpTune,
                   serve::wire_binary::encodeTuneRequest(breq));
  return framed;
}

// The answer to one round trip: a served tune, the server's bad_request
// to a corrupted frame, or a transport failure after every attempt.
struct Answer {
  bool servedOk = false;
  std::string journal;  // status, and for a tune stale/hit/recommendation
};

Answer readAnswer(const FaultyTransport::Outcome& outcome) {
  Answer a;
  if (!outcome.ok) {
    a.journal = "transport_failed";
  } else if (outcome.opcode != net::kOpTune) {
    a.journal = "proto_error";
  } else {
    std::string error;
    const auto resp =
        serve::wire_binary::decodeTuneResponse(outcome.body, &error);
    if (!resp) {
      a.journal = "undecodable";
    } else {
      a.servedOk = resp->status == serve::Status::Ok;
      a.journal = std::string(serve::statusName(resp->status)) +
                  " stale=" + std::to_string(resp->stale) +
                  " hit=" + std::to_string(resp->cacheHit) +
                  " rec=" + resp->recommended;
    }
  }
  return a;
}

struct CampaignRun {
  std::string journal;
  std::string tally;
  std::uint64_t faults = 0;
  int requests = 0;
  int errors = 0;
};

// 160 EPB1 tunes through one FaultyTransport under a 5 % transport
// campaign, against a fresh fleet.  The journal holds every
// deterministic per-request fact.
CampaignRun runTransportCampaign(std::uint64_t seed) {
  WiredFleet wf;
  std::string error;
  EXPECT_TRUE(wf.server().start(&error)) << error;
  FaultyTransportOptions to;
  to.port = wf.server().port();
  to.binary = true;
  to.chaos = ChaosOptions::campaign(0.05);
  to.chaos.seed = seed;
  FaultyTransport transport(to, /*stream=*/1);
  CampaignRun run;
  for (int i = 0; i < 160; ++i) {
    const int n = 512 + (i % 24) * 64;
    const auto outcome =
        transport.roundTrip(tuneFrame(n), static_cast<std::uint64_t>(i));
    const Answer answer = readAnswer(outcome);
    run.journal += std::to_string(i) + " n=" + std::to_string(n) +
                   " attempts=" + std::to_string(outcome.attempts) +
                   " faults=" + std::to_string(outcome.faultsInjected) +
                   " " + answer.journal + "\n";
    ++run.requests;
    if (!answer.servedOk) ++run.errors;
  }
  run.journal += transportTally(transport.counts());
  run.tally = transport.counts().summary();
  run.faults = transport.counts().total();
  return run;
}

constexpr std::uint64_t kCampaignSeed = 0xC4A05EEDULL;

TEST(ChaosCampaign, TransportFaultsOverAFleetStayBoundedAndReplayBitwise) {
  const CampaignRun first = runTransportCampaign(kCampaignSeed);
  EXPECT_EQ(first.requests, 160);  // every request resolved, none stuck
  EXPECT_GT(first.faults, 0u) << first.tally;
  EXPECT_LE(first.errors, 160 * 15 / 100) << first.journal;

  // The whole campaign -- fault schedule, statuses, cache hits and
  // recommendations -- replays bitwise from the seed.
  const CampaignRun replay = runTransportCampaign(kCampaignSeed);
  EXPECT_EQ(first.journal, replay.journal);
  EXPECT_EQ(first.tally, replay.tally);
  EXPECT_EQ(digest(first.journal), 0x5F0E288A08187139ULL)
      << std::hex << digest(first.journal);

  const CampaignRun other = runTransportCampaign(kCampaignSeed + 1);
  EXPECT_NE(other.journal, first.journal);
}

TEST(ChaosCampaign, ServerSideFaultsLeaveTheServerServing) {
  // Server-side faults only, at a rate high enough that the seed
  // injects several; the client transport stays clean and merely
  // replays through the connections the server kills or corrupts.
  ChaosOptions co;
  co.seed = kCampaignSeed;
  co.acceptDropRate = 0.1;
  co.inboundCorruptRate = 0.1;
  NetChaos netChaos(co);
  const auto hooks = netChaos.hooks();
  WiredFleet wf(&hooks);
  std::string error;
  ASSERT_TRUE(wf.server().start(&error)) << error;

  FaultyTransportOptions to;
  to.port = wf.server().port();
  to.binary = true;
  FaultyTransport transport(to, /*stream=*/2);
  const int requests = 120;
  int served = 0;
  for (int i = 0; i < requests; ++i) {
    const auto outcome = transport.roundTrip(tuneFrame(512 + (i % 16) * 64),
                                             static_cast<std::uint64_t>(i));
    std::string decodeError;
    if (outcome.ok && outcome.opcode == net::kOpTune &&
        serve::wire_binary::decodeTuneResponse(outcome.body, &decodeError)) {
      ++served;
    }
  }
  EXPECT_GT(netChaos.counts().total(), 0u);
  EXPECT_GT(served, requests / 2);
  EXPECT_LE(requests - served, requests / 4);
  EXPECT_TRUE(wf.server().running());
}

}  // namespace
}  // namespace ep::chaos
