// e2ebench_inproc — the in-process side of the benchmark.
//
//   e2ebench_inproc reference --workload NAME --seed S --out FILE
//       The reference answers the correctness gate compares the daemon
//       with: EpStudyEngine at the daemon's seed, then BiObjectiveTuner
//       (tune) or GpuEpStudy::summarize (study).
//
//   e2ebench_inproc trace --workload NAME --seed S --seconds T
//                   --expected FILE --out SPANS
//       The traced run.  The objects epserved wires together (engine ->
//       Broker -> NetService -> net::Server) are built in this process
//       and the workload's seeded stream is replayed through them over
//       loopback, in short passes that alternate between plain and
//       traced.  A traced pass has the benchmark's spans at three public
//       seams (the BatchHandler handed to net::Server, a TuningEngine
//       decorator handed to Broker, and a MeasureObserver).  After each
//       traced pass the codecs, the tuner, runConfig and
//       finalizeWorkload are timed on the recorded inputs.  Prints one JSON object of
//       per-layer figures; the kept spans go to SPANS (tab-separated).
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "codec.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/study.hpp"
#include "core/tuner.hpp"
#include "client.hpp"
#include "hw/gpu_model.hpp"
#include "hw/spec.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "power/observer.hpp"
#include "proc.hpp"
#include "serve/broker.hpp"
#include "serve/engine.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "serve/wire_binary.hpp"
#include "workload.hpp"

namespace e2e {
namespace {

using ep::serve::Device;

// A study as the traced pass ran it.
struct KeptStudy {
  Device device = Device::P100;
  std::shared_ptr<const ep::core::WorkloadResult> result;
};

Device deviceOf(int d) { return d == 1 ? Device::K40c : Device::P100; }

struct Args {
  std::string mode;
  std::string workload;
  std::string out;
  std::string expected;
  std::uint64_t seed = 1;
  double seconds = 10.0;
};

ep::serve::EpStudyEngineOptions engineOptions(const Workload& w) {
  ep::serve::EpStudyEngineOptions o;
  o.seed = w.daemonSeed;
  o.useMeter = w.meter;
  return o;
}

// --------------------------------------------------------------- reference

TuneExpect expectFrom(const ep::core::TunerRecommendation& rec) {
  return TuneExpect{rec.recommended.label,
                    rec.recommended.time.value(),
                    rec.recommended.energy.value(),
                    rec.energySavings,
                    rec.performanceDegradation,
                    rec.performanceOptimal.label,
                    rec.energyOptimal.label,
                    rec.knee.label,
                    rec.globalFront.size()};
}

int reference(const Workload& w, int nproc, const std::string& path) {
  const ep::serve::EpStudyEngine engine(engineOptions(w));
  ep::ThreadPool pool(static_cast<std::size_t>(nproc));
  std::string text;
  for (const Request& r : w.verify) {
    if (r.study) {
      std::vector<ep::core::WorkloadResult> results;
      StudyExpect e;
      for (int n = r.n; n <= r.nEnd; n += r.nStep) {
        results.push_back(engine.evaluate(deviceOf(r.device), n, &pool));
        e.windows += ep::core::attributeEnergy(results.back()).windows;
        ++e.studies;
      }
      const ep::core::FrontStatistics s =
          ep::core::GpuEpStudy::summarize(results);
      e.workloads = s.workloads;
      e.avgGlobalFrontSize = s.avgGlobalFrontSize;
      e.maxGlobalFrontSize = s.maxGlobalFrontSize;
      e.avgLocalFrontSize = s.avgLocalFrontSize;
      e.maxLocalFrontSize = s.maxLocalFrontSize;
      e.maxGlobalSavings = s.maxGlobalSavings;
      e.degradationAtMaxGlobalSavings = s.degradationAtMaxGlobalSavings;
      e.maxLocalSavings = s.maxLocalSavings;
      e.degradationAtMaxLocalSavings = s.degradationAtMaxLocalSavings;
      text += Expected::formatStudy(r, e) + "\n";
      continue;
    }
    const ep::core::WorkloadResult result =
        engine.evaluate(deviceOf(r.device), r.n, &pool);
    for (int b = 0; b < kBudgetCount; ++b) {
      Request q = r;
      q.budget = b;
      const ep::core::BiObjectiveTuner tuner(kBudgets[b]);
      text += Expected::formatTune(
                  q, expectFrom(tuner.recommend(result.globalFront))) +
              "\n";
    }
  }
  std::ofstream f(path);
  f << text;
  return f ? 0 : 1;
}

// ------------------------------------------------------------------ spans

enum SpanKind { kHandler, kSubmit, kRespond, kStudy, kSpanKinds };
constexpr const char* kSpanNames[] = {"net.handler", "serve.submit",
                                      "serve.respond", "core.study"};

// One span as kept in memory and written out at the end.
struct SpanRecord {
  std::uint64_t trace = 0;
  int kind = 0;
  std::uint64_t startNs = 0;
  std::uint64_t endNs = 0;
  std::uint64_t selfNs = 0;
};

// The benchmark's spans.  Each span adds its duration to its parent's
// child time (a per-thread stack), so a layer's self time is its span
// minus its child spans.
class SpanLog {
 public:
  static constexpr std::size_t kKept = 1 << 16;

  // Start of the timed phase: per-request span totals restart; the
  // per-study figures (time, configs, windows, queue wait) keep covering
  // every study of the pass, warm-up included, so a workload whose timed
  // phase runs none still reports them.
  void reset() {
    for (auto& ns : selfNs_) ns = 0;
    timedStudies_ = 0;
  }

  void close(int kind, std::uint64_t trace, std::uint64_t start,
             std::uint64_t end, std::uint64_t childNs) {
    const std::uint64_t self = end - start - std::min(end - start, childNs);
    selfNs_[kind].fetch_add(self, std::memory_order_relaxed);
    if (kind == kStudy) {
      timedStudies_.fetch_add(1, std::memory_order_relaxed);
      studyNs_.fetch_add(self, std::memory_order_relaxed);
    }
    std::lock_guard lk(mu_);
    if (kept_.size() < kKept) kept_.push_back({trace, kind, start, end, self});
  }

  // Queue wait: from batch submission to the start of the study the
  // request owns.
  void studyStarted(Device d, int n, std::uint64_t t) {
    std::lock_guard lk(mu_);
    studyStart_[{static_cast<int>(d), n}] = t;
    if (const std::uint64_t s = studySubmitted_.exchange(0); s != 0) {
      queueWaitNs_ += t - s;
      ++queueWaits_;
    }
  }
  void ownerAnswered(Device d, int n, std::uint64_t submitted) {
    std::lock_guard lk(mu_);
    const auto it = studyStart_.find({static_cast<int>(d), n});
    if (it != studyStart_.end() && it->second >= submitted) {
      queueWaitNs_ += it->second - submitted;
      ++queueWaits_;
    }
  }
  void studySubmitted(std::uint64_t t) { studySubmitted_.store(t); }
  void studyDone(std::size_t configs) {
    studies_.fetch_add(1);
    configs_.fetch_add(configs);
  }
  void window() { windows_.fetch_add(1, std::memory_order_relaxed); }

  std::atomic<std::uint64_t> selfNs_[kSpanKinds]{};
  std::atomic<std::uint64_t> timedStudies_{0};  // since reset()
  std::atomic<std::uint64_t> studyNs_{0};
  std::atomic<std::uint64_t> studies_{0};
  std::atomic<std::uint64_t> configs_{0};
  std::atomic<std::uint64_t> windows_{0};
  std::uint64_t queueWaitNs_ = 0;  // guarded by mu_
  std::uint64_t queueWaits_ = 0;   // guarded by mu_
  std::vector<SpanRecord> kept_;   // guarded by mu_

  std::mutex& mu() { return mu_; }

 private:
  std::mutex mu_;
  std::map<std::pair<int, int>, std::uint64_t> studyStart_;
  std::atomic<std::uint64_t> studySubmitted_{0};
};

thread_local std::vector<std::uint64_t> tChildNs;

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, int kind, std::uint64_t trace)
      : log_(log), kind_(kind), trace_(trace), start_(monotonicNs()) {
    tChildNs.push_back(0);
  }
  ~ScopedSpan() {
    const std::uint64_t end = monotonicNs();
    const std::uint64_t child = tChildNs.back();
    tChildNs.pop_back();
    if (!tChildNs.empty()) tChildNs.back() += end - start_;
    log_.close(kind_, trace_, start_, end, child);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int kind_;
  std::uint64_t trace_;
  std::uint64_t start_;
};

// Seam 2: a TuningEngine decorator around EpStudyEngine.
class TracedEngine final : public ep::serve::TuningEngine {
 public:
  TracedEngine(std::shared_ptr<const ep::serve::TuningEngine> inner,
               SpanLog* log)
      : inner_(std::move(inner)), log_(log) {}

  [[nodiscard]] std::uint64_t tuningHash(Device device) const override {
    return inner_->tuningHash(device);
  }

  [[nodiscard]] ep::core::WorkloadResult evaluate(
      Device device, int n, ep::ThreadPool* pool) const override {
    log_->studyStarted(device, n, monotonicNs());
    ScopedSpan span(*log_, kStudy, ep::obs::currentContext().traceId);
    ep::core::WorkloadResult r = inner_->evaluate(device, n, pool);
    log_->studyDone(r.data.size());
    std::lock_guard lk(mu_);
    if (kept_.size() < 64) {
      kept_.push_back({device, std::make_shared<ep::core::WorkloadResult>(r)});
    }
    return r;
  }

  // Copies of the first studies, for the replay timings.
  [[nodiscard]] std::vector<KeptStudy> kept() const {
    std::lock_guard lk(mu_);
    return kept_;
  }

 private:
  std::shared_ptr<const ep::serve::TuningEngine> inner_;
  SpanLog* log_;
  mutable std::mutex mu_;
  mutable std::vector<KeptStudy> kept_;
};

// Seam 3: counts accepted measurement windows.
class WindowCounter final : public ep::power::MeasureObserver {
 public:
  explicit WindowCounter(SpanLog* log) : log_(log) {}
  void onMeasureWindow(const ep::power::MeasureWindowObservation&) override {
    log_->window();
  }
  void onMeasurementResult(const char*, bool, double) override {}

 private:
  SpanLog* log_;
};

// ------------------------------------------------------------ traced run

double processCpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

struct PassResult {
  PhaseResult phase;
  double serverCpuS = 0.0;
  bool ok = false;
  std::vector<KeptStudy> studies;
};

// epserved's wiring, built in this process.  With `log` set, the
// benchmark's spans sit at the BatchHandler, the engine and the tune
// completions; without it the hooks are epserved's own.
PassResult runPass(const Workload& w, const Expected& expected, double seconds,
                   SpanLog* log, std::string* error) {
  PassResult out;
  auto inner = std::make_shared<ep::serve::EpStudyEngine>(engineOptions(w));
  std::shared_ptr<TracedEngine> traced;
  std::shared_ptr<const ep::serve::TuningEngine> engine = inner;
  if (log != nullptr) {
    traced = std::make_shared<TracedEngine>(inner, log);
    engine = traced;
  }
  ep::serve::BrokerOptions bo;
  bo.threads = static_cast<std::size_t>(w.daemonThreads);
  if (w.cache > 0) bo.cacheCapacity = static_cast<std::size_t>(w.cache);
  ep::serve::Broker broker(engine, bo);

  ep::serve::NetServiceHooks hooks;
  hooks.tuneBatch = [&broker,
                     log](std::vector<ep::serve::ServiceTuneItem>&& items) {
    std::unique_ptr<ScopedSpan> span;
    if (log != nullptr) span = std::make_unique<ScopedSpan>(*log, kSubmit, 0);
    std::vector<ep::serve::Broker::TuneBatchItem> batch;
    batch.reserve(items.size());
    for (auto& item : items) {
      ep::serve::Broker::TuneBatchItem member;
      member.req = item.req;
      member.ctx = item.ctx;
      if (log == nullptr) {
        member.done = std::move(item.done);
      } else {
        member.done = [log, done = std::move(item.done), req = item.req,
                       trace = item.ctx.traceId,
                       submitted = monotonicNs()](ep::serve::TuneResponse&& r) {
          if (r.report.studiesExecuted == 1) {
            log->ownerAnswered(req.device, req.n, submitted);
          }
          ScopedSpan s(*log, kRespond, trace);
          done(std::move(r));
        };
      }
      batch.push_back(std::move(member));
    }
    broker.submitTuneBatch(std::move(batch));
  };
  hooks.study = [&broker, log](const ep::serve::StudyRequest& req) {
    if (log != nullptr) log->studySubmitted(monotonicNs());
    return broker.study(req);
  };
  hooks.control = [&broker](const ep::serve::wire::WireRequest& req) {
    if (req.op == ep::serve::wire::WireRequest::Op::Metrics) {
      return ep::serve::wire::encodeTextBody(broker.renderPrometheus());
    }
    return ep::serve::wire::encodeError("unsupported op");
  };
  ep::serve::NetService service(std::move(hooks));

  // Seam 1: the BatchHandler handed to net::Server.
  ep::net::BatchHandler handler = service.handler();
  if (log != nullptr) {
    handler = [log, inner = std::move(handler)](
                  ep::net::Server& s, std::vector<ep::net::InboundFrame>&& b) {
      ScopedSpan span(*log, kHandler, 0);
      inner(s, std::move(b));
    };
  }
  ep::net::ServerOptions so;
  so.eventThreads = 1;
  ep::net::Server server(so, handler);
  if (!server.start(error)) return out;

  ClosedLoopClient client(w, expected);
  Tally warm;
  if (!client.connect(server.port(), error) || !client.warmup(&warm, error)) {
    server.stop();
    service.stop();
    return out;
  }
  if (log != nullptr) log->reset();
  const double cpu0 = processCpuNow();
  out.phase = client.run(seconds, 0);
  out.serverCpuS = processCpuNow() - cpu0 - out.phase.clientCpuS;
  out.ok = warm.failed == 0 && out.phase.tally.failed == 0;
  for (const std::string& e : warm.errors) *error += e + "; ";
  for (const std::string& e : out.phase.tally.errors) *error += e + "; ";
  server.stop();
  service.stop();
  broker.shutdown();
  if (traced != nullptr) out.studies = traced->kept();
  return out;
}

// Mean time of one call of `fn` over `inputs`, repeating passes until
// at least `minMs` of work was timed.
template <typename T, typename Fn>
double meanUs(const std::vector<T>& inputs, Fn fn, double minMs = 10.0) {
  if (inputs.empty()) return 0.0;
  std::size_t calls = 0;
  const std::uint64_t start = monotonicNs();
  std::uint64_t elapsed = 0;
  do {
    for (const T& x : inputs) fn(x);
    calls += inputs.size();
    elapsed = monotonicNs() - start;
  } while (static_cast<double>(elapsed) < minMs * 1e6);
  return static_cast<double>(elapsed) * 1e-3 / static_cast<double>(calls);
}

template <typename T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

// The replay timings, in us per call.
enum ReplayItem {
  kNetDecode,
  kEpb1Decode,
  kEpb1Encode,
  kJsonDecode,
  kJsonEncode,
  kRecommend,
  kAdmit,
  kFront,
  kConfig,
  kWindow,
  kReplayItems
};
using Replay = std::array<double, kReplayItems>;

// The codecs, the tuner, admission, runConfig and finalizeWorkload on
// the workload's recorded inputs.  The inputs are built once; time()
// runs one round of timings.  Study requests stand in as tune requests
// for their first size, so the tune codecs are timed on every workload.
class ReplayBench {
 public:
  ReplayBench(const Workload& w, const std::vector<KeptStudy>& studies)
      : w_(w), rng_(w.daemonSeed) {
    const std::vector<Request>& stream = w.streams[0];
    const std::size_t count = std::min<std::size_t>(stream.size(), 4096);
    for (std::size_t i = 0; i < count; ++i) {
      Request r = stream[i];
      if (r.study) r = Request{false, r.device, r.n, 0, 0, 1};
      reqs_.push_back(r);
      const std::string trace = traceIdFor(0, i);
      epb1Bodies_.push_back(epb1TuneBody(r, trace));
      jsonTexts_.push_back(jsonRequestText(r, trace));
      inbound_ += encodeRequest(stream[i], trace);
    }

    // Fronts for the recorded keys, from model-direct studies (the tuner
    // and the codecs see the same front shapes either way).
    ep::serve::EpStudyEngineOptions direct = engineOptions(w);
    direct.useMeter = false;
    const ep::serve::EpStudyEngine engine(direct);
    for (const Request& r : reqs_) {
      auto& slot = results_[{r.device, r.n}];
      if (slot == nullptr) {
        slot = std::make_shared<ep::core::WorkloadResult>(
            engine.evaluate(deviceOf(r.device), r.n));
      }
    }
    for (const Request& r : reqs_) {
      const auto& front = results_.at({r.device, r.n})->globalFront;
      tuneInputs_.push_back({front, kBudgets[r.budget]});
      ep::serve::TuneResponse resp;
      resp.cacheHit = true;
      resp.report.cacheHits = 1;
      resp.recommendation =
          ep::core::BiObjectiveTuner(kBudgets[r.budget]).recommend(front);
      resp.latency = ep::Seconds{1.5e-4};
      responses_.push_back(std::move(resp));
    }

    // A broker whose cache holds every recorded key, so each admitted
    // item completes inline: admission, LRU lookup, tuner step,
    // completion.
    ep::serve::BrokerOptions bo;
    bo.threads = 1;
    bo.cacheCapacity = results_.size();
    broker_ = std::make_unique<ep::serve::Broker>(
        std::make_shared<ep::serve::EpStudyEngine>(direct), bo);
    for (const auto& kv : results_) {
      Request r;
      r.device = kv.first.first;
      r.n = kv.first.second;
      r.budget = 1;
      keep(broker_->tune(tuneOf(r)));
    }

    sample_ = studies;
    if (sample_.empty()) {
      for (const auto& [key, result] : results_) {
        if (sample_.size() == 16) break;
        sample_.push_back({deviceOf(key.first), result});
      }
    }
    for (const KeptStudy& st : sample_) {
      for (std::size_t i = 0;
           i < st.result->data.size() && configs_.size() < 512; i += 4) {
        configs_.push_back({st.device == Device::K40c ? 1 : 0,
                            st.result->data[i].config});
      }
    }
    for (int device = 0; device < 2; ++device) {
      apps_.push_back(appFor(device, w.meter));
      metered_.push_back(appFor(device, true));
    }
  }

  [[nodiscard]] Replay time(SpanLog* log) const {
    Replay out{};
    // net: the frame decoder over the recorded inbound bytes, in reads of
    // the size the event loop would see with this workload's pipelining.
    {
      const std::size_t chunk = 64 * static_cast<std::size_t>(w_.window);
      std::vector<ep::net::Frame> frames;
      std::size_t decoded = 0;
      const std::uint64_t start = monotonicNs();
      std::uint64_t elapsed = 0;
      do {
        ep::net::FrameDecoder dec(std::size_t{1} << 20);
        for (std::size_t pos = 0; pos < inbound_.size(); pos += chunk) {
          frames.clear();
          dec.feed(std::string_view(inbound_).substr(pos, chunk), &frames);
          decoded += frames.size();
        }
        elapsed = monotonicNs() - start;
      } while (elapsed < 10000000ULL);
      out[kNetDecode] = static_cast<double>(elapsed) * 1e-3 /
                        static_cast<double>(std::max<std::size_t>(decoded, 1));
    }

    out[kEpb1Decode] = meanUs(epb1Bodies_, [](const std::string& b) {
      std::string err;
      keep(ep::serve::wire_binary::decodeTuneRequest(b, &err));
    });
    out[kJsonDecode] = meanUs(jsonTexts_, [](const std::string& t) {
      std::string err;
      keep(ep::serve::wire::decodeRequest(t, &err));
    });
    out[kRecommend] = meanUs(tuneInputs_, [](const TuneInput& in) {
      keep(ep::core::BiObjectiveTuner(in.budget).recommend(in.front));
    });
    out[kAdmit] = admitUs();
    const std::string trace = traceIdFor(0, 12345);
    using ep::serve::TuneResponse;
    out[kEpb1Encode] = meanUs(responses_, [&trace](const TuneResponse& r) {
      keep(ep::serve::wire_binary::encodeTuneResponse(r, trace, true));
    });
    out[kJsonEncode] = meanUs(responses_, [&trace](const TuneResponse& r) {
      keep(ep::serve::wire::encodeTuneResponse(r, trace, true));
    });

    // pareto: rebuilding a study's points, fronts and trade-offs.
    out[kFront] = meanUs(sample_, [](const KeptStudy& st) {
      ep::core::WorkloadResult copy;
      copy.n = st.result->n;
      copy.data = st.result->data;
      ep::core::finalizeWorkload(copy);
      keep(copy);
    });

    // apps + power: one configuration through the app as the workload's
    // engine runs it, and through the metered protocol (window time).
    out[kConfig] = meanUs(configs_, [&](const ConfigInput& c) {
      ep::Rng r = rng_.fork(ep::apps::GpuMatMulApp::forkSalt(c.config));
      keep(apps_[c.device].runConfig(c.config, r));
    }, 15.0);
    const std::size_t few = std::min<std::size_t>(configs_.size(), 24);
    const std::uint64_t w0 = log->windows_.load();
    const std::uint64_t t0 = monotonicNs();
    for (std::size_t i = 0; i < few; ++i) {
      ep::Rng r =
          rng_.fork(ep::apps::GpuMatMulApp::forkSalt(configs_[i].config));
      keep(metered_[configs_[i].device].runConfig(configs_[i].config, r));
    }
    const double us = static_cast<double>(monotonicNs() - t0) * 1e-3;
    const std::uint64_t windows = log->windows_.load() - w0;
    out[kWindow] = windows > 0 ? us / static_cast<double>(windows) : 0.0;
    return out;
  }

 private:
  struct TuneInput {
    const std::vector<ep::pareto::BiPoint>& front;
    double budget;
  };
  struct ConfigInput {
    int device;
    ep::hw::MatMulConfig config;
  };

  static ep::serve::TuneRequest tuneOf(const Request& r) {
    ep::serve::TuneRequest t;
    t.device = deviceOf(r.device);
    t.n = r.n;
    t.maxDegradation = kBudgets[r.budget];
    return t;
  }

  static ep::apps::GpuMatMulApp appFor(int device, bool meter) {
    ep::apps::GpuMatMulOptions o;
    o.useMeter = meter;
    return ep::apps::GpuMatMulApp(
        ep::hw::GpuModel(device == 1 ? ep::hw::nvidiaK40c()
                                     : ep::hw::nvidiaP100Pcie()),
        o);
  }

  // Broker::submitTuneBatch per item on the recorded requests, in
  // batches of the workload's in-flight size.
  [[nodiscard]] double admitUs() const {
    const auto batch = static_cast<std::size_t>(w_.connections * w_.window);
    std::size_t items = 0;
    std::uint64_t elapsed = 0;
    while (elapsed < 10000000ULL) {
      std::vector<std::vector<ep::serve::Broker::TuneBatchItem>> batches;
      for (std::size_t i = 0; i < reqs_.size(); i += batch) {
        std::vector<ep::serve::Broker::TuneBatchItem> b;
        for (std::size_t j = i; j < std::min(reqs_.size(), i + batch); ++j) {
          ep::serve::Broker::TuneBatchItem item;
          item.req = tuneOf(reqs_[j]);
          item.done = [](ep::serve::TuneResponse&& r) { keep(r); };
          b.push_back(std::move(item));
        }
        batches.push_back(std::move(b));
      }
      const std::uint64_t t0 = monotonicNs();
      for (auto& b : batches) {
        items += b.size();
        broker_->submitTuneBatch(std::move(b));
      }
      elapsed += monotonicNs() - t0;
    }
    return static_cast<double>(elapsed) * 1e-3 / static_cast<double>(items);
  }

  const Workload& w_;
  const ep::Rng rng_;
  std::vector<Request> reqs_;
  std::vector<std::string> epb1Bodies_;
  std::vector<std::string> jsonTexts_;
  std::string inbound_;
  std::map<std::pair<int, int>, std::shared_ptr<const ep::core::WorkloadResult>>
      results_;
  std::vector<TuneInput> tuneInputs_;
  std::vector<ep::serve::TuneResponse> responses_;
  std::unique_ptr<ep::serve::Broker> broker_;
  std::vector<KeptStudy> sample_;
  std::vector<ConfigInput> configs_;
  std::vector<ep::apps::GpuMatMulApp> apps_;
  std::vector<ep::apps::GpuMatMulApp> metered_;
};

void metric(bool* first, const char* name, double value, const char* unit) {
  std::printf("%s\"%s\":{\"value\":%.9g,\"unit\":\"%s\"}", *first ? "" : ",",
              name, value, unit);
  *first = false;
}

// Plain and traced passes alternate, each traced pass followed by a round
// of replay timings, so a change in the host's speed weighs on the
// plain and the traced figures alike.
constexpr int kRounds = 4;

int trace(const Workload& w, const Expected& expected, double seconds,
          const std::string& spansPath) {
  SpanLog log;
  WindowCounter windows(&log);
  std::string error;
  const double passSeconds = seconds / (2 * kRounds);
  double plainP50 = 0.0;
  double tracedP50 = 0.0;
  double requests = 0.0;
  double serverCpuS = 0.0;
  double timedStudies = 0.0;
  double passWindows = 0.0;
  double selfNs[kSpanKinds] = {};
  std::unique_ptr<ReplayBench> bench;
  Replay rp{};
  for (int round = 0; round < kRounds; ++round) {
    const PassResult plain = runPass(w, expected, passSeconds, nullptr, &error);
    ep::power::setMeasureObserver(&windows);
    const std::uint64_t w0 = log.windows_.load();
    const PassResult traced = runPass(w, expected, passSeconds, &log, &error);
    if (!plain.ok || !traced.ok) {
      ep::power::setMeasureObserver(nullptr);
      std::fprintf(stderr, "traced run failed: %s\n", error.c_str());
      return 1;
    }
    // The traced pass's figures, before the replay adds its own windows.
    passWindows += static_cast<double>(log.windows_.load() - w0);
    plainP50 += plain.phase.latency.quantile(0.5);
    tracedP50 += traced.phase.latency.quantile(0.5);
    requests += static_cast<double>(traced.phase.tally.ok);
    serverCpuS += traced.serverCpuS;
    timedStudies += static_cast<double>(log.timedStudies_.load());
    for (int k = 0; k < kSpanKinds; ++k) {
      selfNs[k] += static_cast<double>(log.selfNs_[k].load());
    }
    if (bench == nullptr) {
      bench = std::make_unique<ReplayBench>(w, traced.studies);
    }
    const Replay r = bench->time(&log);
    for (int i = 0; i < kReplayItems; ++i) rp[i] += r[i] / kRounds;
    ep::power::setMeasureObserver(nullptr);
  }
  requests = std::max(1.0, requests);
  double selfUs[kSpanKinds];
  for (int k = 0; k < kSpanKinds; ++k) selfUs[k] = selfNs[k] * 1e-3 / requests;
  const double studies = static_cast<double>(log.studies_.load());
  const double configs = static_cast<double>(log.configs_.load());
  const double serverUs = serverCpuS * 1e6 / requests;
  double queueWaitMs = 0.0;
  {
    std::lock_guard lk(log.mu());
    if (log.queueWaits_ > 0) {
      queueWaitMs = static_cast<double>(log.queueWaitNs_) * 1e-6 /
                    static_cast<double>(log.queueWaits_);
    }
  }

  // Server CPU per request, split by layer.  The event thread's spans are
  // single-threaded, so their self time is CPU time.  A study fans out
  // over the pool, so its CPU is taken as its configurations times the
  // replayed runConfig cost (apps + power) plus the replayed front
  // rebuild (pareto).
  const double configsPerStudy = studies > 0 ? configs / studies : 0.0;
  const double studiesPerReq = timedStudies / requests;
  const double appsUs = studiesPerReq * configsPerStudy * rp[kConfig];
  const double paretoUs = studiesPerReq * rp[kFront];
  const double attributedUs = selfUs[kHandler] + selfUs[kSubmit] +
                              selfUs[kRespond] + appsUs + paretoUs;

  {
    std::ofstream f(spansPath);
    f << "trace_id\tspan\tstart_ns\tend_ns\tself_ns\n";
    std::lock_guard lk(log.mu());
    for (const SpanRecord& sr : log.kept_) {
      f << sr.trace << '\t' << kSpanNames[sr.kind] << '\t' << sr.startNs
        << '\t' << sr.endNs << '\t' << sr.selfNs << '\n';
    }
  }

  bool first = true;
  std::printf("{\"metrics\":{");
  metric(&first, "net.decode_us", rp[kNetDecode], "us");
  metric(&first, "serve.epb1_decode_us", rp[kEpb1Decode], "us");
  metric(&first, "serve.epb1_encode_us", rp[kEpb1Encode], "us");
  metric(&first, "serve.json_decode_us", rp[kJsonDecode], "us");
  metric(&first, "serve.json_encode_us", rp[kJsonEncode], "us");
  metric(&first, "serve.dispatch_us", selfUs[kHandler], "us");
  metric(&first, "serve.admit_us", rp[kAdmit], "us");
  metric(&first, "serve.queue_wait_ms", queueWaitMs, "ms");
  metric(&first, "core.recommend_us", rp[kRecommend], "us");
  metric(&first, "core.study_ms",
         studies > 0 ? static_cast<double>(log.studyNs_.load()) * 1e-6 / studies
                     : 0.0,
         "ms");
  metric(&first, "core.configs_per_study", configsPerStudy, "count");
  metric(&first, "apps.config_us", rp[kConfig], "us");
  metric(&first, "power.windows_per_config",
         configs > 0 ? passWindows / configs : 0.0, "count");
  metric(&first, "power.window_us", rp[kWindow], "us");
  metric(&first, "pareto.front_us", rp[kFront], "us");
  metric(&first, "trace.server_cpu_us", serverUs, "us");
  metric(&first, "trace.unattributed_share", 1.0 - attributedUs / serverUs,
         "ratio");
  metric(&first, "trace.p50_inflation", tracedP50 / plainP50, "ratio");
  std::printf("},\"accounting_us_per_req\":{\"server_cpu\":%.6g,"
              "\"net.handler_self\":%.6g,\"serve.submit_self\":%.6g,"
              "\"serve.respond\":%.6g,\"apps+power\":%.6g,\"pareto\":%.6g,"
              "\"studies_per_req\":%.6g}}\n",
              serverUs, selfUs[kHandler], selfUs[kSubmit], selfUs[kRespond],
              appsUs, paretoUs, studiesPerReq);
  return 0;
}

bool parseArgs(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--out") {
      a->out = v;
    } else if (k == "--expected") {
      a->expected = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else {
      return false;
    }
  }
  return argc % 2 == 0 && !a->workload.empty();
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args a;
  if (!e2e::parseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: e2ebench_inproc reference --workload NAME --seed S "
                 "--out FILE\n"
                 "       e2ebench_inproc trace --workload NAME --seed S "
                 "--seconds T --expected FILE --out SPANS\n");
    return 2;
  }
  const int nproc = static_cast<int>(e2e::allowedCpus().size());
  e2e::Workload w;
  if (!e2e::makeWorkload(a.workload, a.seed, nproc, &w)) {
    std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  if (a.mode == "reference" && !a.out.empty()) {
    return e2e::reference(w, nproc, a.out);
  }
  if (a.mode == "trace" && !a.expected.empty() && !a.out.empty()) {
    std::ifstream f(a.expected);
    std::stringstream s;
    s << f.rdbuf();
    e2e::Expected expected;
    std::string error;
    if (!f || !expected.parse(s.str(), &error)) {
      std::fprintf(stderr, "cannot read %s %s\n", a.expected.c_str(),
                   error.c_str());
      return 2;
    }
    return e2e::trace(w, expected, a.seconds, a.out);
  }
  std::fprintf(stderr, "unknown mode %s\n", a.mode.c_str());
  return 2;
}
