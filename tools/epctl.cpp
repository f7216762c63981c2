// epctl — the operator client for epserved: a load generator, a
// one-shot request sender and three live dashboards.
//
// Usage:
//   epctl load  [--host H] [--port P] [--requests R] [--connections C]
//               [--device p100|k40c|auto] [--n N[,N...]] [--budget B]
//               [--deadline-ms D] [--trace-id ID] [--report]
//               [--binary] [--pipeline W] [--retry N] [--backoff]
//   epctl send  [--host H] [--port P] '<json line>'
//   epctl top   [--host H] [--port P] [--interval-ms MS] [--once] [--check]
//   epctl watch [--host H] [--port P] [--since SEQ] [--check] [--raw]
//   epctl prof  [--host H] [--port P] [--kind cpu|energy] [--scope cluster]
//               [--top N] [--interval-ms MS] [--once] [--start]
//               [--period-us US] [--energy-only] [--stop] [--clear]
//               [--collapse FILE] [--speedscope FILE]
//               [--check FRAME --min-share X] [--check-total J --tol FRAC]
//
// No subcommand, an unknown one, a flag the subcommand does not take or
// a bad flag value prints this usage and exits 2.
//
// load sends --requests tune requests per connection, cycling through
// the --n workload list, and reports client-side latency percentiles
// and requests/sec.  --device is checked against the device table
// before anything is sent ("auto" leaves placement to the fleet
// router), so both framings ask for the same device.  --trace-id tags
// every request with the given trace (the server's {"op":"trace"}
// export then shows its span tree); --report asks for the per-request
// energy-attribution ledger and prints the summed attributed joules,
// which over any request mix equals the energy of the studies actually
// executed.  --binary speaks the EPB1 framing (net/frame.hpp) with the
// compact tune codec (serve/wire_binary.hpp) instead of line JSON;
// --pipeline W keeps up to W requests in flight per connection with
// one send() per window refill, which is how the event loop's
// cross-connection batching is fed.  --retry N re-sends requests the
// server shed (overloaded, queue_full, circuit_open) up to N times each
// once the window drains, under a process-wide retry budget
// (chaos/retry.hpp); --backoff spaces the attempts with the seeded
// exponential backoff plus jitter that the chaos tests pin.
//
// send writes one verbatim request line and prints the response line:
// any op, e.g. {"op":"study",...}, {"op":"metrics"} or
// {"op":"fleet","action":"kill","shard":"s1"}.  It exits 0 iff the
// response says status ok.
//
// top polls the observability plane and renders one screen per
// interval: per-shard serving state from {"op":"fleet"} (a
// single-broker daemon has no shard rows), cluster p50/p99 from
// {"op":"tsdb"}, every SLO's burn gauge from {"op":"slo"} and the
// active alert count from {"op":"events"}.  --check exits 2 while any
// SLO is burning.
//
// watch renders the watchdog flight recorder ({"op":"events"}): every
// drained event (a [shard] column when the event carries one) and the
// per-device request-attributed energy ledger.  --since SEQ drains only
// events newer than SEQ; --raw dumps the event lines verbatim.
// --check exits 2 while any anomaly is raised and not yet cleared.
//
// prof drives the continuous profiler.  By default it is a live view
// of the top frames (inclusive weight and share).  --start/--stop/
// --clear act and exit; --collapse/--speedscope write one snapshot's
// flamegraph input.  --check FRAME --min-share X exits 2 unless FRAME's
// inclusive share of the profile weight is >= X; --check-total J --tol
// FRAC exits 2 unless the total weight is within FRAC of J
// (|total - J| <= FRAC * max(J, eps)).
//
// top and prof repaint until interrupted; --once draws one frame
// without clearing the screen.  Exit status: 0 ok, 1 could not connect
// or the server answered garbage or an error, 2 usage or a failed check.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "chaos/retry.hpp"
#include "common/cli.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "serve/wire.hpp"
#include "serve/wire_binary.hpp"

namespace {

namespace wire = ep::serve::wire;
using wire::Object;
using Clock = std::chrono::steady_clock;

constexpr const char* kUsage =
    "usage: epctl load  [--host H] [--port P] [--requests R]"
    " [--connections C]\n"
    "                   [--device p100|k40c|auto] [--n N[,N...]]"
    " [--budget B]\n"
    "                   [--deadline-ms D] [--trace-id ID] [--report]\n"
    "                   [--binary] [--pipeline W] [--retry N] [--backoff]\n"
    "       epctl send  [--host H] [--port P] '<json line>'\n"
    "       epctl top   [--host H] [--port P] [--interval-ms MS] [--once]"
    " [--check]\n"
    "       epctl watch [--host H] [--port P] [--since SEQ] [--check]"
    " [--raw]\n"
    "       epctl prof  [--host H] [--port P] [--kind cpu|energy]"
    " [--scope cluster]\n"
    "                   [--top N] [--interval-ms MS] [--once] [--start]\n"
    "                   [--period-us US] [--energy-only] [--stop]"
    " [--clear]\n"
    "                   [--collapse FILE] [--speedscope FILE]\n"
    "                   [--check FRAME --min-share X]"
    " [--check-total J --tol FRAC]\n";

// The subcommands, as bits so one flag row can name each that takes it.
enum Cmd : unsigned { kLoad = 1, kSend = 2, kTop = 4, kWatch = 8, kProf = 16 };
constexpr std::pair<const char*, Cmd> kCommands[] = {
    {"load", kLoad}, {"send", kSend}, {"top", kTop},
    {"watch", kWatch}, {"prof", kProf}};

struct Args {
  Cmd cmd = kLoad;
  std::string host = "127.0.0.1";
  std::uint16_t port = 7070;
  // load
  int requests = 100;
  int connections = 1;
  ep::serve::Device device = ep::serve::Device::P100;
  bool deviceAuto = false;
  std::vector<int> ns = {1024};
  double budget = 0.11;
  double deadlineMs = 0.0;
  std::string traceId;
  bool report = false;
  bool binary = false;
  int pipeline = 1;      // in-flight tune requests per connection
  int retry = 0;         // retries per shed request (0 = no retries)
  bool backoff = false;  // exponential backoff + jitter between retries
  // send
  std::string request;
  // top, watch, prof
  std::int64_t intervalMs = 1000;
  bool once = false;
  bool check = false;
  std::uint64_t since = 0;
  bool raw = false;
  std::string kind = "cpu";
  bool cluster = false;
  std::size_t top = 20;
  bool start = false;
  std::uint64_t periodUs = 10000;
  bool energyOnly = false;
  bool stop = false;
  bool clear = false;
  std::string collapseFile;
  std::string speedscopeFile;
  std::string checkFrame;
  double minShare = 0.5;
  double checkTotal = -1.0;
  double tol = 0.05;
};

constexpr int kMaxInt = std::numeric_limits<int>::max();
constexpr double kMax = std::numeric_limits<double>::max();

bool parseIntList(const char* s, std::vector<int>* out) {
  out->clear();
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    int n = 0;
    if (!ep::cli::parseNumber(item.c_str(), 1, kMaxInt, &n)) return false;
    out->push_back(n);
  }
  return !out->empty();
}

// One flag row: its name, the subcommands that take it, and either the
// switch it sets or the parser of its value (false = bad value).
struct Flag {
  const char* name;
  unsigned cmds;
  bool Args::*toggle = nullptr;
  std::function<bool(Args&, const char*)> set = nullptr;
};

Flag text(const char* name, unsigned cmds, std::string Args::*field) {
  return {name, cmds, nullptr, [field](Args& a, const char* v) {
            a.*field = v;
            return true;
          }};
}

template <typename T>
Flag number(const char* name, unsigned cmds, T Args::*field, T lo, T hi) {
  return {name, cmds, nullptr, [=](Args& a, const char* v) {
            return ep::cli::parseNumber(v, lo, hi, &(a.*field));
          }};
}

constexpr unsigned kAll = kLoad | kSend | kTop | kWatch | kProf;

const Flag kFlags[] = {
    text("--host", kAll, &Args::host),
    number<std::uint16_t>("--port", kAll, &Args::port, 1, 65535),
    number("--requests", kLoad, &Args::requests, 1, kMaxInt),
    number("--connections", kLoad, &Args::connections, 1, 4096),
    {"--device", kLoad, nullptr,
     [](Args& a, const char* v) {
       a.deviceAuto = std::strcmp(v, "auto") == 0;
       const auto d = ep::serve::parseDevice(v);
       if (d) a.device = *d;
       return a.deviceAuto || d.has_value();
     }},
    {"--n", kLoad, nullptr,
     [](Args& a, const char* v) { return parseIntList(v, &a.ns); }},
    number("--budget", kLoad, &Args::budget, 0.0, kMax),
    number("--deadline-ms", kLoad, &Args::deadlineMs, 0.0, kMax),
    text("--trace-id", kLoad, &Args::traceId),
    {"--report", kLoad, &Args::report},
    {"--binary", kLoad, &Args::binary},
    number("--pipeline", kLoad, &Args::pipeline, 1, 1 << 16),
    number("--retry", kLoad, &Args::retry, 0, 1 << 16),
    {"--backoff", kLoad, &Args::backoff},
    number<std::int64_t>("--interval-ms", kTop | kProf, &Args::intervalMs, 1,
                         86400000),
    {"--once", kTop | kProf, &Args::once},
    {"--check", kTop | kWatch, &Args::check},
    number<std::uint64_t>("--since", kWatch, &Args::since, 0,
                          ~std::uint64_t{0}),
    {"--raw", kWatch, &Args::raw},
    {"--kind", kProf, nullptr,
     [](Args& a, const char* v) {
       a.kind = v;
       return a.kind == "cpu" || a.kind == "energy";
     }},
    {"--scope", kProf, nullptr,
     [](Args& a, const char* v) {
       a.cluster = std::strcmp(v, "cluster") == 0;
       return a.cluster || std::strcmp(v, "process") == 0;
     }},
    number<std::size_t>("--top", kProf, &Args::top, 0, 1 << 20),
    {"--start", kProf, &Args::start},
    number<std::uint64_t>("--period-us", kProf, &Args::periodUs, 1, 60000000),
    {"--energy-only", kProf, &Args::energyOnly},
    {"--stop", kProf, &Args::stop},
    {"--clear", kProf, &Args::clear},
    text("--collapse", kProf, &Args::collapseFile),
    text("--speedscope", kProf, &Args::speedscopeFile),
    text("--check", kProf, &Args::checkFrame),
    number("--min-share", kProf, &Args::minShare, 0.0, 1.0),
    number("--check-total", kProf, &Args::checkTotal, 0.0, kMax),
    number("--tol", kProf, &Args::tol, 0.0, kMax),
};

bool parseArgs(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  const auto* cmd = std::find_if(
      std::begin(kCommands), std::end(kCommands),
      [&](const auto& c) { return std::strcmp(c.first, argv[1]) == 0; });
  if (cmd == std::end(kCommands)) return false;
  a->cmd = cmd->second;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (a->cmd == kSend && !arg.starts_with("--")) {
      if (!a->request.empty()) return false;  // one request line
      a->request = arg;
      continue;
    }
    const auto* f = std::find_if(
        std::begin(kFlags), std::end(kFlags), [&](const Flag& flag) {
          return arg == flag.name && (flag.cmds & a->cmd) != 0;
        });
    if (f == std::end(kFlags)) return false;
    if (f->toggle != nullptr) {
      a->*(f->toggle) = true;
    } else if (++i == argc || !f->set(*a, argv[i])) {
      return false;
    }
  }
  return a->cmd != kSend || !a->request.empty();
}

// Ask one op over the line-JSON connection; nullopt when the transport
// fails or the answer is not a JSON object.  A {"status":"error"}
// answer still parses: callers check "status" when they care (some ops
// are legitimately absent, e.g. {"op":"slo"} on a daemon with no
// --slo).  `line`, when given, receives the raw answer ("" when none
// arrived).
std::optional<Object> query(ep::net::Client& conn, std::string_view request,
                            std::string* line = nullptr) {
  std::string response;
  std::string& out = line != nullptr ? *line : response;
  out.clear();
  if (!conn.roundTrip(request, &out)) return std::nullopt;
  std::string error;
  return wire::parseObject(out, &error);
}

// The distinct <id>s of an answer's flat "<prefix><id>.<field>" keys,
// in key order: shard ids under "shard.", SLO names under "slo.",
// profile ranks under "top.".
std::vector<std::string> idsUnder(const Object& obj, std::string_view prefix) {
  std::vector<std::string> ids;
  for (auto it = obj.lower_bound(prefix);
       it != obj.end() && it->first.starts_with(prefix); ++it) {
    const std::size_t dot = it->first.find('.', prefix.size());
    if (dot == std::string::npos) continue;
    std::string id = it->first.substr(prefix.size(), dot - prefix.size());
    // Keys sharing "<prefix><id>." are adjacent in a sorted map.
    if (ids.empty() || ids.back() != id) ids.push_back(std::move(id));
  }
  return ids;
}

volatile std::sig_atomic_t gStop = 0;
void handleStopSignal(int) { gStop = 1; }

// The repaint loop of top and prof: draw a frame per interval until
// interrupted, or one with --once.  A frame that cannot be drawn (lost
// connection, garbage answer) ends the loop with exit status 1.
int repaint(const Args& a, const std::function<bool()>& frame) {
  std::signal(SIGINT, handleStopSignal);
  std::signal(SIGTERM, handleStopSignal);
  for (;;) {
    if (!a.once) std::printf("\x1b[H\x1b[2J");
    const bool drawn = frame();
    std::fflush(stdout);
    if (!drawn) {
      std::cerr << "epctl: lost connection to " << a.host << ":" << a.port
                << "\n";
      return 1;
    }
    if (a.once || gStop) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(a.intervalMs));
    if (gStop) return 0;
  }
}

// ---- load -------------------------------------------------------------

struct WorkerResult {
  std::vector<double> latenciesMs;
  int ok = 0;
  int rejected = 0;
  int errors = 0;
  double attributedJoules = 0.0;
  std::uint64_t studiesExecuted = 0;
  int retriesAttempted = 0;
  int retriesRecovered = 0;   // shed requests that succeeded on retry
  int retriesDenied = 0;      // retry budget refused the attempt
};

std::string tuneLine(const Args& a, int n) {
  wire::ObjectWriter w;
  w.add("op", "tune")
      .add("device", a.deviceAuto ? "auto" : ep::serve::deviceName(a.device))
      .add("n", n)
      .add("maxDegradation", a.budget);
  if (a.deadlineMs > 0.0) w.add("deadlineMs", a.deadlineMs);
  if (!a.traceId.empty()) w.add("trace_id", a.traceId);
  if (a.report) w.add("report", true);
  return w.str();
}

// Tally one response (either framing) into the result.  When
// `mayRetry` is set, a retryable rejection (overloaded / queue_full /
// circuit_open) is NOT counted — the caller re-sends it — and true is
// returned; everything else is counted and returns false.
bool tally(const std::string& payload, bool binary, double ms, bool mayRetry,
           WorkerResult* out) {
  std::string status;
  ep::serve::RequestReport report;  // zero unless the answer carries one
  std::string err;
  if (binary) {
    const auto r = ep::serve::wire_binary::decodeTuneResponse(payload, &err);
    if (r) {
      status = ep::serve::statusName(r->status);
      report = r->report;
    }
  } else if (const auto obj = wire::parseObject(payload, &err)) {
    status = wire::getString(*obj, "status").value_or("?");
    report.attributedJoules =
        wire::getNumber(*obj, "attributedJoules").value_or(0.0);
    report.studiesExecuted = static_cast<std::uint64_t>(
        wire::getNumber(*obj, "studiesExecuted").value_or(0.0));
  }
  if (status.empty()) {
    ++out->errors;
  } else if (status == "ok") {
    ++out->ok;
    out->latenciesMs.push_back(ms);
    out->attributedJoules += report.attributedJoules;
    out->studiesExecuted += report.studiesExecuted;
  } else if (mayRetry && (status == "overloaded" || status == "queue_full" ||
                          status == "circuit_open")) {
    return true;
  } else {
    ++out->rejected;
  }
  return false;
}

// The tune-load worker: a sliding window of up to a.pipeline requests
// in flight, writes batched per window refill (one send() covers many
// requests), responses decoded incrementally.  Responses arrive in
// request order (the server restores pipelined order per connection),
// so a FIFO of start times matches them up.
void runWorker(const Args& a, std::uint64_t stream,
               ep::chaos::RetryBudget* budget, WorkerResult* out) {
  ep::net::Client conn;
  std::string error;
  if (!conn.open(a.host, a.port, {.binary = a.binary}, &error)) {
    std::cerr << error << "\n";
    out->errors = a.requests;
    return;
  }
  out->latenciesMs.reserve(static_cast<std::size_t>(a.requests));

  struct Pending {
    Clock::time_point start;
    int n = 0;
    int requestIndex = 0;
  };
  std::deque<Pending> starts;
  // Shed requests parked for the retry pass after the window drains.
  std::vector<Pending> toRetry;
  int queued = 0;    // requests encoded (and soon flushed)
  int received = 0;  // responses tallied

  ep::serve::wire_binary::BinaryTuneRequest breq;
  breq.tune.device = a.device;
  breq.deviceAuto = a.deviceAuto;
  breq.tune.maxDegradation = a.budget;
  breq.tune.deadlineMs = a.deadlineMs > 0.0 ? a.deadlineMs : 0.0;
  breq.report = a.report;
  breq.traceId = a.traceId;
  const auto encode = [&](int n, std::string* buf) {
    if (a.binary) {
      breq.tune.n = n;
      ep::net::appendFrame(*buf, ep::net::kOpTune,
                           ep::serve::wire_binary::encodeTuneRequest(breq));
    } else {
      *buf += tuneLine(a, n);
      *buf += '\n';
    }
  };
  std::string payload;
  const auto settle = [&](Clock::time_point start, bool mayRetry) {
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    return tally(payload, a.binary, ms, mayRetry, out);
  };

  std::string outBuf;
  while (received < a.requests) {
    outBuf.clear();
    while (queued < a.requests && queued - received < a.pipeline) {
      const int n = a.ns[static_cast<std::size_t>(queued) % a.ns.size()];
      if (a.retry > 0) budget->onAttempt();
      starts.push_back(Pending{Clock::now(), n, queued});
      encode(n, &outBuf);
      ++queued;
    }
    if (!conn.send(outBuf) || !conn.read(&payload)) {
      out->errors += a.requests - received;
      return;
    }
    // Tally that response and every one already buffered, then go
    // refill the window.
    do {
      const Pending p = starts.front();
      starts.pop_front();
      if (settle(p.start, a.retry > 0)) toRetry.push_back(p);
      ++received;
    } while (received < queued && conn.read(&payload, /*wait=*/false));
  }

  // Retry pass: re-send shed requests serially on the same connection
  // once the burst has drained, each under the shared retry budget and
  // (with --backoff) the deterministic seeded backoff schedule.
  const ep::chaos::RetryPolicy policy{};
  const int okBefore = out->ok;
  for (const Pending& p : toRetry) {
    bool resolved = false;
    for (int attempt = 1; attempt <= a.retry && !resolved; ++attempt) {
      if (!budget->tryRetry()) {
        ++out->retriesDenied;
        break;
      }
      ++out->retriesAttempted;
      if (a.backoff) {
        const double delayMs = policy.delayMs(
            stream, static_cast<std::uint64_t>(p.requestIndex), attempt);
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(delayMs));
      }
      const auto t0 = Clock::now();
      outBuf.clear();
      encode(p.n, &outBuf);
      if (!conn.send(outBuf) || !conn.read(&payload)) {
        ++out->errors;
        resolved = true;
        break;
      }
      if (!settle(t0, attempt < a.retry)) resolved = true;
    }
    // Budget denied before any attempt could be counted: the original
    // shed response becomes the request's final outcome.
    if (!resolved) ++out->rejected;
  }
  out->retriesRecovered = out->ok - okBefore;
}

int runLoad(const Args& args) {
  std::vector<WorkerResult> results(
      static_cast<std::size_t>(args.connections));
  std::vector<std::thread> workers;
  // One retry budget for the whole client process: every connection's
  // attempts accrue tokens into it, every retry draws from it.
  ep::chaos::RetryBudget budget;
  const auto start = Clock::now();
  for (int c = 0; c < args.connections; ++c) {
    workers.emplace_back(runWorker, std::cref(args),
                         static_cast<std::uint64_t>(c), &budget,
                         &results[static_cast<std::size_t>(c)]);
  }
  for (auto& t : workers) t.join();
  const double wallS =
      std::chrono::duration<double>(Clock::now() - start).count();

  WorkerResult total;
  for (auto& r : results) {
    total.ok += r.ok;
    total.rejected += r.rejected;
    total.errors += r.errors;
    total.attributedJoules += r.attributedJoules;
    total.studiesExecuted += r.studiesExecuted;
    total.retriesAttempted += r.retriesAttempted;
    total.retriesRecovered += r.retriesRecovered;
    total.retriesDenied += r.retriesDenied;
    total.latenciesMs.insert(total.latenciesMs.end(), r.latenciesMs.begin(),
                             r.latenciesMs.end());
  }
  const int sentTotal = total.ok + total.rejected + total.errors;
  std::cout << "sent " << sentTotal << " requests over " << args.connections
            << " connection(s) in " << wallS << " s\n"
            << "ok=" << total.ok << " rejected=" << total.rejected
            << " errors=" << total.errors << "\n";
  if (wallS > 0.0) {
    std::cout << "throughput: "
              << static_cast<double>(sentTotal) / wallS << " req/s\n";
  }
  if (args.retry > 0) {
    std::cout << "retries: attempted=" << total.retriesAttempted
              << " recovered=" << total.retriesRecovered
              << " budget_denied=" << total.retriesDenied << "\n";
  }
  if (args.report) {
    std::cout << "attributed energy: " << total.attributedJoules << " J over "
              << total.studiesExecuted << " executed studies\n";
  }
  std::vector<double>& ms = total.latenciesMs;
  std::sort(ms.begin(), ms.end());
  const auto at = [&](double p) {
    return ms[static_cast<std::size_t>(p * static_cast<double>(ms.size() - 1))];
  };
  if (!ms.empty()) {
    std::cout << "latency ms: p50=" << at(0.50) << " p90=" << at(0.90)
              << " p99=" << at(0.99) << " max=" << ms.back() << "\n";
  }
  return total.errors == 0 ? 0 : 1;
}

// ---- send -------------------------------------------------------------

int runSend(ep::net::Client& conn, const Args& a) {
  std::string line;
  const auto obj = query(conn, a.request, &line);
  if (line.empty()) {
    std::cerr << "epctl: request failed\n";
    return 1;
  }
  std::cout << line << "\n";
  return obj && wire::getString(*obj, "status") == "ok" ? 0 : 1;
}

// ---- top --------------------------------------------------------------

// One dashboard screen; false when the fleet op got no JSON answer.
bool topFrame(ep::net::Client& conn, const Args& args,
              std::uint64_t* burningSlos) {
  const auto fleet = query(conn, "{\"op\":\"fleet\"}");
  const auto slo = query(conn, "{\"op\":\"slo\"}");
  const auto events = query(conn, "{\"op\":\"events\"}");
  if (!fleet) return false;
  const bool isFleet = wire::getString(*fleet, "status") == "ok";

  std::printf("epctl top @ %s:%u", args.host.c_str(),
              static_cast<unsigned>(args.port));
  if (isFleet) {
    std::printf(" — policy=%s shards=%g alive=%g requests=%g "
                "staleFallbacks=%g",
                wire::getString(*fleet, "policy").value_or("?").c_str(),
                wire::getNumber(*fleet, "shards").value_or(0),
                wire::getNumber(*fleet, "aliveShards").value_or(0),
                wire::getNumber(*fleet, "requests").value_or(0),
                wire::getNumber(*fleet, "staleFallbacks").value_or(0));
  }
  if (events && wire::getString(*events, "status") == "ok") {
    std::printf("  alerts=%g", wire::getNumber(*events, "alerts").value_or(0));
  }
  std::printf("\n\n");

  if (isFleet) {
    std::printf("  %-6s %-5s %9s %9s %7s %10s %8s %10s\n", "shard", "state",
                "q50 ms", "q99 ms", "queue", "completed", "stale",
                "J/request");
    for (const std::string& id : idsUnder(*fleet, "shard.")) {
      const std::string p = "shard." + id + ".";
      const bool alive = wire::getBool(*fleet, p + "alive").value_or(true);
      const double completed =
          wire::getNumber(*fleet, p + "completed").value_or(0);
      const double joules =
          wire::getNumber(*fleet, p + "attributedJoules").value_or(0);
      const double jpr = completed > 0 ? joules / completed : 0.0;
      std::printf("  %-6s %-5s %9.3f %9.3f %7.0f %10.0f %8.0f %10.4g\n",
                  id.c_str(), alive ? "up" : "DOWN",
                  wire::getNumber(*fleet, p + "q50Ms").value_or(0),
                  wire::getNumber(*fleet, p + "q99Ms").value_or(0),
                  wire::getNumber(*fleet, p + "queueDepth").value_or(0),
                  completed,
                  wire::getNumber(*fleet, p + "staleServed").value_or(0), jpr);
    }
    std::printf("\n");
  }

  // Cluster-window latency quantiles out of the tsdb (whatever the
  // scraper has ingested; absent early in a daemon's life).
  for (const double q : {0.50, 0.99}) {
    const auto tq = query(conn, wire::ObjectWriter()
                                    .add("op", "tsdb")
                                    .add("series", "ep_serve_request_latency_ms")
                                    .add("agg", "quantile")
                                    .add("q", q)
                                    .add("windowMs", 60000)
                                    .str());
    if (!tq || wire::getString(*tq, "status") != "ok") continue;
    if (!wire::getBool(*tq, "defined").value_or(false)) continue;
    if (wire::getBool(*tq, "unbounded").value_or(false)) {
      std::printf("  tsdb p%.0f (60s) : beyond last bucket bound\n", q * 100);
    } else {
      std::printf("  tsdb p%.0f (60s) : <= %.3f ms\n", q * 100,
                  wire::getNumber(*tq, "value").value_or(0));
    }
  }

  if (!slo || wire::getString(*slo, "status") != "ok") {
    std::printf("\n  (no SLOs declared on this endpoint)\n");
    return true;
  }
  *burningSlos = static_cast<std::uint64_t>(
      wire::getNumber(*slo, "burning").value_or(0));
  std::printf("\n  %-14s %-8s %-8s %12s %8s\n", "slo", "kind", "state",
              "burn gauge", "raised");
  for (const std::string& name : idsUnder(*slo, "slo.")) {
    const std::string p = "slo." + name + ".";
    const bool burning = wire::getBool(*slo, p + "burning").value_or(false);
    // The burn gauge: worst burn against the tightest (first) window's
    // alerting threshold, e.g. "0.31/2.0x".
    char gauge[48];
    std::snprintf(gauge, sizeof gauge, "%.2f/%.1fx",
                  wire::getNumber(*slo, p + "worstBurn").value_or(0),
                  wire::getNumber(*slo, p + "w0.threshold").value_or(1.0));
    std::printf("  %-14s %-8s %-8s %12s %8.0f\n", name.c_str(),
                wire::getString(*slo, p + "kind").value_or("?").c_str(),
                burning ? "BURNING" : "ok", gauge,
                wire::getNumber(*slo, p + "raised").value_or(0));
  }
  return true;
}

int runTop(ep::net::Client& conn, const Args& a) {
  std::uint64_t burning = 0;
  const int rc = repaint(a, [&] { return topFrame(conn, a, &burning); });
  return rc == 0 && a.check && burning > 0 ? 2 : rc;
}

// ---- watch ------------------------------------------------------------

void printEvent(const Object& e) {
  const std::string kind = wire::getString(e, "kind").value_or("?");
  const std::string scope = wire::getString(e, "scope").value_or("");
  const double value = wire::getNumber(e, "value").value_or(0);
  const double threshold = wire::getNumber(e, "threshold").value_or(0);
  const std::string trace = wire::getString(e, "trace").value_or("0");
  const std::string message = wire::getString(e, "message").value_or("");
  const char* marker =
      (kind == "cleared" || kind == "slo_cleared") ? " ok  " : "ALERT";
  // Fleet events carry the shard they came from: a [shard] column.
  char shard[32] = "";
  if (const auto id = wire::getString(e, "shard")) {
    std::snprintf(shard, sizeof shard, "[%-7s] ", id->c_str());
  }
  std::printf("  [%s] #%-4.0f %s%-18s %-14s %9.3g / %-9.3g trace=%s\n",
              marker, wire::getNumber(e, "seq").value_or(0), shard,
              kind.c_str(), scope.c_str(), value, threshold, trace.c_str());
  if (!message.empty()) std::printf("          %s\n", message.c_str());
}

// Pull the attribution families out of the Prometheus exposition; the
// dashboard shows the ledger without needing a scrape stack.
void printEnergyLedger(const std::string& prometheus) {
  std::istringstream in(prometheus);
  std::string line;
  bool any = false;
  while (std::getline(in, line)) {
    if (line.rfind("ep_request_energy_joules{", 0) == 0 ||
        line.rfind("ep_request_windows_total{", 0) == 0 ||
        line.rfind("ep_watchdog_", 0) == 0) {
      if (!any) std::printf("\nenergy attribution / watchdog metrics:\n");
      any = true;
      std::printf("  %s\n", line.c_str());
    }
  }
}

int runWatch(ep::net::Client& conn, const Args& args) {
  wire::ObjectWriter req;
  req.add("op", "events");
  if (args.since > 0) req.add("since", args.since);
  const auto obj = query(conn, req.str());
  if (!obj) {
    std::cerr << "epctl: no answer to the events request\n";
    return 1;
  }
  if (wire::getString(*obj, "status") != "ok") {
    std::cerr << "epctl: server error: "
              << wire::getString(*obj, "error").value_or("unknown") << "\n";
    return 1;
  }

  const double alerts = wire::getNumber(*obj, "alerts").value_or(0);
  const std::string body = wire::getString(*obj, "body").value_or("");

  if (args.raw) {
    std::cout << body;
  } else {
    std::printf("epctl watch @ %s:%u — %.0f active alert(s), %.0f event(s)"
                " recorded, %.0f dropped\n",
                args.host.c_str(), static_cast<unsigned>(args.port), alerts,
                wire::getNumber(*obj, "recorded").value_or(0),
                wire::getNumber(*obj, "dropped").value_or(0));
    std::istringstream lines(body);
    std::string line;
    bool any = false;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      std::string error;
      const auto e = wire::parseObject(line, &error);
      if (!e) continue;
      any = true;
      printEvent(*e);
    }
    if (!any) std::printf("  (no events%s)\n",
                          args.since > 0 ? " past --since" : "");
    if (const auto m =
            query(conn, "{\"op\":\"metrics\",\"format\":\"prometheus\"}")) {
      printEnergyLedger(wire::getString(*m, "body").value_or(""));
    }
  }
  return args.check && alerts > 0 ? 2 : 0;
}

// ---- prof -------------------------------------------------------------

std::string snapshotRequest(const Args& args, std::size_t topN,
                            const std::string& format) {
  wire::ObjectWriter w;
  w.add("op", "profile")
      .add("action", "snapshot")
      .add("kind", args.kind)
      .add("topN", static_cast<std::uint64_t>(topN))
      .add("format", format);
  if (args.cluster) w.add("scope", "cluster");
  return w.str();
}

const char* weightUnit(const std::string& kind) {
  return kind == "energy" ? "J" : "s";
}

// One live-top frame; false on transport/server failure.
bool profFrame(ep::net::Client& conn, const Args& args) {
  const auto snap = query(conn, snapshotRequest(args, args.top, "collapsed"));
  if (!snap || wire::getString(*snap, "status") != "ok") return false;
  std::printf("epctl prof @ %s:%u — kind=%s%s samples=%.0f total=%.4g%s "
              "stacks=%.0f dropped=%.0f truncated=%.0f\n\n",
              args.host.c_str(), static_cast<unsigned>(args.port),
              wire::getString(*snap, "kind").value_or("?").c_str(),
              args.cluster ? " scope=cluster" : "",
              wire::getNumber(*snap, "samples").value_or(0),
              wire::getNumber(*snap, "totalWeight").value_or(0),
              weightUnit(args.kind),
              wire::getNumber(*snap, "stacks").value_or(0),
              wire::getNumber(*snap, "dropped").value_or(0),
              wire::getNumber(*snap, "truncated").value_or(0));
  std::printf("  %-44s %10s %12s %8s\n", "frame (inclusive)", "samples",
              "weight", "share");
  // Ranks are decimal, so shorter sorts first: rank order, not key order.
  auto ranks = idsUnder(*snap, "top.");
  std::sort(ranks.begin(), ranks.end(), [](const auto& x, const auto& y) {
    return x.size() != y.size() ? x.size() < y.size() : x < y;
  });
  for (const std::string& rank : ranks) {
    const std::string p = "top." + rank + ".";
    std::printf("  %-44s %10.0f %10.4g %s %7.1f%%\n",
                wire::getString(*snap, p + "frame").value_or("?").c_str(),
                wire::getNumber(*snap, p + "samples").value_or(0),
                wire::getNumber(*snap, p + "weight").value_or(0),
                weightUnit(args.kind),
                wire::getNumber(*snap, p + "share").value_or(0) * 100.0);
  }
  return true;
}

// Write a snapshot answer's body to `path`.
bool writeBody(const Object& snap, const std::string& path) {
  std::ofstream out(path);
  out << wire::getString(snap, "body").value_or("");
  if (!out) {
    std::cerr << "epctl: cannot write " << path << "\n";
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

int runProf(ep::net::Client& conn, const Args& args) {
  // Control actions: act, report, exit.
  if (args.start || args.stop || args.clear) {
    int rc = 0;
    auto act = [&](const std::string& request, const char* what) {
      const auto resp = query(conn, request);
      if (!resp || wire::getString(*resp, "status") != "ok") {
        std::cerr << "epctl: " << what << " failed\n";
        rc = 1;
        return;
      }
      std::printf("%s: running=%s threads=%.0f\n",
                  wire::getString(*resp, "action").value_or(what).c_str(),
                  wire::getBool(*resp, "running").value_or(false) ? "yes"
                                                                  : "no",
                  wire::getNumber(*resp, "threads").value_or(0));
    };
    if (args.clear) act("{\"op\":\"profile\",\"action\":\"clear\"}", "clear");
    if (args.stop) act("{\"op\":\"profile\",\"action\":\"stop\"}", "stop");
    if (args.start) {
      wire::ObjectWriter w;
      w.add("op", "profile")
          .add("action", "start")
          .add("periodUs", static_cast<std::uint64_t>(args.periodUs));
      if (args.energyOnly) w.add("cpuSampling", false);
      act(w.str(), "start");
    }
    return rc;
  }

  const bool exporting =
      !args.collapseFile.empty() || !args.speedscopeFile.empty();
  const bool checking = !args.checkFrame.empty() || args.checkTotal >= 0.0;
  if (!exporting && !checking) {
    return repaint(args, [&] { return profFrame(conn, args); });
  }
  // One-shot export / check modes fetch a single full snapshot; topN=0
  // = every frame (the checks must see non-top frames too).
  const auto snap = query(conn, snapshotRequest(args, 0, "collapsed"));
  if (!snap || wire::getString(*snap, "status") != "ok") {
    std::cerr << "epctl: snapshot failed\n";
    return 1;
  }
  if (!args.collapseFile.empty() && !writeBody(*snap, args.collapseFile)) {
    return 1;
  }
  if (!args.speedscopeFile.empty()) {
    const auto ss = query(conn, snapshotRequest(args, 0, "speedscope"));
    if (!ss || wire::getString(*ss, "status") != "ok") {
      std::cerr << "epctl: speedscope snapshot failed\n";
      return 1;
    }
    if (!writeBody(*ss, args.speedscopeFile)) return 1;
  }
  int rc = 0;
  if (!args.checkFrame.empty()) {
    double share = -1.0;
    for (const std::string& rank : idsUnder(*snap, "top.")) {
      const std::string p = "top." + rank + ".";
      if (wire::getString(*snap, p + "frame") == args.checkFrame) {
        share = wire::getNumber(*snap, p + "share").value_or(0);
        break;
      }
    }
    if (share >= args.minShare) {
      std::printf("check ok: %s share %.3f >= %.3f\n",
                  args.checkFrame.c_str(), share, args.minShare);
    } else {
      std::printf("check FAILED: %s share %.3f < %.3f\n",
                  args.checkFrame.c_str(), std::max(share, 0.0),
                  args.minShare);
      rc = 2;
    }
  }
  if (args.checkTotal >= 0.0) {
    const double total = wire::getNumber(*snap, "totalWeight").value_or(0);
    const double scale = std::max(args.checkTotal, 1e-12);
    const double rel = std::fabs(total - args.checkTotal) / scale;
    if (rel <= args.tol) {
      std::printf("check ok: total %.6g within %.1f%% of %.6g\n", total,
                  args.tol * 100.0, args.checkTotal);
    } else {
      std::printf("check FAILED: total %.6g vs %.6g (rel err %.3f > %.3f)\n",
                  total, args.checkTotal, rel, args.tol);
      rc = 2;
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, &args)) {
    std::cerr << kUsage;
    return 2;
  }
  if (args.cmd == kLoad) return runLoad(args);

  ep::net::Client conn;
  std::string error;
  if (!conn.open(args.host, args.port, {}, &error)) {
    std::cerr << "epctl: " << error << "\n";
    return 1;
  }
  switch (args.cmd) {
    case kSend:
      return runSend(conn, args);
    case kTop:
      return runTop(conn, args);
    case kWatch:
      return runWatch(conn, args);
    default:
      return runProf(conn, args);
  }
}
