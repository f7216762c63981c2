// epserve_client — load generator and CLI client for epserved.
//
// Usage:
//   epserve_client [--host H] [--port P] [--requests R] [--connections C]
//                  [--device p100|k40c] [--n N[,N...]] [--budget B]
//                  [--deadline-ms D] [--study BEGIN:END:STEP] [--metrics]
//                  [--trace-id ID] [--report] [--raw '<json line>']
//                  [--binary] [--pipeline W] [--retry N] [--backoff]
//
// Default mode sends `--requests` tune requests per connection, cycling
// through the `--n` workload list, and reports client-side latency
// percentiles and requests/sec.  `--metrics` additionally fetches the
// server's own ServeMetrics snapshot at the end.
//
// --trace-id tags every request with the given trace (the server's
// {"op":"trace"} export then shows the request's span tree); --report
// asks for the per-request energy-attribution ledger and prints the
// summed attributed joules — over any request mix this equals the
// energy of the studies actually executed, regardless of cache hits
// and coalescing.
//
// --binary speaks the EPB1 framing (net/frame.hpp) with the compact
// binary tune codec (serve/wire_binary.hpp) instead of line JSON;
// --pipeline W keeps up to W tune requests in flight per connection
// with batched writes (one send() per window refill) — the pair is how
// the event-loop server's cross-connection batching is actually fed.
// Both apply to the default tune-load mode only; --study/--raw/
// --metrics stay line-JSON round trips.
//
// --retry N re-sends requests the server shed (overloaded, queue_full,
// circuit_open) up to N times each once the main window drains, under
// a process-wide retry budget (chaos/retry.hpp) so a retry storm can
// never multiply offered load unboundedly; --backoff spaces the
// attempts with deterministic exponential-backoff-plus-jitter from the
// same seeded schedule the chaos tests pin.
//
// --raw sends one verbatim request line and prints the response line —
// the escape hatch for ops the flag surface doesn't cover (the fleet's
// {"op":"fleet",...} drill actions, "device":"auto" tunes).  Exits 0
// iff the response says status ok.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chaos/retry.hpp"
#include "common/cli.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "serve/wire.hpp"
#include "serve/wire_binary.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string host = "127.0.0.1";
  std::uint16_t port = 7070;
  int requests = 100;
  int connections = 1;
  std::string device = "p100";
  std::vector<int> ns = {1024};
  double budget = 0.11;
  double deadlineMs = 0.0;
  bool study = false;
  int studyBegin = 0, studyEnd = 0, studyStep = 1;
  bool metrics = false;
  std::string traceId;
  bool report = false;
  std::string raw;
  bool binary = false;
  int pipeline = 1;  // in-flight tune requests per connection
  int retry = 0;     // retries per shed request (0 = no retries)
  bool backoff = false;  // exponential backoff + jitter between retries
};

bool parseIntList(const std::string& s, std::vector<int>* out) {
  out->clear();
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    int n = 0;
    if (!ep::cli::parseNumber(item.c_str(), 1,
                              std::numeric_limits<int>::max(), &n)) {
      return false;
    }
    out->push_back(n);
  }
  return !out->empty();
}

bool parseArgs(int argc, char** argv, Args* a) {
  using ep::cli::parseNumber;
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr int kMaxInt = std::numeric_limits<int>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metrics") {
      a->metrics = true;
      continue;
    }
    if (arg == "--report") {
      a->report = true;
      continue;
    }
    if (arg == "--binary") {
      a->binary = true;
      continue;
    }
    if (arg == "--backoff") {
      a->backoff = true;
      continue;
    }
    // Every other flag takes a value.
    const char* v = ++i < argc ? argv[i] : nullptr;
    if (v == nullptr) return false;
    bool ok = true;
    if (arg == "--host") {
      a->host = v;
    } else if (arg == "--port") {
      ok = parseNumber<std::uint16_t>(v, 1, 65535, &a->port);
    } else if (arg == "--requests") {
      ok = parseNumber(v, 1, kMaxInt, &a->requests);
    } else if (arg == "--connections") {
      ok = parseNumber(v, 1, 4096, &a->connections);
    } else if (arg == "--device") {
      a->device = v;
    } else if (arg == "--n") {
      ok = parseIntList(v, &a->ns);
    } else if (arg == "--budget") {
      ok = parseNumber(v, 0.0, kMax, &a->budget);
    } else if (arg == "--deadline-ms") {
      ok = parseNumber(v, 0.0, kMax, &a->deadlineMs);
    } else if (arg == "--study") {
      a->study = true;
      ok = std::sscanf(v, "%d:%d:%d", &a->studyBegin, &a->studyEnd,
                       &a->studyStep) >= 2;
    } else if (arg == "--trace-id") {
      a->traceId = v;
    } else if (arg == "--raw") {
      a->raw = v;
    } else if (arg == "--pipeline") {
      ok = parseNumber(v, 1, 1 << 16, &a->pipeline);
    } else if (arg == "--retry") {
      ok = parseNumber(v, 0, 1 << 16, &a->retry);
    } else {
      return false;
    }
    if (!ok) return false;
  }
  return true;
}

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
  ep::serve::wire::ObjectWriter w;
  w.add("op", "tune").add("device", a.device).add("n", n).add(
      "maxDegradation", a.budget);
  if (a.deadlineMs > 0.0) w.add("deadlineMs", a.deadlineMs);
  if (!a.traceId.empty()) w.add("trace_id", a.traceId);
  if (a.report) w.add("report", true);
  return w.str();
}

bool retryableStatus(const std::string& status) {
  return status == "overloaded" || status == "queue_full" ||
         status == "circuit_open";
}

// Tally one decoded response (either wire format) into the result.
// When `mayRetry` is set, a retryable rejection (overloaded /
// queue_full / circuit_open) is NOT counted — the caller re-sends it —
// and true is returned; everything else is counted and returns false.
bool tallyJson(const std::string& line, double ms, bool mayRetry,
               WorkerResult* out) {
  std::string err;
  const auto obj = ep::serve::wire::parseObject(line, &err);
  if (!obj) {
    ++out->errors;
    return false;
  }
  const std::string status =
      ep::serve::wire::getString(*obj, "status").value_or("");
  if (status == "ok") {
    ++out->ok;
    out->latenciesMs.push_back(ms);
    out->attributedJoules +=
        ep::serve::wire::getNumber(*obj, "attributedJoules").value_or(0.0);
    out->studiesExecuted += static_cast<std::uint64_t>(
        ep::serve::wire::getNumber(*obj, "studiesExecuted").value_or(0.0));
  } else if (mayRetry && retryableStatus(status)) {
    return true;
  } else {
    ++out->rejected;
  }
  return false;
}

bool tallyBinary(const std::string& payload, double ms, bool mayRetry,
                 WorkerResult* out) {
  std::string err;
  const auto resp = ep::serve::wire_binary::decodeTuneResponse(payload, &err);
  if (!resp) {
    ++out->errors;
    return false;
  }
  if (resp->status == ep::serve::Status::Ok) {
    ++out->ok;
    out->latenciesMs.push_back(ms);
    if (resp->hasReport) {
      out->attributedJoules += resp->report.attributedJoules;
      out->studiesExecuted += resp->report.studiesExecuted;
    }
  } else if (mayRetry && (resp->status == ep::serve::Status::Overloaded ||
                          resp->status == ep::serve::Status::QueueFull ||
                          resp->status == ep::serve::Status::CircuitOpen)) {
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
  breq.tune.device = a.device == "k40c" ? ep::serve::Device::K40c
                                        : ep::serve::Device::P100;
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
  const auto tally = [&](Clock::time_point start, bool mayRetry) {
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    return a.binary ? tallyBinary(payload, ms, mayRetry, out)
                    : tallyJson(payload, ms, mayRetry, out);
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
      if (tally(p.start, a.retry > 0)) toRetry.push_back(p);
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
      if (!tally(t0, attempt < a.retry)) resolved = true;
    }
    // Budget denied before any attempt could be counted: the original
    // shed response becomes the request's final outcome.
    if (!resolved) ++out->rejected;
  }
  out->retriesRecovered = out->ok - okBefore;
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1));
  return v[idx];
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, &args)) {
    std::cerr
        << "usage: epserve_client [--host H] [--port P] [--requests R]\n"
           "         [--connections C] [--device p100|k40c] [--n N[,N...]]\n"
           "         [--budget B] [--deadline-ms D] [--study B:E:S]"
           " [--metrics]\n"
           "         [--binary] [--pipeline W] [--retry N] [--backoff]\n"
           "         [--trace-id ID] [--report] [--raw J]\n";
    return 2;
  }

  ep::net::Client conn;
  std::string error;
  if ((!args.raw.empty() || args.study) &&
      !conn.open(args.host, args.port, {}, &error)) {
    std::cerr << error << "\n";
    return 1;
  }
  if (!args.raw.empty()) {
    std::string response;
    if (!conn.roundTrip(args.raw, &response)) {
      std::cerr << "raw request failed\n";
      return 1;
    }
    std::cout << response << "\n";
    const auto obj = ep::serve::wire::parseObject(response, &error);
    return obj && ep::serve::wire::getString(*obj, "status") == "ok" ? 0 : 1;
  }

  if (args.study) {
    ep::serve::wire::ObjectWriter w;
    w.add("op", "study")
        .add("device", args.device)
        .add("nBegin", args.studyBegin)
        .add("nEnd", args.studyEnd)
        .add("nStep", args.studyStep);
    if (!args.traceId.empty()) w.add("trace_id", args.traceId);
    if (args.report) w.add("report", true);
    std::string response;
    if (!conn.roundTrip(w.str(), &response)) {
      std::cerr << "study request failed\n";
      return 1;
    }
    std::cout << response << "\n";
    return 0;
  }

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
  if (!total.latenciesMs.empty()) {
    std::cout << "latency ms: p50=" << percentile(total.latenciesMs, 0.50)
              << " p90=" << percentile(total.latenciesMs, 0.90)
              << " p99=" << percentile(total.latenciesMs, 0.99)
              << " max=" << total.latenciesMs.back() << "\n";
  }

  if (args.metrics) {
    if (conn.open(args.host, args.port)) {
      std::string response;
      if (conn.roundTrip("{\"op\":\"metrics\"}", &response)) {
        std::cout << "server metrics: " << response << "\n";
      }
    }
  }
  return total.errors == 0 ? 0 : 1;
}
