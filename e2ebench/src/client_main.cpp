// e2ebench_client — timed runs of one workload against the real
// epserved, and the benchmark's self-tests.
//
//   e2ebench_client --daemon PATH --workload NAME --seed S --seconds T
//                   --expected FILE
//   e2ebench_client --selftest
//
// A run spawns the daemon once per slice of the workload.  Each spawn is
// timed from fork to listening to the warm-up set answered (set-up), then
// drives a closed loop for its share of the T seconds from its own part
// of the seeded streams, then is SIGTERMed and reaped.  The result is one
// JSON object on stdout with every slice's raw figures and the
// correctness verdict; the exit code is 0 only when every answer and
// every counter reconciled.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "codec.hpp"
#include "client.hpp"
#include "histogram.hpp"
#include "proc.hpp"
#include "workload.hpp"

namespace e2e {
namespace {

struct Args {
  std::string daemon;
  std::string workload;
  std::string expected;
  std::uint64_t seed = 1;
  double seconds = 10.0;
};

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

double counter(const Counters& c, const char* name) {
  const auto it = c.find(name);
  return it == c.end() ? 0.0 : it->second;
}

bool scrape(ClosedLoopClient& d, Counters* out, std::string* error) {
  std::string json;
  if (!d.control(encodeMetricsRequest(), &json, error)) return false;
  std::vector<JsonField> f;
  const JsonField* body = nullptr;
  if (!parseFlatJson(json, &f) || (body = findField(f, "body")) == nullptr) {
    *error = "metrics op answered without a body";
    return false;
  }
  *out = parsePrometheus(unescapeJson(body->raw));
  return true;
}

// The host speed the timings are scaled to: hostProbeMs() takes this
// long on it.  Any constant would do; this one is about the probe's time
// on the 4-vCPU VM the benchmark was tuned on.
constexpr double kReferenceProbeMs = 2.0;

struct Slice {
  double setupS = 0.0;
  double cpuS = 0.0;
  double rssMb = 0.0;
  double stealShare = 0.0;
  double hostFactor = 1.0;  // probe time around the slice / reference
  PhaseResult phase;
  Counters before;
  Counters after;
};

int runWorkload(const Args& a) {
  Workload w;
  std::vector<int> daemonCpus = allowedCpus();
  const int nproc = static_cast<int>(daemonCpus.size());
  if (!makeWorkload(a.workload, a.seed, nproc, &w)) {
    std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  std::ifstream ef(a.expected);
  std::stringstream es;
  es << ef.rdbuf();
  Expected expected;
  std::string error;
  if (!ef || !expected.parse(es.str(), &error) || expected.size() == 0) {
    std::fprintf(stderr, "cannot read the reference answers %s %s\n",
                 a.expected.c_str(), error.c_str());
    return 2;
  }

  // The client thread gets one CPU of its own and the daemon the rest,
  // so the two never contend for a CPU and the scheduler never
  // migrates the event thread onto the client's.
  if (daemonCpus.size() >= 2) {
    pinTo({daemonCpus.back()});
    daemonCpus.pop_back();
  } else {
    daemonCpus.clear();
  }

  std::vector<Slice> slices;
  std::vector<std::string> problems;
  Tally warm;
  // The host probe runs on the daemon's CPUs before each spawn and once
  // after the last, while no daemon is alive; a slice's host factor is
  // the mean of the two probes around it.
  std::vector<double> probes;
  for (int k = 0; k < w.slices && problems.empty(); ++k) {
    probes.push_back(hostProbeMs(daemonCpus));
    Slice s;
    ClosedLoopClient client(w, expected);
    Daemon daemon;
    const std::uint64_t t0 = monotonicNs();
    if (!daemon.spawn(a.daemon, w.daemonArgs(), daemonCpus, &error) ||
        !daemon.waitListening(60000, &error) ||
        !client.connect(daemon.port(), &error) ||
        !client.warmup(&warm, &error)) {
      problems.push_back("set-up: " + error);
      break;
    }
    s.setupS = static_cast<double>(monotonicNs() - t0) * 1e-9;
    if (!scrape(client, &s.before, &error)) {
      problems.push_back(error);
      break;
    }
    const double cpu0 = processCpuSeconds(daemon.pid());
    const HostCpu h0 = readHostCpu();
    const std::size_t length = w.streams[0].size();
    s.phase = client.run(a.seconds / w.slices,
                         length * static_cast<std::size_t>(k) /
                             static_cast<std::size_t>(w.slices));
    s.cpuS = processCpuSeconds(daemon.pid()) - cpu0;
    const HostCpu h1 = readHostCpu();
    if (!scrape(client, &s.after, &error)) {
      problems.push_back(error);
      break;
    }
    s.rssMb = peakRssMb(daemon.pid());
    s.stealShare = h1.total > h0.total
                       ? static_cast<double>(h1.steal - h0.steal) /
                             static_cast<double>(h1.total - h0.total)
                       : 0.0;
    for (const std::string& p : reconcile(s.phase.tally, s.before, s.after)) {
      problems.push_back("slice " + std::to_string(k) + ": " + p);
    }
    if (!daemon.stop()) {
      problems.push_back("epserved did not exit cleanly: " +
                         daemon.exitStatus());
    }
    const bool failed = s.phase.tally.failed > 0;
    slices.push_back(std::move(s));
    if (failed) break;  // one wrong slice decides the run
  }

  probes.push_back(hostProbeMs(daemonCpus));
  for (std::size_t k = 0; k < slices.size(); ++k) {
    slices[k].hostFactor =
        (probes[k] + probes[k + 1]) / (2.0 * kReferenceProbeMs);
  }

  Tally total = warm;
  LogHistogram merged;
  for (const Slice& s : slices) {
    total.add(s.phase.tally);
    merged.merge(s.phase.latency);
  }
  // Each slice is a fresh daemon, and where the host places its threads
  // moves that slice's figures by up to a third from spawn to spawn, so a
  // run averages many short slices.  The half of the slices with the
  // most hypervisor steal are dropped first: on a shared host steal comes
  // and goes within seconds and is none of the program's doing.  The
  // timings are then scaled to the reference host: CPU time by the host
  // factor, wall-clock times also by the share of the slice the
  // hypervisor left to the VM (1 - steal).
  std::vector<std::size_t> order(slices.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return slices[x].stealShare < slices[y].stealShare;
                   });
  order.resize((order.size() + 1) / 2);
  std::sort(order.begin(), order.end());
  double selP50 = 0.0;
  double selCpu = 0.0;
  double rawP50 = 0.0;
  double rawCpu = 0.0;
  double selFactor = 0.0;
  std::uint64_t selSamples = 0;
  std::vector<double> selSetup;
  std::vector<double> rawSetup;
  const auto kept = static_cast<double>(order.size());
  for (std::size_t i : order) {
    const Slice& s = slices[i];
    const std::uint64_t answered = s.phase.tally.ok + s.phase.tally.failed;
    const double wallScale = (1.0 - s.stealShare) / s.hostFactor;
    const double p50 = s.phase.latency.quantile(0.50) * 1e-6;
    selP50 += p50 * wallScale / kept;
    rawP50 += p50 / kept;
    if (answered > 0) {
      const double cpu = 1e3 * s.cpuS / static_cast<double>(answered);
      selCpu += cpu / s.hostFactor / kept;
      rawCpu += cpu / kept;
    }
    selFactor += s.hostFactor / kept;
    selSamples += s.phase.latency.count();
    selSetup.push_back(s.setupS * wallScale);
    rawSetup.push_back(s.setupS);
  }
  // VmHWM moves by up to a fifth from spawn to spawn with how the pool
  // threads' allocations happen to overlap; the smallest over the run's
  // spawns is the daemon's footprint without that.
  double minRss = 0.0;
  for (const Slice& s : slices) {
    minRss = minRss == 0.0 ? s.rssMb : std::min(minRss, s.rssMb);
  }
  auto median = [](std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
  };
  for (const std::string& e : total.errors) problems.push_back(e);
  if (total.verified == 0) {
    problems.push_back("no answer was compared with the reference");
  }
  const bool correct = problems.empty() && total.failed == 0 &&
                       static_cast<int>(slices.size()) == w.slices;

  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"nproc\":%d,"
              "\"daemon_args\":\"",
              w.name.c_str(), static_cast<unsigned long long>(a.seed), nproc);
  for (const std::string& arg : w.daemonArgs()) std::printf(" %s", arg.c_str());
  std::printf("\",\"correct\":%s,\"sent\":%llu,\"ok\":%llu,\"failed\":%llu,"
              "\"verified\":%llu,\"p99_ms\":%.6f,\"loadavg\":\"%s\","
              "\"problems\":[",
              correct ? "true" : "false",
              static_cast<unsigned long long>(total.sent),
              static_cast<unsigned long long>(total.ok),
              static_cast<unsigned long long>(total.failed),
              static_cast<unsigned long long>(total.verified),
              merged.quantile(0.99) * 1e-6, loadAverage().c_str());
  for (std::size_t i = 0; i < problems.size(); ++i) {
    std::printf("%s\"%s\"", i ? "," : "", jsonEscape(problems[i]).c_str());
  }
  std::printf("],\"selected\":{\"slices\":[");
  for (std::size_t i = 0; i < order.size(); ++i) {
    std::printf("%s%zu", i ? "," : "", order[i]);
  }
  std::printf("],\"p50_ms\":%.9g,\"cpu_ms_per_req\":%.9g,\"setup_s\":%.9g,"
              "\"rss_mb\":%.6f,\"samples\":%llu,\"host_factor\":%.6f,"
              "\"raw\":{\"p50_ms\":%.9g,\"cpu_ms_per_req\":%.9g,"
              "\"setup_s\":%.9g}},\"slices\":[",
              selP50, selCpu, median(selSetup), minRss,
              static_cast<unsigned long long>(selSamples), selFactor, rawP50,
              rawCpu, median(rawSetup));
  static const char* kCounters[] = {
      "ep_net_frames_total",         "ep_net_batches_total",
      "ep_net_bytes_read_total",     "ep_net_bytes_written_total",
      "ep_serve_accepted_total",     "ep_serve_completed_total",
      "ep_serve_coalesced_total",    "ep_serve_studies_executed_total",
      "ep_serve_cache_evictions_total", "ep_request_windows_total"};
  for (std::size_t k = 0; k < slices.size(); ++k) {
    const Slice& s = slices[k];
    const PhaseResult& p = s.phase;
    std::printf("%s{\"setup_s\":%.9f,\"cpu_s\":%.9f,\"wall_s\":%.9f,"
                "\"client_cpu_s\":%.9f,\"rss_mb\":%.6f,\"steal_share\":%.6f,"
                "\"host_factor\":%.6f,"
                "\"answered\":%llu,\"cache_hits\":%llu,\"p50_ms\":%.6f,"
                "\"p99_ms\":%.6f,\"rejected\":%.0f",
                k ? "," : "", s.setupS, s.cpuS, p.wallS, p.clientCpuS,
                s.rssMb, s.stealShare, s.hostFactor,
                static_cast<unsigned long long>(p.tally.ok + p.tally.failed),
                static_cast<unsigned long long>(p.tally.cacheHits),
                p.latency.quantile(0.50) * 1e-6,
                p.latency.quantile(0.99) * 1e-6,
                rejectedTotal(s.after) - rejectedTotal(s.before));
    for (const char* name : kCounters) {
      std::printf(",\"%s\":%.0f", name,
                  counter(s.after, name) - counter(s.before, name));
    }
    std::printf("}");
  }
  std::printf("]}\n");
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------- selftest

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

std::string jsonAnswer(const TuneExpect& e, const std::string& trace) {
  return "{\"status\":\"ok\",\"trace_id\":\"" + trace +
         "\",\"recommended\":\"" + e.recommended +
         "\",\"recommendedTimeS\":" + jsonNumber(e.timeS) +
         ",\"recommendedEnergyJ\":" + jsonNumber(e.energyJ) +
         ",\"energySavings\":" + jsonNumber(e.savings) +
         ",\"performanceDegradation\":" + jsonNumber(e.degradation) +
         ",\"performanceOptimal\":\"" + e.performanceOptimal +
         "\",\"energyOptimal\":\"" + e.energyOptimal + "\",\"knee\":\"" +
         e.knee + "\",\"frontSize\":" + std::to_string(e.frontSize) +
         ",\"cacheHit\":true,\"coalesced\":false,\"stale\":false,"
         "\"measurementWindows\":0,\"studiesExecuted\":0,\"latencyMs\":0.2}";
}

std::string streamBytes(const Workload& w) {
  std::string all;
  for (std::size_t i = 0; i < w.warmup.size(); ++i) {
    all += encodeRequest(w.warmup[i], "w");
  }
  for (std::size_t c = 0; c < w.streams.size(); ++c) {
    for (std::size_t i = 0; i < w.streams[c].size(); ++i) {
      all += encodeRequest(w.streams[c][i], traceIdFor(static_cast<int>(c), i));
    }
  }
  for (const std::string& a : w.daemonArgs()) all += a;
  return all;
}

int selftest() {
  std::printf("histogram percentiles against an exact sort\n");
  {
    SeededRng rng(42);
    std::vector<std::uint64_t> v;
    LogHistogram h;
    for (int i = 0; i < 200000; ++i) {
      // Log-uniform over 1 us .. 100 ms, the range latencies span.
      const auto x = static_cast<std::uint64_t>(
          1000.0 * std::pow(10.0, 5.0 * rng.unit()));
      v.push_back(x);
      h.record(x);
    }
    std::sort(v.begin(), v.end());
    bool ok = true;
    for (double q : {0.01, 0.5, 0.9, 0.99, 0.999}) {
      const auto rank = static_cast<std::size_t>(std::ceil(q * v.size()));
      const double exact = static_cast<double>(v[rank - 1]);
      ok = ok && std::fabs(h.quantile(q) - exact) <= 0.01 * exact;
    }
    expect(ok, "every quantile within 1 % of the order statistic");
    expect(h.count() == v.size(), "count");
  }

  std::printf("seeded request streams\n");
  for (const std::string& name : workloadNames()) {
    Workload a, b, c;
    makeWorkload(name, 7, 4, &a);
    makeWorkload(name, 7, 4, &b);
    makeWorkload(name, 8, 4, &c);
    expect(streamBytes(a) == streamBytes(b),
           (name + ": same seed, byte-identical stream").c_str());
    expect(streamBytes(a) != streamBytes(c),
           (name + ": another seed, another stream").c_str());
  }

  std::printf("correctness gate\n");
  {
    Request r;
    r.device = 1;
    r.n = 4096;
    r.budget = 2;
    TuneExpect e{"BS=16 G=2 R=4", 0.5, 120.25, 0.125, 0.0625,
                 "BS=32 G=1 R=8", "BS=8 G=4 R=2", "BS=16 G=2 R=4", 3};
    Expected ex;
    std::string err;
    ex.parse(Expected::formatTune(r, e) + "\n", &err);
    const Checker check(ex);
    Tally t;
    expect(check.tuneJson(r, "t1", jsonAnswer(e, "t1"), &t),
           "answer equal to the reference passes");
    TuneExpect bad = e;
    bad.savings = 0.126;
    expect(!check.tuneJson(r, "t1", jsonAnswer(bad, "t1"), &t),
           "answer with another energySavings fails");
    bad = e;
    bad.energyJ = 120.25000001;
    expect(!check.tuneJson(r, "t1", jsonAnswer(bad, "t1"), &t),
           "answer off in the 11th digit of recommendedEnergyJ fails");
    bad = e;
    bad.recommended = "BS=16 G=4 R=2";
    expect(!check.tuneJson(r, "t1", jsonAnswer(bad, "t1"), &t),
           "answer with another recommended label fails");
    expect(!check.tuneJson(r, "t2", jsonAnswer(e, "t1"), &t),
           "answer to another request fails");
    expect(t.failed == 4 && t.ok == 1, "tally counts passes and failures");

    Tally phase;
    phase.sent = 10;
    phase.ok = 10;
    phase.studiesExecuted = 3;
    phase.windows = 1920;
    Counters before{{"ep_serve_accepted_total", 5},
                    {"ep_serve_completed_total", 5},
                    {"ep_serve_failed_total", 0},
                    {"ep_serve_studies_executed_total", 2},
                    {"ep_request_windows_total", 1280}};
    Counters after{{"ep_serve_accepted_total", 15},
                   {"ep_serve_completed_total", 15},
                   {"ep_serve_failed_total", 0},
                   {"ep_serve_studies_executed_total", 5},
                   {"ep_request_windows_total", 3200}};
    expect(reconcile(phase, before, after).empty(),
           "matching counter deltas reconcile");
    Counters offByOne = after;
    offByOne["ep_serve_studies_executed_total"] += 1;
    expect(!reconcile(phase, before, offByOne).empty(),
           "studies delta off by one is rejected");
    offByOne = after;
    offByOne["ep_request_windows_total"] -= 1;
    expect(!reconcile(phase, before, offByOne).empty(),
           "windows delta off by one is rejected");
    offByOne = after;
    offByOne["ep_serve_failed_total"] += 1;
    expect(!reconcile(phase, before, offByOne).empty(),
           "accepted != completed + failed + rejected is rejected");
  }
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

bool parseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--daemon") {
      a->daemon = v;
    } else if (k == "--workload") {
      a->workload = v;
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
  return argc % 2 == 1 && !a->daemon.empty() && !a->workload.empty() &&
         !a->expected.empty() && a->seconds > 0.0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) {
    return e2e::selftest();
  }
  e2e::Args args;
  if (!e2e::parseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench_client --daemon PATH --workload NAME "
                 "--seed S --seconds T --expected FILE\n"
                 "       e2ebench_client --selftest\n");
    return 2;
  }
  return e2e::runWorkload(args);
}
