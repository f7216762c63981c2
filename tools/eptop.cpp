// eptop — live terminal dashboard over the fleet observability plane.
//
// Usage:
//   eptop [--host H] [--port P] [--interval-ms MS] [--once] [--check]
//
// Polls an epserved endpoint and renders one screen per interval:
//   * per-shard serving state from {"op":"fleet"}: q50/q99 latency,
//     queue depth, completed / stale-served counts and J/request
//     (attributed joules over completed),
//   * cluster p50/p99 from {"op":"tsdb"} windowed histogram quantiles
//     over the scraped latency family,
//   * every declared SLO from {"op":"slo"}: burn gauge (worst window
//     burn vs threshold) and burning/ok state,
//   * active flight-recorder alerts from {"op":"events"} when any
//     recorder is armed.
//
// A single-broker epserved (--shards 1) simply has no shard rows; the
// tsdb and SLO panes work the same in either mode.
//
// Exit status (script/CI-friendly):
//   0 — connected, and (with --check) no SLO is burning
//   1 — could not connect / server answered garbage
//   2 — --check and at least one SLO is burning
//
// --once renders a single frame without clearing the screen (the mode
// the ci.sh burn drill uses with --check); the interactive loop
// repaints with ANSI home+clear until interrupted.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "net/client.hpp"
#include "serve/wire.hpp"

namespace {

volatile std::sig_atomic_t gStop = 0;
void handleStopSignal(int) { gStop = 1; }

struct Args {
  std::string host = "127.0.0.1";
  std::uint16_t port = 7070;
  std::int64_t intervalMs = 1000;
  bool once = false;
  bool check = false;
  bool json = false;  // one machine-readable snapshot line, no screen
};

bool parseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    bool ok = true;
    if (arg == "--once") {
      a->once = true;
    } else if (arg == "--check") {
      a->check = true;
    } else if (arg == "--json") {
      a->json = true;
      a->once = true;  // one snapshot, no repaint loop
    } else if (arg == "--host" && v != nullptr) {
      a->host = argv[++i];
    } else if (arg == "--port") {
      ok = ep::cli::parseNumber<std::uint16_t>(argv[++i], 1, 65535, &a->port);
    } else if (arg == "--interval-ms") {
      ok = ep::cli::parseNumber<std::int64_t>(argv[++i], 1, 86400000,
                                              &a->intervalMs);
    } else {
      return false;
    }
    if (!ok) return false;
  }
  return true;
}

namespace wire = ep::serve::wire;
using Object = wire::Object;

// Ask one op; nullopt when the transport fails or the line is not a
// JSON object.  A {"status":"error"} answer still parses — callers
// check "status" when they care (some ops are legitimately absent,
// e.g. {"op":"slo"} on a daemon with no --slo).
std::optional<Object> query(ep::net::Client& conn,
                            const std::string& request) {
  std::string response;
  if (!conn.roundTrip(request, &response)) return std::nullopt;
  std::string error;
  return wire::parseObject(response, &error);
}

// The shard ids present in a fleet snapshot's flat "shard.<id>.<k>"
// keys, in key order.
std::vector<std::string> shardIdsIn(const Object& fleet) {
  std::vector<std::string> ids;
  for (const auto& [key, value] : fleet) {
    (void)value;
    if (key.rfind("shard.", 0) != 0) continue;
    const std::size_t dot = key.find('.', 6);
    if (dot == std::string::npos) continue;
    const std::string id = key.substr(6, dot - 6);
    if (ids.empty() || ids.back() != id) {
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
        ids.push_back(id);
      }
    }
  }
  return ids;
}

// One "burnGauge" cell: worst burn against its alerting threshold,
// e.g. "0.31/2.0x".
std::string burnGauge(double burn, double threshold) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.2f/%.1fx", burn, threshold);
  return buf;
}

struct Frame {
  bool ok = false;          // fleet (or metrics) answered
  std::uint64_t burning = 0;  // SLOs currently burning
};

// Re-emit every key of `src` into `w` under `prefix` with its original
// JSON kind (the op responses are flat, so this is lossless); `skip`
// names one key to drop (bulky text bodies).
void copyInto(wire::ObjectWriter& w, const Object& src,
              const std::string& prefix, const std::string& skip = "") {
  for (const auto& [key, value] : src) {
    if (key == "status" || (!skip.empty() && key == skip)) continue;
    const std::string out = prefix + key;
    switch (value.kind) {
      case wire::Value::Kind::String:
        w.add(out, value.string);
        break;
      case wire::Value::Kind::Number:
        w.add(out, value.number);
        break;
      case wire::Value::Kind::Bool:
        w.add(out, value.boolean);
        break;
      case wire::Value::Kind::Null:
        break;
    }
  }
}

// --json: one flat JSON object on stdout — the fleet snapshot, tsdb
// latency quantiles, SLO burn state, alert totals and the profiler's
// top frames, each family under its own key prefix.  This is the
// machine-readable face ci drills consume instead of scraping the
// human screen.
Frame renderJson(ep::net::Client& conn, const Args& args) {
  Frame frame;
  const auto fleet = query(conn, "{\"op\":\"fleet\"}");
  if (!fleet) return frame;
  frame.ok = true;

  wire::ObjectWriter w;
  w.add("status", "ok").add("host", args.host).add("port",
                                                   static_cast<int>(args.port));
  if (wire::getString(*fleet, "status") == "ok") {
    copyInto(w, *fleet, "fleet.");
  }
  for (const double q : {0.50, 0.99}) {
    char reqLine[160];
    std::snprintf(reqLine, sizeof reqLine,
                  "{\"op\":\"tsdb\",\"series\":\"ep_serve_request_latency_ms\""
                  ",\"agg\":\"quantile\",\"q\":%.2f,\"windowMs\":60000}",
                  q);
    const auto tq = query(conn, reqLine);
    if (!tq || wire::getString(*tq, "status") != "ok") continue;
    char prefix[32];
    std::snprintf(prefix, sizeof prefix, "tsdb.p%.0f.", q * 100);
    copyInto(w, *tq, prefix);
  }
  const auto slo = query(conn, "{\"op\":\"slo\"}");
  if (slo && wire::getString(*slo, "status") == "ok") {
    frame.burning = static_cast<std::uint64_t>(
        wire::getNumber(*slo, "burning").value_or(0));
    copyInto(w, *slo, "");  // keeps the natural "slo.<name>.*" keys
  }
  const auto events = query(conn, "{\"op\":\"events\"}");
  if (events && wire::getString(*events, "status") == "ok") {
    w.add("alerts", wire::getNumber(*events, "alerts").value_or(0));
  }
  const auto prof =
      query(conn, "{\"op\":\"profile\",\"action\":\"snapshot\",\"topN\":5}");
  if (prof && wire::getString(*prof, "status") == "ok") {
    copyInto(w, *prof, "profile.", "body");
  }
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
  return frame;
}

Frame renderFrame(ep::net::Client& conn, const Args& args) {
  Frame frame;

  const auto fleet = query(conn, "{\"op\":\"fleet\"}");
  const auto slo = query(conn, "{\"op\":\"slo\"}");
  const auto events = query(conn, "{\"op\":\"events\"}");
  if (!fleet) return frame;
  const bool isFleet = wire::getString(*fleet, "status") == "ok";
  frame.ok = true;

  std::printf("eptop @ %s:%u", args.host.c_str(),
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
    for (const std::string& id : shardIdsIn(*fleet)) {
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
    char reqLine[160];
    std::snprintf(reqLine, sizeof reqLine,
                  "{\"op\":\"tsdb\",\"series\":\"ep_serve_request_latency_ms\""
                  ",\"agg\":\"quantile\",\"q\":%.2f,\"windowMs\":60000}",
                  q);
    const auto tq = query(conn, reqLine);
    if (!tq || wire::getString(*tq, "status") != "ok") continue;
    if (!wire::getBool(*tq, "defined").value_or(false)) continue;
    if (wire::getBool(*tq, "unbounded").value_or(false)) {
      std::printf("  tsdb p%.0f (60s) : beyond last bucket bound\n", q * 100);
    } else {
      std::printf("  tsdb p%.0f (60s) : <= %.3f ms\n", q * 100,
                  wire::getNumber(*tq, "value").value_or(0));
    }
  }

  if (slo && wire::getString(*slo, "status") == "ok") {
    frame.burning = static_cast<std::uint64_t>(
        wire::getNumber(*slo, "burning").value_or(0));
    std::printf("\n  %-14s %-8s %-8s %12s %8s\n", "slo", "kind", "state",
                "burn gauge", "raised");
    // Flat keys "slo.<name>.<field>" — collect the names first.
    std::vector<std::string> names;
    for (const auto& [key, value] : *slo) {
      (void)value;
      if (key.rfind("slo.", 0) != 0) continue;
      const std::size_t dot = key.find('.', 4);
      if (dot == std::string::npos) continue;
      const std::string name = key.substr(4, dot - 4);
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        names.push_back(name);
      }
    }
    for (const std::string& name : names) {
      const std::string p = "slo." + name + ".";
      const bool burning = wire::getBool(*slo, p + "burning").value_or(false);
      // The tightest (first) window's threshold anchors the gauge.
      const double threshold =
          wire::getNumber(*slo, p + "w0.threshold").value_or(1.0);
      std::printf("  %-14s %-8s %-8s %12s %8.0f\n", name.c_str(),
                  wire::getString(*slo, p + "kind").value_or("?").c_str(),
                  burning ? "BURNING" : "ok",
                  burnGauge(wire::getNumber(*slo, p + "worstBurn").value_or(0),
                            threshold)
                      .c_str(),
                  wire::getNumber(*slo, p + "raised").value_or(0));
    }
  } else {
    std::printf("\n  (no SLOs declared on this endpoint)\n");
  }
  std::fflush(stdout);
  return frame;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, &args)) {
    std::cerr << "usage: eptop [--host H] [--port P] [--interval-ms MS]"
                 " [--once] [--check] [--json]\n";
    return 2;
  }

  ep::net::Client conn;
  std::string error;
  if (!conn.open(args.host, args.port, {}, &error)) {
    std::cerr << "eptop: " << error << "\n";
    return 1;
  }

  std::signal(SIGINT, handleStopSignal);
  std::signal(SIGTERM, handleStopSignal);

  Frame frame;
  for (;;) {
    if (!args.once) std::printf("\x1b[H\x1b[2J");
    frame = args.json ? renderJson(conn, args) : renderFrame(conn, args);
    if (!frame.ok) {
      std::cerr << "eptop: lost connection to " << args.host << ":"
                << args.port << "\n";
      return 1;
    }
    if (args.once || gStop) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(args.intervalMs));
    if (gStop) break;
  }

  if (args.check && frame.burning > 0) return 2;
  return 0;
}
