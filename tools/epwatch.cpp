// epwatch — text dashboard over epserved's power-anomaly watchdog.
//
// Usage:
//   epwatch [--host H] [--port P] [--since SEQ] [--check] [--raw]
//
// Fetches {"op":"events"} (the watchdog flight recorder) plus the
// Prometheus exposition, and renders:
//   * the active-alert count and ring totals (recorded / dropped),
//   * every drained event: seq, kind, scope, value vs threshold, the
//     trace id it fired under, and the human message,
//   * the per-device request-attributed energy ledger
//     (ep_request_energy_joules / ep_request_windows_total).
//
// Exit status is script-friendly:
//   0 — connected, and (with --check) no active alerts
//   1 — could not connect / server answered with an error
//   2 — --check and at least one anomaly is raised and not yet cleared
//
// --since SEQ drains only events newer than SEQ (incremental tailing:
// feed the highest seq you have seen back in).  --raw dumps the event
// lines verbatim (one flat JSON object per line) for jq-style piping.
//
// Against epserved --shards N the drain merges every shard watchdog's
// recorder, the SLO engine's burn transitions and the health monitor's
// shard transitions into one stream, each event tagged with where it
// came from; an event line that carries a "shard" tag gets a [shard]
// column.
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "net/client.hpp"
#include "serve/wire.hpp"

namespace {

namespace wire = ep::serve::wire;

struct Args {
  std::string host = "127.0.0.1";
  std::uint16_t port = 7070;
  std::uint64_t since = 0;
  bool check = false;
  bool raw = false;
};

bool parseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    bool ok = true;
    if (arg == "--check") {
      a->check = true;
    } else if (arg == "--raw") {
      a->raw = true;
    } else if (arg == "--host" && v != nullptr) {
      a->host = argv[++i];
    } else if (arg == "--port") {
      ok = ep::cli::parseNumber<std::uint16_t>(argv[++i], 1, 65535, &a->port);
    } else if (arg == "--since") {
      ok = ep::cli::parseNumber<std::uint64_t>(
          argv[++i], 0, ~std::uint64_t{0}, &a->since);
    } else {
      return false;
    }
    if (!ok) return false;
  }
  return true;
}

void printEvent(const wire::Object& e) {
  const std::string kind = wire::getString(e, "kind").value_or("?");
  const auto seq =
      static_cast<unsigned long long>(wire::getNumber(e, "seq").value_or(0));
  const std::string scope = wire::getString(e, "scope").value_or("");
  const double value = wire::getNumber(e, "value").value_or(0);
  const double threshold = wire::getNumber(e, "threshold").value_or(0);
  const std::string trace = wire::getString(e, "trace").value_or("0");
  const std::string message = wire::getString(e, "message").value_or("");
  const auto shard = wire::getString(e, "shard");
  const char* marker =
      (kind == "cleared" || kind == "slo_cleared") ? " ok  " : "ALERT";
  if (shard) {
    std::printf("  [%s] #%-4llu [%-7s] %-18s %-14s %9.3g / %-9.3g trace=%s\n",
                marker, seq, shard->c_str(), kind.c_str(), scope.c_str(),
                value, threshold, trace.c_str());
  } else {
    std::printf("  [%s] #%-4llu %-18s %-14s %9.3g / %-9.3g trace=%s\n",
                marker, seq, kind.c_str(), scope.c_str(), value, threshold,
                trace.c_str());
  }
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

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, &args)) {
    std::cerr << "usage: epwatch [--host H] [--port P] [--since SEQ]"
                 " [--check] [--raw]\n";
    return 2;
  }

  ep::net::Client conn;
  std::string error;
  if (!conn.open(args.host, args.port, {}, &error)) {
    std::cerr << "epwatch: " << error << "\n";
    return 1;
  }

  wire::ObjectWriter req;
  req.add("op", "events");
  if (args.since > 0) req.add("since", args.since);
  std::string response;
  if (!conn.roundTrip(req.str(), &response)) {
    std::cerr << "epwatch: events request failed\n";
    return 1;
  }
  const auto obj = wire::parseObject(response, &error);
  if (!obj) {
    std::cerr << "epwatch: bad response: " << error << "\n";
    return 1;
  }
  if (wire::getString(*obj, "status") != "ok") {
    std::cerr << "epwatch: server error: "
              << wire::getString(*obj, "error").value_or("unknown") << "\n";
    return 1;
  }

  const auto alerts = static_cast<unsigned long long>(
      wire::getNumber(*obj, "alerts").value_or(0));
  const auto recorded = static_cast<unsigned long long>(
      wire::getNumber(*obj, "recorded").value_or(0));
  const auto dropped = static_cast<unsigned long long>(
      wire::getNumber(*obj, "dropped").value_or(0));
  const std::string body = wire::getString(*obj, "body").value_or("");

  if (args.raw) {
    std::cout << body;
  } else {
    std::printf("epwatch @ %s:%u — %llu active alert(s), %llu event(s)"
                " recorded, %llu dropped\n",
                args.host.c_str(), static_cast<unsigned>(args.port), alerts,
                recorded, dropped);
    std::istringstream lines(body);
    std::string line;
    bool any = false;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      const auto e = wire::parseObject(line, &error);
      if (!e) continue;
      any = true;
      printEvent(*e);
    }
    if (!any) std::printf("  (no events%s)\n",
                          args.since > 0 ? " past --since" : "");

    std::string metricsResp;
    if (conn.roundTrip("{\"op\":\"metrics\",\"format\":\"prometheus\"}",
                       &metricsResp)) {
      if (const auto m = wire::parseObject(metricsResp, &error)) {
        printEnergyLedger(wire::getString(*m, "body").value_or(""));
      }
    }
  }

  if (args.check && alerts > 0) return 2;
  return 0;
}
