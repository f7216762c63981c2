// epprof — client for the continuous profiler on epserved.
//
// Usage:
//   epprof [--host H] [--port P] [--kind cpu|energy] [--scope cluster]
//          [--top N] [--interval-ms MS] [--once]
//          [--start] [--period-us US] [--energy-only] [--stop] [--clear]
//          [--collapse FILE] [--speedscope FILE]
//          [--check FRAME --min-share X]
//          [--check-total J --tol FRAC]
//
// Default mode is a live "top frames" view (inclusive weight and share
// per frame label), repainted every interval until interrupted; --once
// renders a single frame.  Control flags (--start/--stop/--clear) act
// and exit.  --collapse / --speedscope fetch one snapshot and write the
// flamegraph input file.  The check flags are the scriptable face the
// ci.sh profiler drill uses:
//   --check FRAME --min-share X   exit 2 unless FRAME's inclusive share
//                                 of the profile weight is >= X
//   --check-total J --tol FRAC    exit 2 unless the profile's total
//                                 weight matches J within FRAC
//                                 (|total - J| <= FRAC * max(J, eps))
//
// Exit status: 0 ok / checks passed; 1 transport or server error;
// 2 a check failed.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <thread>

#include "common/cli.hpp"
#include "net/client.hpp"
#include "serve/wire.hpp"

namespace {

volatile std::sig_atomic_t gStop = 0;
void handleStopSignal(int) { gStop = 1; }

struct Args {
  std::string host = "127.0.0.1";
  std::uint16_t port = 7070;
  std::string kind = "cpu";
  bool cluster = false;
  std::size_t top = 20;
  std::int64_t intervalMs = 1000;
  bool once = false;
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

bool parseArgs(int argc, char** argv, Args* a) {
  using ep::cli::parseNumber;
  constexpr double kMax = std::numeric_limits<double>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--once") {
      a->once = true;
      continue;
    }
    if (arg == "--start") {
      a->start = true;
      continue;
    }
    if (arg == "--energy-only") {
      a->energyOnly = true;
      continue;
    }
    if (arg == "--stop") {
      a->stop = true;
      continue;
    }
    if (arg == "--clear") {
      a->clear = true;
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
    } else if (arg == "--kind") {
      a->kind = v;
      ok = a->kind == "cpu" || a->kind == "energy";
    } else if (arg == "--scope") {
      a->cluster = std::string(v) == "cluster";
      ok = a->cluster || std::string(v) == "process";
    } else if (arg == "--top") {
      ok = parseNumber<std::size_t>(v, 0, 1 << 20, &a->top);
    } else if (arg == "--interval-ms") {
      ok = parseNumber<std::int64_t>(v, 1, 86400000, &a->intervalMs);
    } else if (arg == "--period-us") {
      ok = parseNumber<std::uint64_t>(v, 1, 60000000, &a->periodUs);
    } else if (arg == "--collapse") {
      a->collapseFile = v;
    } else if (arg == "--speedscope") {
      a->speedscopeFile = v;
    } else if (arg == "--check") {
      a->checkFrame = v;
    } else if (arg == "--min-share") {
      ok = parseNumber(v, 0.0, 1.0, &a->minShare);
    } else if (arg == "--check-total") {
      ok = parseNumber(v, 0.0, kMax, &a->checkTotal);
    } else if (arg == "--tol") {
      ok = parseNumber(v, 0.0, kMax, &a->tol);
    } else {
      return false;
    }
    if (!ok) return false;
  }
  return true;
}

namespace wire = ep::serve::wire;
using Object = wire::Object;

std::optional<Object> query(ep::net::Client& conn,
                            const std::string& request) {
  std::string response;
  if (!conn.roundTrip(request, &response)) return std::nullopt;
  std::string error;
  return wire::parseObject(response, &error);
}

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
bool renderTop(ep::net::Client& conn, const Args& args) {
  const auto snap = query(conn, snapshotRequest(args, args.top, "collapsed"));
  if (!snap || wire::getString(*snap, "status") != "ok") return false;
  std::printf("epprof @ %s:%u — kind=%s%s samples=%.0f total=%.4g%s "
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
  const auto top =
      static_cast<std::size_t>(wire::getNumber(*snap, "top").value_or(0));
  std::printf("  %-44s %10s %12s %8s\n", "frame (inclusive)", "samples",
              "weight", "share");
  for (std::size_t i = 0; i < top; ++i) {
    const std::string p = "top." + std::to_string(i);
    std::printf("  %-44s %10.0f %10.4g %s %7.1f%%\n",
                wire::getString(*snap, p + ".frame").value_or("?").c_str(),
                wire::getNumber(*snap, p + ".samples").value_or(0),
                wire::getNumber(*snap, p + ".weight").value_or(0),
                weightUnit(args.kind),
                wire::getNumber(*snap, p + ".share").value_or(0) * 100.0);
  }
  std::fflush(stdout);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, &args)) {
    std::cerr
        << "usage: epprof [--host H] [--port P] [--kind cpu|energy]"
           " [--scope cluster] [--top N] [--interval-ms MS] [--once]\n"
           "              [--start] [--period-us US] [--energy-only]"
           " [--stop] [--clear]\n"
           "              [--collapse FILE] [--speedscope FILE]\n"
           "              [--check FRAME --min-share X]"
           " [--check-total J --tol FRAC]\n";
    return 2;
  }

  ep::net::Client conn;
  std::string error;
  if (!conn.open(args.host, args.port, {}, &error)) {
    std::cerr << "epprof: " << error << "\n";
    return 1;
  }

  // Control actions: act, report, exit.
  if (args.start || args.stop || args.clear) {
    int rc = 0;
    auto act = [&](const std::string& request, const char* what) {
      const auto resp = query(conn, request);
      if (!resp || wire::getString(*resp, "status") != "ok") {
        std::cerr << "epprof: " << what << " failed\n";
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

  // One-shot export / check modes fetch a single full snapshot.
  const bool exporting =
      !args.collapseFile.empty() || !args.speedscopeFile.empty();
  const bool checking = !args.checkFrame.empty() || args.checkTotal >= 0.0;
  if (exporting || checking) {
    // topN=0 = every frame (the checks must see non-top frames too).
    const auto snap = query(conn, snapshotRequest(args, 0, "collapsed"));
    if (!snap || wire::getString(*snap, "status") != "ok") {
      std::cerr << "epprof: snapshot failed\n";
      return 1;
    }
    if (!args.collapseFile.empty()) {
      std::ofstream out(args.collapseFile);
      out << wire::getString(*snap, "body").value_or("");
      if (!out) {
        std::cerr << "epprof: cannot write " << args.collapseFile << "\n";
        return 1;
      }
      std::printf("wrote %s\n", args.collapseFile.c_str());
    }
    if (!args.speedscopeFile.empty()) {
      const auto ss = query(conn, snapshotRequest(args, 0, "speedscope"));
      if (!ss || wire::getString(*ss, "status") != "ok") {
        std::cerr << "epprof: speedscope snapshot failed\n";
        return 1;
      }
      std::ofstream out(args.speedscopeFile);
      out << wire::getString(*ss, "body").value_or("");
      if (!out) {
        std::cerr << "epprof: cannot write " << args.speedscopeFile << "\n";
        return 1;
      }
      std::printf("wrote %s\n", args.speedscopeFile.c_str());
    }
    int rc = 0;
    if (!args.checkFrame.empty()) {
      const auto n =
          static_cast<std::size_t>(wire::getNumber(*snap, "top").value_or(0));
      double share = -1.0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::string p = "top." + std::to_string(i);
        if (wire::getString(*snap, p + ".frame") == args.checkFrame) {
          share = wire::getNumber(*snap, p + ".share").value_or(0);
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

  // Live top.
  std::signal(SIGINT, handleStopSignal);
  std::signal(SIGTERM, handleStopSignal);
  for (;;) {
    if (!args.once) std::printf("\x1b[H\x1b[2J");
    if (!renderTop(conn, args)) {
      std::cerr << "epprof: lost connection to " << args.host << ":"
                << args.port << "\n";
      return 1;
    }
    if (args.once || gStop) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(args.intervalMs));
    if (gStop) break;
  }
  return 0;
}
