// SLO burn-rate engine over eptsdb history.
//
// The paper's bi-objective framing gives a serving fleet two axes that
// can regress independently: request latency and energy per request.
// An SloSpec declares an objective on one of them —
//
//   latency:   "fraction `objective` of requests complete within
//               `latencyThresholdMs`" (evaluated from the cumulative
//               bucket deltas of the latency histogram), or
//   energy:    "attributed joules per completed request stays within
//               `joulesPerRequestBudget`" (the PR 5 ledger counters) —
//
// and the engine evaluates it with the multi-window multi-burn-rate
// recipe: for each (longMs, shortMs, burnThreshold) window pair, the
// error budget burn rate is computed over both windows, and the SLO is
// *burning* when some pair exceeds its threshold in BOTH — the long
// window proves sustained damage, the short window proves it is still
// happening (so alerts clear fast after recovery).  Burn = 1.0 means
// the error budget is consumed exactly at the sustainable rate.
//
// Alert transitions are recorded as FlightRecorder events (kind
// "slo_burn" / "slo_cleared") with hysteresis: a burning SLO clears
// only once every window burn drops below threshold * clearFraction.
// evaluate() is driven by the Scraper's afterScrape hook, so alerting
// rides the scrape cadence and synthetic-time tests drive it directly.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/events.hpp"
#include "obs/tsdb.hpp"

namespace ep::obs {

struct BurnWindow {
  std::int64_t longMs = 3600000;
  std::int64_t shortMs = 300000;
  double burnThreshold = 14.4;
};

struct SloSpec {
  enum class Kind { LatencyQuantile, EnergyPerRequest };
  Kind kind = Kind::LatencyQuantile;
  std::string name = "latency";

  // Latency: fraction `objective` of requests finish within
  // latencyThresholdMs, read from `family`'s bucket deltas.
  std::string family = "ep_serve_request_latency_ms";
  double latencyThresholdMs = 0.5;
  double objective = 0.99;

  // Energy: joules per completed request stays within the budget.
  std::string energyFamily = "ep_request_energy_joules";
  std::string requestsFamily = "ep_serve_completed_total";
  double joulesPerRequestBudget = 1.0;

  // Empty = the engine's default window pairs.
  std::vector<BurnWindow> windows;
};

// Parse "[name=]latency:<thresholdMs>:<objective>" or
// "[name=]energy:<joulesPerRequest>".  Returns nullopt and sets *error
// on malformed input.
[[nodiscard]] std::optional<SloSpec> parseSloSpec(const std::string& text,
                                                  std::string* error);

class SloEngine {
 public:
  struct Options {
    // The classic SRE pairs: page on 14.4x over 1h/5m, ticket on 6x
    // over 6h/30m.  Drills override with second-scale windows.
    std::vector<BurnWindow> defaultWindows = {{3600000, 300000, 14.4},
                                              {21600000, 1800000, 6.0}};
    // Hysteresis: clear only below threshold * clearFraction.
    double clearFraction = 0.9;
  };

  struct WindowBurn {
    std::int64_t longMs = 0;
    std::int64_t shortMs = 0;
    double threshold = 0.0;
    double longBurn = 0.0;
    double shortBurn = 0.0;
  };

  struct SloStatus {
    std::string name;
    SloSpec::Kind kind = SloSpec::Kind::LatencyQuantile;
    bool burning = false;
    double worstBurn = 0.0;  // max over every window burn
    std::uint64_t raisedCount = 0;
    std::vector<WindowBurn> windows;
  };

  SloEngine(const TimeSeriesStore* store, std::vector<SloSpec> specs);
  SloEngine(const TimeSeriesStore* store, std::vector<SloSpec> specs,
            Options options);

  // Evaluate every SLO against tsdb history ending at nowNs, raising /
  // clearing alerts.  Call from one thread (the scraper's).
  void evaluate(std::int64_t nowNs);

  [[nodiscard]] std::vector<SloStatus> status() const;
  [[nodiscard]] std::size_t activeAlerts() const;
  [[nodiscard]] std::vector<FlightEvent> events(std::uint64_t since = 0) const {
    return recorder_.snapshot(since);
  }
  [[nodiscard]] const FlightRecorder& recorder() const { return recorder_; }

 private:
  struct State {
    SloSpec spec;
    SloStatus last;
  };

  [[nodiscard]] double burnOver(const SloSpec& spec, std::int64_t fromNs,
                                std::int64_t toNs) const;

  static constexpr std::size_t kRecorderCapacity = 256;

  const TimeSeriesStore* store_;
  Options options_;
  FlightRecorder recorder_;
  mutable std::mutex mu_;
  std::vector<State> states_;
};

}  // namespace ep::obs
