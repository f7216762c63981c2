#include "obs/slo.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ep::obs {

namespace {

bool parseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  std::size_t parsed = 0;
  try {
    *out = std::stod(s, &parsed);
  } catch (const std::exception&) {
    return false;
  }
  return parsed == s.size();
}

std::vector<std::string> splitColon(const std::string& s) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const std::size_t colon = s.find(':', start);
    if (colon == std::string::npos) {
      parts.push_back(s.substr(start));
      return parts;
    }
    parts.push_back(s.substr(start, colon - start));
    start = colon + 1;
  }
}

}  // namespace

std::optional<SloSpec> parseSloSpec(const std::string& text,
                                    std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<SloSpec> {
    if (error != nullptr) *error = why + ": \"" + text + "\"";
    return std::nullopt;
  };
  SloSpec spec;
  std::string body = text;
  if (const std::size_t eq = body.find('='); eq != std::string::npos) {
    spec.name = body.substr(0, eq);
    body = body.substr(eq + 1);
    if (spec.name.empty()) return fail("empty SLO name");
  }
  const std::vector<std::string> parts = splitColon(body);
  if (parts.empty()) return fail("empty SLO spec");
  if (parts[0] == "latency") {
    spec.kind = SloSpec::Kind::LatencyQuantile;
    if (parts.size() != 3) {
      return fail("latency SLO wants latency:<thresholdMs>:<objective>");
    }
    if (!parseDouble(parts[1], &spec.latencyThresholdMs) ||
        !(spec.latencyThresholdMs > 0.0)) {
      return fail("bad latency threshold");
    }
    if (!parseDouble(parts[2], &spec.objective) || !(spec.objective > 0.0) ||
        !(spec.objective < 1.0)) {
      return fail("objective must be in (0,1)");
    }
  } else if (parts[0] == "energy") {
    spec.kind = SloSpec::Kind::EnergyPerRequest;
    if (spec.name == "latency") spec.name = "energy";
    if (parts.size() != 2) {
      return fail("energy SLO wants energy:<joulesPerRequest>");
    }
    if (!parseDouble(parts[1], &spec.joulesPerRequestBudget) ||
        !(spec.joulesPerRequestBudget > 0.0)) {
      return fail("bad joules-per-request budget");
    }
  } else {
    return fail("unknown SLO kind \"" + parts[0] + "\"");
  }
  return spec;
}

SloEngine::SloEngine(const TimeSeriesStore* store, std::vector<SloSpec> specs)
    : SloEngine(store, std::move(specs), Options{}) {}

SloEngine::SloEngine(const TimeSeriesStore* store, std::vector<SloSpec> specs,
                     Options options)
    : store_(store),
      options_(std::move(options)),
      recorder_(kRecorderCapacity) {
  states_.reserve(specs.size());
  for (auto& spec : specs) {
    if (spec.windows.empty()) spec.windows = options_.defaultWindows;
    State st;
    st.last.name = spec.name;
    st.last.kind = spec.kind;
    st.spec = std::move(spec);
    states_.push_back(std::move(st));
  }
}

// Error-budget burn rate of one SLO over [fromNs, toNs].  Latency: the
// fraction of requests slower than the threshold, over the budget
// (1 - objective).  Energy: attributed J per completed request over
// the declared budget (burn 1.0 = spending exactly the budget).
double SloEngine::burnOver(const SloSpec& spec, std::int64_t fromNs,
                           std::int64_t toNs) const {
  if (spec.kind == SloSpec::Kind::LatencyQuantile) {
    const auto metas = store_->histogramsForFamily(spec.family);
    double total = 0.0;
    double good = 0.0;
    for (const HistogramMeta& meta : metas) {
      // Smallest bound covering the threshold; requests beyond the last
      // bound (the +Inf bucket) are always bad.
      std::size_t thresholdBucket = meta.bounds.size();
      for (std::size_t i = 0; i < meta.bounds.size(); ++i) {
        if (meta.bounds[i] >= spec.latencyThresholdMs) {
          thresholdBucket = i;
          break;
        }
      }
      auto delta = [&](const std::string& key) {
        const auto samples = store_->range(key, fromNs, toNs);
        return samples.size() >= 2
                   ? samples.back().value - samples.front().value
                   : 0.0;
      };
      total += delta(meta.countKey);
      if (thresholdBucket < meta.bounds.size()) {
        good += delta(meta.bucketKeys[thresholdBucket]);
      }
      // thresholdBucket == bounds.size(): threshold above every bound,
      // only the +Inf bucket covers it — everything counted is good.
      else {
        good += delta(meta.countKey);
      }
    }
    if (!(total > 0.0)) return 0.0;
    const double badFraction =
        std::max(0.0, (total - good)) / total;
    const double budget = std::max(1e-9, 1.0 - spec.objective);
    return badFraction / budget;
  }

  // EnergyPerRequest.
  auto familyDelta = [&](const std::string& family) {
    double sum = 0.0;
    for (const std::string& key : store_->keysForFamily(family)) {
      const auto samples = store_->range(key, fromNs, toNs);
      if (samples.size() >= 2) {
        sum += samples.back().value - samples.front().value;
      }
    }
    return sum;
  };
  const double joules = familyDelta(spec.energyFamily);
  const double requests = familyDelta(spec.requestsFamily);
  if (!(requests > 0.0)) return 0.0;
  const double jpr = std::max(0.0, joules) / requests;
  return jpr / spec.joulesPerRequestBudget;
}

void SloEngine::evaluate(std::int64_t nowNs) {
  std::lock_guard lk(mu_);
  for (State& st : states_) {
    SloStatus status;
    status.name = st.spec.name;
    status.kind = st.spec.kind;
    status.raisedCount = st.last.raisedCount;
    bool anyPairBurning = false;
    double worstThreshold = 0.0;
    for (const BurnWindow& w : st.spec.windows) {
      WindowBurn wb;
      wb.longMs = w.longMs;
      wb.shortMs = w.shortMs;
      wb.threshold = w.burnThreshold;
      wb.longBurn = burnOver(st.spec, nowNs - w.longMs * 1000000, nowNs);
      wb.shortBurn = burnOver(st.spec, nowNs - w.shortMs * 1000000, nowNs);
      status.worstBurn =
          std::max({status.worstBurn, wb.longBurn, wb.shortBurn});
      if (wb.longBurn >= w.burnThreshold && wb.shortBurn >= w.burnThreshold) {
        anyPairBurning = true;
        worstThreshold = w.burnThreshold;
      }
      status.windows.push_back(wb);
    }
    if (!st.last.burning) {
      status.burning = anyPairBurning;
    } else {
      // Hysteresis: stay burning until every window burn rate drops
      // below threshold * clearFraction.
      bool allClear = true;
      for (const WindowBurn& wb : status.windows) {
        if (std::max(wb.longBurn, wb.shortBurn) >=
            wb.threshold * options_.clearFraction) {
          allClear = false;
          break;
        }
      }
      status.burning = !allClear;
    }
    if (status.burning && !st.last.burning) {
      ++status.raisedCount;
      FlightEvent e;
      e.timeNs = static_cast<std::uint64_t>(nowNs);
      e.value = status.worstBurn;
      e.threshold = worstThreshold;
      setFlightField(e.kind, "slo_burn");
      setFlightField(e.scope, st.spec.name.c_str());
      char msg[sizeof e.message];
      std::snprintf(msg, sizeof msg,
                    "%s SLO burning at %.2fx the error-budget rate",
                    st.spec.kind == SloSpec::Kind::LatencyQuantile
                        ? "latency"
                        : "energy-budget",
                    status.worstBurn);
      setFlightField(e.message, msg);
      recorder_.record(e);
    } else if (!status.burning && st.last.burning) {
      FlightEvent e;
      e.timeNs = static_cast<std::uint64_t>(nowNs);
      e.value = status.worstBurn;
      e.threshold =
          st.spec.windows.empty() ? 0.0 : st.spec.windows[0].burnThreshold;
      setFlightField(e.kind, "slo_cleared");
      setFlightField(e.scope, st.spec.name.c_str());
      char msg[sizeof e.message];
      std::snprintf(msg, sizeof msg, "%s SLO recovered (burn %.2fx)",
                    st.spec.kind == SloSpec::Kind::LatencyQuantile
                        ? "latency"
                        : "energy-budget",
                    status.worstBurn);
      setFlightField(e.message, msg);
      recorder_.record(e);
    }
    st.last = std::move(status);
  }
}

std::vector<SloEngine::SloStatus> SloEngine::status() const {
  std::lock_guard lk(mu_);
  std::vector<SloStatus> out;
  out.reserve(states_.size());
  for (const State& st : states_) out.push_back(st.last);
  return out;
}

std::size_t SloEngine::activeAlerts() const {
  std::lock_guard lk(mu_);
  std::size_t n = 0;
  for (const State& st : states_) n += st.last.burning ? 1 : 0;
  return n;
}

}  // namespace ep::obs
