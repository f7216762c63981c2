#include "pareto/front.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace ep::pareto {

// Sort-based front peeling (Jensen's 2-D sweep) over keys held by
// value: the sort compares fields in place, never through an index
// into the points.
//
// Every already-placed key precedes the current key p in sweep order,
// so whether a front dominates p is decided by that front's TAIL (its
// last appended member, which has the front's max time and min
// energy):
//   tail dominates p  <=>  tail.energy < p.energy
//                          || (tail.energy == p.energy
//                              && tail.time < p.time)
// (equal time and equal energy are mutually non-dominating, which is
// how duplicate-objective points all land on the same front).  The
// predicate is monotone over front levels — if front f's tail does not
// dominate p, no deeper front's tail does — so the target front is
// found by binary search, and p is appended to the first front whose
// tail does not dominate it.
//
// Capping at maxLevels is exact for the kept fronts: a key deeper than
// maxLevels can never become the tail of a tracked front, so
// discarding it cannot change how later keys are placed.
std::size_t peelFronts(std::vector<FrontKey>& keys, std::size_t maxLevels) {
  EP_REQUIRE(maxLevels >= 1, "front levels are 1-based");
  std::sort(keys.begin(), keys.end(),
            [](const FrontKey& a, const FrontKey& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.energy != b.energy) return a.energy < b.energy;
              if (a.configId != b.configId) return a.configId < b.configId;
              return a.index < b.index;
            });
  struct Tail {
    double time;
    double energy;
  };
  std::vector<Tail> tails;  // tails[f]: front f's last member
  tails.reserve(std::min(maxLevels, keys.size()));
  for (FrontKey& p : keys) {
    std::size_t lo = 0;
    std::size_t hi = tails.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const Tail& tail = tails[mid];
      const bool tailDominates =
          tail.energy < p.energy ||
          (tail.energy == p.energy && tail.time < p.time);
      if (tailDominates) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    p.level = lo;
    if (lo == tails.size()) {
      if (tails.size() == maxLevels) continue;  // deeper than we track
      tails.push_back({p.time, p.energy});
    } else {
      tails[lo] = {p.time, p.energy};
    }
  }
  return tails.size();
}

namespace {

std::vector<FrontKey> keysOf(const std::vector<BiPoint>& points) {
  std::vector<FrontKey> keys(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const BiPoint& p = points[i];
    keys[i] = {p.time.value(), p.energy.value(), p.configId, i, 0};
  }
  return keys;
}

}  // namespace

std::vector<BiPoint> paretoFront(const std::vector<BiPoint>& points) {
  return localFront(points, 1);
}

std::vector<std::vector<BiPoint>> nonDominatedSort(std::vector<BiPoint> points) {
  std::vector<FrontKey> keys = keysOf(points);
  std::vector<std::vector<BiPoint>> fronts(
      peelFronts(keys, std::numeric_limits<std::size_t>::max()));
  for (const FrontKey& k : keys) {
    fronts[k.level].push_back(std::move(points[k.index]));
  }
  return fronts;
}

std::vector<BiPoint> localFront(const std::vector<BiPoint>& points,
                                std::size_t k) {
  EP_REQUIRE(k >= 1, "front levels are 1-based");
  std::vector<FrontKey> keys = keysOf(points);
  peelFronts(keys, k);
  std::vector<BiPoint> front;
  for (const FrontKey& key : keys) {
    if (key.level == k - 1) front.push_back(points[key.index]);
  }
  return front;
}

bool isValidFront(const std::vector<BiPoint>& front,
                  const std::vector<BiPoint>& points) {
  for (const auto& a : front) {
    for (const auto& b : front) {
      if (dominates(a, b)) return false;
    }
  }
  for (const auto& p : points) {
    for (const auto& f : front) {
      if (dominates(p, f)) return false;
    }
  }
  return true;
}

std::vector<BiPoint> precisionFront(const std::vector<BiPoint>& points,
                                    double epsilon) {
  EP_REQUIRE(epsilon >= 0.0, "epsilon must be non-negative");
  const std::vector<BiPoint> front = paretoFront(points);
  // a matches b's objective to within the measurement uncertainty.
  const auto within = [epsilon](double a, double b) {
    return a <= (1.0 + epsilon) * b;
  };
  // a beats b's objective by more than the measurement uncertainty.
  const auto beats = [epsilon](double a, double b) {
    return a < (1.0 - epsilon) * b;
  };
  std::vector<BiPoint> kept;
  for (const auto& b : front) {
    const bool redundant = std::any_of(
        front.begin(), front.end(), [&](const BiPoint& a) {
          return within(a.time.value(), b.time.value()) &&
                 within(a.energy.value(), b.energy.value()) &&
                 (beats(a.time.value(), b.time.value()) ||
                  beats(a.energy.value(), b.energy.value()));
        });
    if (!redundant) kept.push_back(b);
  }
  return kept;
}

}  // namespace ep::pareto
