#include "pareto/front.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace ep::pareto {

namespace {

// Sort-based front peeling (Jensen's 2-D sweep) over ONE sorted index
// array: O(n log n) total and O(n log k) when capped at maxLevels
// fronts.  Only indices move while sorting and peeling; no point (and
// no label) is copied until a caller gathers the fronts it wants.
//
// The sweep order is (time, energy, configId), ties broken by input
// position.  Every already-placed point precedes the current point p in
// that order, so whether a front dominates p is decided by that front's
// TAIL (its last appended member, which has the front's max time and
// min energy):
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
// Capping at maxLevels is exact for the kept fronts: a point deeper
// than maxLevels can never become the tail of a tracked front, so
// discarding it cannot change how later points are placed.
struct Peel {
  struct Entry {
    std::size_t index = 0;  // into points
    std::size_t level = 0;  // 0-based front; maxLevels = untracked
  };
  std::vector<Entry> sweep;  // every point, in sweep order
  std::size_t fronts = 0;    // levels found, <= maxLevels
};

Peel peelFronts(const std::vector<BiPoint>& points, std::size_t maxLevels) {
  const std::size_t n = points.size();
  Peel pl;
  pl.sweep.resize(n);
  for (std::size_t i = 0; i < n; ++i) pl.sweep[i] = {i, maxLevels};
  std::sort(pl.sweep.begin(), pl.sweep.end(),
            [&points](const Peel::Entry& a, const Peel::Entry& b) {
              const BiPoint& pa = points[a.index];
              const BiPoint& pb = points[b.index];
              if (pa.time != pb.time) return pa.time < pb.time;
              if (pa.energy != pb.energy) return pa.energy < pb.energy;
              if (pa.configId != pb.configId) return pa.configId < pb.configId;
              return a.index < b.index;
            });
  std::vector<std::size_t> tails;  // tails[f]: index of front f's tail
  tails.reserve(std::min(maxLevels, n));
  for (Peel::Entry& e : pl.sweep) {
    const BiPoint& p = points[e.index];
    std::size_t lo = 0;
    std::size_t hi = tails.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const BiPoint& tail = points[tails[mid]];
      const bool tailDominates =
          tail.energy < p.energy ||
          (tail.energy == p.energy && tail.time < p.time);
      if (tailDominates) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == tails.size()) {
      if (tails.size() == maxLevels) continue;  // deeper than we track
      tails.push_back(e.index);
    } else {
      tails[lo] = e.index;
    }
    e.level = lo;
  }
  pl.fronts = tails.size();
  return pl;
}

// Copies of front `level`'s members, in sweep order.
std::vector<BiPoint> gatherLevel(const std::vector<BiPoint>& points,
                                 const Peel& pl, std::size_t level) {
  std::vector<BiPoint> front;
  for (const Peel::Entry& e : pl.sweep) {
    if (e.level == level) front.push_back(points[e.index]);
  }
  return front;
}

}  // namespace

std::vector<BiPoint> paretoFront(const std::vector<BiPoint>& points) {
  return localFront(points, 1);
}

std::vector<std::vector<BiPoint>> nonDominatedSort(std::vector<BiPoint> points) {
  const Peel pl =
      peelFronts(points, std::numeric_limits<std::size_t>::max());
  std::vector<std::vector<BiPoint>> fronts(pl.fronts);
  for (const Peel::Entry& e : pl.sweep) {
    fronts[e.level].push_back(std::move(points[e.index]));
  }
  return fronts;
}

std::vector<BiPoint> localFront(const std::vector<BiPoint>& points,
                                std::size_t k) {
  EP_REQUIRE(k >= 1, "front levels are 1-based");
  return gatherLevel(points, peelFronts(points, k), k - 1);
}

std::vector<std::vector<BiPoint>> leadingFronts(
    const std::vector<BiPoint>& points, std::size_t levels) {
  EP_REQUIRE(levels >= 1, "front levels are 1-based");
  const Peel pl = peelFronts(points, levels);
  std::vector<std::vector<BiPoint>> fronts(levels);
  for (std::size_t k = 0; k < levels && k < pl.fronts; ++k) {
    fronts[k] = gatherLevel(points, pl, k);
  }
  return fronts;
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
