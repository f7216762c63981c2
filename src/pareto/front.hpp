// Pareto front computation: the global front and the level-k ("local")
// fronts the paper uses for the K40c, where the global front degenerates
// to a single point but inner fronts still expose energy/performance
// trade-offs (Section V-B).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pareto/point.hpp"

namespace ep::pareto {

// What the front kernel reads of one point, by value.
struct FrontKey {
  double time = 0.0;
  double energy = 0.0;
  std::uint64_t configId = 0;
  std::size_t index = 0;  // the point's place in its list: last tie-break
  std::size_t level = 0;  // written by peelFronts
};

// The one front kernel every front below comes from: sorts `keys` into
// sweep order (time, energy, configId, index) and sets each key's
// 0-based front level, or maxLevels for a key deeper than the first
// maxLevels fronts (maxLevels >= 1).  Returns the number of fronts
// found, at most maxLevels.  O(n log n); O(n log k) in the peel when
// capped at k levels.  A caller that holds its points elsewhere reads
// them by index, so only the front members it keeps are ever copied.
std::size_t peelFronts(std::vector<FrontKey>& keys, std::size_t maxLevels);

// The non-dominated subset of `points`, sorted by ascending time:
// localFront(points, 1).  Duplicate-objective points are all kept (they
// are mutually non-dominating), so fronts are set-stable.
[[nodiscard]] std::vector<BiPoint> paretoFront(
    const std::vector<BiPoint>& points);

// Non-dominated sorting: fronts[0] is the global front, fronts[1] the
// front of what remains after removing fronts[0], and so on.  Every input
// point appears in exactly one front, each front sorted by ascending
// time (energy, configId tie-breaks).  O(n log n) sort-based sweep.
[[nodiscard]] std::vector<std::vector<BiPoint>> nonDominatedSort(
    std::vector<BiPoint> points);

// Level-k local front (k >= 1): nonDominatedSort(points)[k-1]; empty
// vector if fewer than k fronts exist.  Peels only the first k levels
// (O(n log k)) instead of every level.
[[nodiscard]] std::vector<BiPoint> localFront(
    const std::vector<BiPoint>& points, std::size_t k);

// True iff `front` is mutually non-dominating and no point of `points`
// dominates any member.  Used by property tests.
[[nodiscard]] bool isValidFront(const std::vector<BiPoint>& front,
                                const std::vector<BiPoint>& points);

// Precision-aware front: the members of the exact Pareto front that
// remain meaningful when both objectives carry a relative measurement
// uncertainty of `epsilon` (e.g. the CI half-width the measurement
// protocol targets).  A front member b is dropped when some other
// member a matches both of b's objectives to within (1 + epsilon)
// *and* improves at least one of them by more than epsilon — b's
// advantage over a is then below the resolution of the instrument that
// produced it.  Mutual meaningful epsilon-domination is impossible on
// a 2-D front (the strict improvement in one direction contradicts the
// within-epsilon closeness in the other), so the result is
// order-independent.  With epsilon = 0 this is exactly paretoFront.
[[nodiscard]] std::vector<BiPoint> precisionFront(
    const std::vector<BiPoint>& points, double epsilon);

}  // namespace ep::pareto
