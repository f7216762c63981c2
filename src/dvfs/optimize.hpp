// The system-level bi-objective baselines of the related-work section:
//   * minimize energy under an execution-time constraint ([18]-style),
//   * the full energy/performance Pareto front over P-states
//     ([19]-[21]-style, with frequency as the only decision variable).
#pragma once

#include <optional>
#include <vector>

#include "dvfs/processor.hpp"
#include "pareto/point.hpp"

namespace ep::dvfs {

// Cheapest state whose execution time meets the deadline; nullopt if
// even the highest state is too slow.
[[nodiscard]] std::optional<DvfsRun> minimizeEnergyUnderDeadline(
    const DvfsProcessor& proc, const Workload& w, Seconds deadline);

// All P-state runs as bi-objective points (configId = state index).
[[nodiscard]] std::vector<pareto::BiPoint> dvfsPoints(
    const DvfsProcessor& proc, const Workload& w);

// The Pareto-optimal subset of dvfsPoints.
[[nodiscard]] std::vector<pareto::BiPoint> dvfsParetoFront(
    const DvfsProcessor& proc, const Workload& w);

}  // namespace ep::dvfs
