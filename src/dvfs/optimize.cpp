#include "dvfs/optimize.hpp"

#include "pareto/front.hpp"

namespace ep::dvfs {

std::optional<DvfsRun> minimizeEnergyUnderDeadline(const DvfsProcessor& proc,
                                                   const Workload& w,
                                                   Seconds deadline) {
  std::optional<DvfsRun> best;
  for (const auto& state : proc.table().states()) {
    const DvfsRun r = proc.run(w, state);
    if (r.time > deadline) continue;
    if (!best || r.dynamicEnergy < best->dynamicEnergy) best = r;
  }
  return best;
}

std::vector<pareto::BiPoint> dvfsPoints(const DvfsProcessor& proc,
                                        const Workload& w) {
  std::vector<pareto::BiPoint> pts;
  const auto& states = proc.table().states();
  pts.reserve(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    const DvfsRun r = proc.run(w, states[i]);
    pareto::BiPoint p;
    p.time = r.time;
    p.energy = r.dynamicEnergy;
    p.configId = i;
    p.label = "f=" + std::to_string(static_cast<int>(states[i].freqMHz)) +
              "MHz";
    pts.push_back(std::move(p));
  }
  return pts;
}

std::vector<pareto::BiPoint> dvfsParetoFront(const DvfsProcessor& proc,
                                             const Workload& w) {
  return pareto::paretoFront(dvfsPoints(proc, w));
}

}  // namespace ep::dvfs
