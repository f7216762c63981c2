// epprof export: render aggregated profiles (obs/profiler.hpp) in the
// two interchange formats the ecosystem speaks —
//   * collapsed stacks ("a;b;c <count>"), the Brendan Gregg
//     flamegraph.pl / inferno input, and
//   * speedscope JSON (https://www.speedscope.app schema), an
//     "evented"-free sampled profile loadable in speedscope and
//     chrome-adjacent viewers.
// Plus the small analysis helpers the CLI and ci drills build on:
// inclusive per-frame shares (for `epctl prof --check`) and cross-shard
// snapshot merging (for FleetRouter::clusterProfile).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/profiler.hpp"

namespace ep::obs {

// Collapsed-stack text: one "frame;frame;frame <n>" line per stack,
// deterministic (weight-descending, then lexicographic).  Counts are
// integers: samples for Cpu profiles, microjoules (rounded) for Energy
// so sub-joule windows survive the integer format.
[[nodiscard]] std::string renderCollapsed(const ProfileSnapshot& snap);

// Speedscope JSON document ("sampled" profile).  Flat enough for the
// in-tree wire parser to validate object-by-object: every frame object
// and the profile header serialize onto their own line.
[[nodiscard]] std::string renderSpeedscope(const ProfileSnapshot& snap,
                                           const std::string& name);

// Inclusive per-frame aggregate: a frame's weight counts every sample
// whose stack contains it (once, even under recursion).
struct FrameShare {
  std::string frame;
  std::uint64_t samples = 0;
  double weight = 0.0;
  double share = 0.0;  // weight / snapshot totalWeight (0 when empty)
};

// All frames with inclusive shares, weight-descending.  topN > 0 caps
// the result.
[[nodiscard]] std::vector<FrameShare> topFrames(const ProfileSnapshot& snap,
                                                std::size_t topN = 0);

// Merge shard snapshots into one cluster profile.  Each shard's stacks
// are reparented under a synthetic "shard/<id>" root frame (mirroring
// metrics federation's shard labels); totals, drops and truncations
// sum.  Kind and samplePeriodUs are taken from the first snapshot.
[[nodiscard]] ProfileSnapshot mergeProfileSnapshots(
    const std::vector<std::pair<std::string, ProfileSnapshot>>& shards);

}  // namespace ep::obs
