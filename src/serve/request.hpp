// Request/response vocabulary of the epserve tuning service.
//
// The broker accepts two job kinds, both phrased in terms of the
// existing analysis stack:
//
//   * TuneRequest  — "which (BS, G, R) should device D run for workload
//     N under a performance-degradation budget?"  Answered with the
//     epcore::BiObjectiveTuner recommendation over the workload's
//     measured configuration space.
//   * StudyRequest — "survey a workload range on device D" (the
//     Section V front-statistics sweep), answered with
//     epcore::FrontStatistics.
//
// Responses carry a Status instead of throwing across the service
// boundary: a loaded service degrades by *rejecting* (full queue,
// missed deadline, shutdown) rather than failing.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "core/study.hpp"
#include "core/tuner.hpp"
#include "hw/spec.hpp"

namespace ep::serve {

// The simulated GPUs the service can study (Table I parts).  The
// enumerator values are load-bearing: they index kDevices and every
// per-device array, are the EPB1 device byte, and seed cache keys,
// ring keys and per-study RNG streams.
enum class Device { P100, K40c };

// One row per Device, in enumerator order.  Serve and fleet iterate
// this table instead of naming devices.
struct DeviceInfo {
  Device device;
  const char* name;        // wire name and metric-name suffix
  const char* label;       // exposition label and wire-key suffix
  hw::GpuSpec (*spec)();   // the Table I part the engine models
};
inline constexpr std::array<DeviceInfo, 2> kDevices = {{
    {Device::P100, "p100", "P100", &hw::nvidiaP100Pcie},
    {Device::K40c, "k40c", "K40c", &hw::nvidiaK40c},
}};
inline constexpr std::size_t kDeviceCount = kDevices.size();

[[nodiscard]] constexpr std::size_t deviceIndex(Device d) {
  return static_cast<std::size_t>(d);
}
static_assert(
    [] {
      for (std::size_t i = 0; i < kDeviceCount; ++i) {
        if (deviceIndex(kDevices[i].device) != i) return false;
      }
      return true;
    }(),
    "kDevices rows must follow the Device enumerators");

// A per-device array: element i is f(kDevices[i]), built in place and
// in table order (so f may return a type that cannot be copied, and
// registrations made by f happen row by row).
template <typename F>
[[nodiscard]] auto perDevice(F&& f) {
  return [&]<std::size_t... I>(std::index_sequence<I...>) {
    return std::array{f(kDevices[I])...};
  }(std::make_index_sequence<kDeviceCount>{});
}

[[nodiscard]] const char* deviceName(Device d);
// The wire name, the label or the upper-cased wire name ("K40C").
[[nodiscard]] std::optional<Device> parseDevice(std::string_view name);

using Clock = std::chrono::steady_clock;

struct TuneRequest {
  Device device = Device::P100;
  int n = 0;                    // workload (matrix dimension)
  double maxDegradation = 0.0;  // allowed slowdown fraction (0.07 = 7 %)
  // Relative deadline from submission; <= 0 means "no deadline".
  double deadlineMs = 0.0;
};

struct StudyRequest {
  Device device = Device::P100;
  int nBegin = 0;
  int nEnd = 0;   // inclusive
  int nStep = 1;
  double deadlineMs = 0.0;

  // The expanded workload list; empty when the range is malformed.
  [[nodiscard]] std::vector<int> sizes() const;
};

enum class Status {
  Ok,
  QueueFull,         // backpressure: pending queue at capacity
  DeadlineExceeded,  // request expired before a worker could serve it
  ShuttingDown,      // broker no longer accepts work
  Error,             // engine failure (e.g. unlaunchable workload)
  CircuitOpen,       // breaker tripped and no stale result to serve
  Overloaded,        // adaptive admission limit reached: retry with backoff
};

[[nodiscard]] const char* statusName(Status s);

// The energy-attribution ledger of one request: what the service spent
// (or saved) answering it.  Joules and windows are attributed to the
// request that *executed* a study; cache hits and coalesced joins ride
// along for free, so summing attributedJoules over any request mix
// equals the energy of the studies actually measured — no double
// counting.
struct RequestReport {
  double attributedJoules = 0.0;        // dynamic energy newly measured
  std::uint64_t measurementWindows = 0; // accepted meter windows executed
  std::uint64_t remeasures = 0;         // fault recoveries along the way
  std::uint64_t studiesExecuted = 0;    // cold engine evaluations owned
  std::uint64_t cacheHits = 0;          // studies served from the cache
  std::uint64_t coalesced = 0;          // studies joined in flight
  std::uint64_t staleServed = 0;        // stale-while-error answers
  std::uint64_t skippedConfigs = 0;     // configs dropped by SkipAndRecord
};

struct TuneResponse {
  Status status = Status::Ok;
  std::string error;  // set when status == Error
  core::TunerRecommendation recommendation;
  bool cacheHit = false;   // served from the result cache
  bool coalesced = false;  // shared another request's in-flight study
  // Served from the stale-while-error store: the engine failed (or the
  // breaker is open) and a previously-good result answered instead.
  bool stale = false;
  RequestReport report;
  Seconds latency{0.0};    // submit -> response
};

struct StudyResponse {
  Status status = Status::Ok;
  std::string error;
  core::FrontStatistics statistics;
  std::size_t workloadCacheHits = 0;  // per-workload cache hits inside the sweep
  std::size_t staleWorkloads = 0;     // workloads served stale-while-error
  RequestReport report;               // aggregated over the sweep
  Seconds latency{0.0};
};

// Result-cache / coalescing key: identical studies are identical
// computations only if the device, the workload *and* the model's
// tuning constants match (retuning the model must invalidate results).
struct StudyKey {
  Device device = Device::P100;
  int n = 0;
  std::uint64_t tuningHash = 0;

  friend bool operator==(const StudyKey&, const StudyKey&) = default;
};

struct StudyKeyHash {
  [[nodiscard]] std::size_t operator()(const StudyKey& k) const noexcept;
};

}  // namespace ep::serve
