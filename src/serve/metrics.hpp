// Service observability: a consistent snapshot of everything the broker
// knows about its own behaviour.
//
// The fleet-survey lesson of serverpark.* applies to the serving layer
// itself — a recommendation service for energy-proportional operation
// had better expose the numbers needed to judge *its* proportionality:
// request mix, rejection causes, queue depth, cache effectiveness and
// the latency distribution.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "serve/lru_cache.hpp"
#include "serve/request.hpp"

namespace ep::serve {

// Fixed-bucket latency histogram (milliseconds, upper bounds; the last
// bucket is the overflow).  Buckets are roughly geometric so both a
// microsecond cache hit and a multi-second cold study land usefully.
struct LatencyHistogram {
  static constexpr std::size_t kBuckets = 13;
  // Upper bound of bucket i in milliseconds; the final bucket catches
  // everything above the last bound.
  static constexpr std::array<double, kBuckets - 1> kUpperBoundsMs = {
      0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 100.0, 500.0, 2000.0};

  std::array<std::uint64_t, kBuckets> counts{};

  void record(double ms) {
    for (std::size_t i = 0; i < kUpperBoundsMs.size(); ++i) {
      if (ms <= kUpperBoundsMs[i]) {
        ++counts[i];
        return;
      }
    }
    ++counts[kBuckets - 1];
  }

  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t t = 0;
    for (auto c : counts) t += c;
    return t;
  }

  // Upper bound (ms) of the bucket containing quantile q in (0, 1];
  // +inf is reported as the last finite bound * 10 for printing.
  [[nodiscard]] double quantileUpperBoundMs(double q) const;
};

struct ServeMetrics {
  // Admission: every submit ends in exactly one of these.
  std::uint64_t accepted = 0;  // entered the service (queued/coalesced/hit)
  std::uint64_t rejectedQueueFull = 0;
  std::uint64_t rejectedShutdown = 0;
  std::uint64_t rejectedOverload = 0;  // adaptive admission limit fast-fails
  std::uint64_t shedDeadline = 0;      // deadline-aware sheds at admission

  // Outcome: every *accepted* request ends in exactly one of these.
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;            // engine error
  std::uint64_t rejectedDeadline = 0;  // expired before completion
  std::uint64_t rejectedCircuitOpen = 0;  // breaker open, nothing stale

  // Sharing.
  std::uint64_t coalesced = 0;         // requests that joined an in-flight study
  std::uint64_t studiesExecuted = 0;   // cold engine evaluations

  // Resilience.
  std::uint64_t breakerOpens = 0;      // breaker open transitions (all devices)
  std::uint64_t staleServed = 0;       // responses from the stale store
  // Indexed by deviceIndex().
  std::array<const char*, kDeviceCount> breakerState{"closed", "closed"};
  std::uint64_t cacheHits = 0;         // cache lookups that hit
  std::uint64_t cacheMisses = 0;       // cache lookups that missed
  std::uint64_t cacheEvictions = 0;
  std::size_t cacheSize = 0;
  std::size_t cacheCapacity = 0;

  // Instantaneous state.
  std::size_t queueDepth = 0;      // submitted, not yet picked up by a worker
  std::size_t inFlightStudies = 0; // engine evaluations currently running
  std::size_t admissionLimit = 0;  // AIMD concurrency limit (0 = disabled)

  // Latency of completed requests, submit -> response.
  LatencyHistogram latency;
};

// Multi-line human-readable rendering (tools and benches).
[[nodiscard]] std::string formatMetrics(const ServeMetrics& m);

}  // namespace ep::serve
