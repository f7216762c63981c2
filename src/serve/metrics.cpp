#include "serve/metrics.hpp"

#include <sstream>

#include "common/error.hpp"

namespace ep::serve {

double LatencyHistogram::quantileUpperBoundMs(double q) const {
  EP_REQUIRE(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
  const std::uint64_t n = total();
  if (n == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts[i];
    if (seen >= rank && seen > 0) {
      if (i < kUpperBoundsMs.size()) return kUpperBoundsMs[i];
      return kUpperBoundsMs.back() * 10.0;  // overflow bucket sentinel
    }
  }
  return kUpperBoundsMs.back() * 10.0;
}

std::string formatMetrics(const ServeMetrics& m) {
  std::ostringstream os;
  os << "requests: accepted=" << m.accepted
     << " completed=" << m.completed << " failed=" << m.failed << "\n"
     << "rejected: queue_full=" << m.rejectedQueueFull
     << " deadline=" << m.rejectedDeadline
     << " shutdown=" << m.rejectedShutdown
     << " circuit_open=" << m.rejectedCircuitOpen
     << " overloaded=" << m.rejectedOverload
     << " shed_deadline=" << m.shedDeadline << "\n"
     << "sharing:  coalesced=" << m.coalesced
     << " studies_executed=" << m.studiesExecuted << "\n"
     << "breaker:  opens=" << m.breakerOpens
     << " stale_served=" << m.staleServed;
  for (const DeviceInfo& d : kDevices) {
    os << " " << d.name << "=" << m.breakerState[deviceIndex(d.device)];
  }
  os << "\n"
     << "cache:    hits=" << m.cacheHits << " misses=" << m.cacheMisses
     << " evictions=" << m.cacheEvictions << " size=" << m.cacheSize << "/"
     << m.cacheCapacity << "\n"
     << "state:    queue_depth=" << m.queueDepth
     << " in_flight_studies=" << m.inFlightStudies
     << " admission_limit=" << m.admissionLimit << "\n"
     << "latency:  completed=" << m.latency.total()
     << " p50<=" << m.latency.quantileUpperBoundMs(0.50) << "ms"
     << " p99<=" << m.latency.quantileUpperBoundMs(0.99) << "ms\n"
     << "latency buckets (ms:count):";
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    if (m.latency.counts[i] == 0) continue;
    os << " ";
    if (i < LatencyHistogram::kUpperBoundsMs.size()) {
      os << "<=" << LatencyHistogram::kUpperBoundsMs[i];
    } else {
      os << ">" << LatencyHistogram::kUpperBoundsMs.back();
    }
    os << ":" << m.latency.counts[i];
  }
  os << "\n";
  return os.str();
}

}  // namespace ep::serve
