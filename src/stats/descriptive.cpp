#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ep::stats {

double mean(std::span<const double> xs) {
  EP_REQUIRE(!xs.empty(), "mean of empty sample");
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double sampleVariance(std::span<const double> xs) {
  EP_REQUIRE(xs.size() >= 2, "sample variance needs n >= 2");
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size() - 1);
}

double sampleStddev(std::span<const double> xs) {
  return std::sqrt(sampleVariance(xs));
}

double quantile(std::span<const double> xs, double p) {
  EP_REQUIRE(!xs.empty(), "quantile of empty sample");
  EP_REQUIRE(p >= 0.0 && p <= 1.0, "quantile p must be in [0,1]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted[0];
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

}  // namespace ep::stats
