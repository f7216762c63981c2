// Descriptive statistics over a sample.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ep::stats {

[[nodiscard]] double mean(std::span<const double> xs);
[[nodiscard]] double sampleVariance(std::span<const double> xs);
[[nodiscard]] double sampleStddev(std::span<const double> xs);
// Median of a copy (input not modified).
[[nodiscard]] double median(std::span<const double> xs);
// p in [0,1]; linear interpolation between order statistics.
[[nodiscard]] double quantile(std::span<const double> xs, double p);

}  // namespace ep::stats
