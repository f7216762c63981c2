// Fixed-size log-bucketed histogram of nanosecond values.
//
// Values below 128 ns get exact buckets; above, every power of two is
// split into 64 equal sub-buckets, and a quantile is reported as its
// bucket's midpoint, within 1/128 (0.8 %) of the exact order statistic.
// Recording costs a few instructions and no allocation, so the client
// can record every response at any rate without growing a sample
// vector.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace e2e {

class LogHistogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr std::uint64_t kSub = 1ULL << kSubBits;
  static constexpr std::size_t kBuckets = 2 * kSub + (64 - kSubBits) * kSub;

  void record(std::uint64_t ns) {
    ++counts_[index(ns)];
    ++total_;
  }

  void merge(const LogHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }

  [[nodiscard]] std::uint64_t count() const { return total_; }

  // The value at rank ceil(q * count) (1-based), as its bucket midpoint;
  // 0 when empty.
  [[nodiscard]] double quantile(double q) const {
    if (total_ == 0) return 0.0;
    auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total_));
    if (static_cast<double>(rank) < q * static_cast<double>(total_)) ++rank;
    if (rank < 1) rank = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) return midpoint(i);
    }
    return midpoint(kBuckets - 1);
  }

  static std::size_t index(std::uint64_t v) {
    if (v < 2 * kSub) return static_cast<std::size_t>(v);
    const int shift = std::bit_width(v) - (kSubBits + 1);
    const std::uint64_t sub = v >> shift;  // in [kSub, 2 * kSub)
    return static_cast<std::size_t>(2 * kSub + (shift - 1) * kSub +
                                    (sub - kSub));
  }

  static double midpoint(std::size_t i) {
    if (i < 2 * kSub) return static_cast<double>(i);
    const std::size_t k = i - 2 * kSub;
    const int shift = static_cast<int>(k / kSub) + 1;
    const double width = static_cast<double>(1ULL << shift);
    const double lo = static_cast<double>(kSub + k % kSub) * width;
    return lo + (width - 1.0) / 2.0;
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

}  // namespace e2e
