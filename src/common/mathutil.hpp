// Small math helpers shared across modules.
#pragma once

#include <cstdint>
#include <vector>

namespace ep {

[[nodiscard]] constexpr bool isPowerOfTwo(std::uint64_t n) {
  return n != 0 && (n & (n - 1)) == 0;
}

// Smallest power of two >= n (n >= 1).
[[nodiscard]] std::uint64_t nextPowerOfTwo(std::uint64_t n);

// Ceiling division for non-negative integers.
[[nodiscard]] constexpr std::uint64_t ceilDiv(std::uint64_t a,
                                              std::uint64_t b) {
  return (a + b - 1) / b;
}

// Positive divisors of n in ascending order.
[[nodiscard]] std::vector<std::uint64_t> divisorsOf(std::uint64_t n);

}  // namespace ep
