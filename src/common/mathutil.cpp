#include "common/mathutil.hpp"


#include "common/error.hpp"

namespace ep {

std::uint64_t nextPowerOfTwo(std::uint64_t n) {
  EP_REQUIRE(n >= 1, "nextPowerOfTwo needs n >= 1");
  std::uint64_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::vector<std::uint64_t> divisorsOf(std::uint64_t n) {
  EP_REQUIRE(n >= 1, "divisorsOf needs n >= 1");
  std::vector<std::uint64_t> lo, hi;
  for (std::uint64_t d = 1; d * d <= n; ++d) {
    if (n % d == 0) {
      lo.push_back(d);
      if (d != n / d) hi.push_back(n / d);
    }
  }
  lo.insert(lo.end(), hi.rbegin(), hi.rend());
  return lo;
}

}  // namespace ep
