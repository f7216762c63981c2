#include "common/rng.hpp"

#include <algorithm>
#include <cmath>
#include <random>

namespace ep {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// MT19937-64 parameters, C++ [rand.predef].
namespace {
constexpr std::size_t kShift = 156;  // m
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kInitMultiplier = 6364136223846793005ULL;

inline std::uint64_t twistWord(std::uint64_t cur, std::uint64_t nxt,
                               std::uint64_t far) {
  const std::uint64_t y = (cur & kUpperMask) | (nxt & kLowerMask);
  return far ^ (y >> 1) ^ (-(y & 1) & kMatrixA);
}
}  // namespace

void Rng::Engine::refill() {
  if (next_ == kUnseeded) {
    state_[0] = seed_;
    for (std::size_t i = 1; i < kWords; ++i) {
      const std::uint64_t prev = state_[i - 1];
      state_[i] = kInitMultiplier * (prev ^ (prev >> 62)) + i;
    }
  }
  std::size_t k = 0;
  for (; k < kWords - kShift; ++k) {
    state_[k] = twistWord(state_[k], state_[k + 1], state_[k + kShift]);
  }
  for (; k < kWords - 1; ++k) {
    state_[k] =
        twistWord(state_[k], state_[k + 1], state_[k + kShift - kWords]);
  }
  state_[kWords - 1] =
      twistWord(state_[kWords - 1], state_[0], state_[kShift - 1]);
  next_ = 0;
}

Rng::Engine::result_type Rng::Engine::operator()() {
  if (next_ >= kWords) refill();
  std::uint64_t z = state_[next_++];
  z ^= (z >> 29) & 0x5555555555555555ULL;
  z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
  z ^= (z << 37) & 0xFFF7EEE000000000ULL;
  return z ^ (z >> 43);
}

// libstdc++ computes generate_canonical<double, 53> from one 64-bit
// output as double(w) * 2^-64, replaced by the largest double below 1
// when it rounds up to 1.  The two 32-bit halves convert exactly and
// their sum rounds once, which is the correctly rounded double(w)
// without the sign-bit branch of an unsigned 64-bit conversion.
double Rng::canonical() {
  const std::uint64_t w = engine_();
  const double hi = static_cast<double>(static_cast<std::uint32_t>(w >> 32));
  const double lo = static_cast<double>(static_cast<std::uint32_t>(w));
  return std::min((hi * 0x1p32 + lo) * 0x1p-64, 0x1.fffffffffffffp-1);
}

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

double Rng::normal(double mean, double sigma) {
  double z = 0.0;
  standardNormals(&z, 1);
  return z * sigma + mean;
}

// The polar (Marsaglia) method exactly as std::normal_distribution runs
// it in libstdc++, keeping only the y variate of each accepted pair.
void Rng::standardNormals(double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    double x = 0.0;
    double y = 0.0;
    double r2 = 0.0;
    do {
      x = 2.0 * canonical() - 1.0;
      y = 2.0 * canonical() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    out[i] = y * std::sqrt(-2 * std::log(r2) / r2);
  }
}

std::uint64_t Rng::uniformInt(std::uint64_t lo, std::uint64_t hi) {
  std::uniform_int_distribution<std::uint64_t> dist(lo, hi);
  return dist(engine_);
}

Rng Rng::fork(std::uint64_t salt) const {
  return Rng(splitmix64(seed() ^ splitmix64(salt)));
}

}  // namespace ep
