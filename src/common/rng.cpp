#include "common/rng.hpp"

#include <algorithm>
#include <bit>
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

namespace {

inline std::uint64_t temper(std::uint64_t z) {
  z ^= (z >> 29) & 0x5555555555555555ULL;
  z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
  z ^= (z << 37) & 0xFFF7EEE000000000ULL;
  return z ^ (z >> 43);
}

// v * 2^(e - 52), exactly, without a conversion instruction: `base` is
// 2^e, whose mantissa ulp is 2^(e - 52), so v in its low mantissa bits
// reads as 2^e + v * 2^(e - 52), and subtracting 2^e is exact.  Plain
// SSE2 integer and double lanes, so the loop vectorizes.
inline double exactScaled(std::uint32_t v, double base) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(base) | v) - base;
}

// libstdc++ computes generate_canonical<double, 53> from one 64-bit
// output as double(w) * 2^-64, replaced by the largest double below 1
// when it rounds up to 1.  hi * 2^-32 and lo * 2^-64 are exact and their
// sum rounds once, which is the correctly rounded double(w) * 2^-64.
inline double canonicalOf(std::uint64_t w) {
  const double hi = exactScaled(static_cast<std::uint32_t>(w >> 32), 0x1p20);
  const double lo = exactScaled(static_cast<std::uint32_t>(w), 0x1p-12);
  return std::min(hi + lo, 0x1.fffffffffffffp-1);
}

}  // namespace

Rng::Engine::result_type Rng::Engine::operator()() {
  if (next_ >= kWords) refill();
  return temper(state_[next_++]);
}

void Rng::Engine::canonicals(double* out, std::size_t n) {
  while (n > 0) {
    if (next_ >= kWords) refill();
    const std::size_t take = std::min(n, kWords - next_);
    const result_type* words = state_ + next_;
    for (std::size_t i = 0; i < take; ++i) {
      out[i] = canonicalOf(temper(words[i]));
    }
    next_ += take;
    out += take;
    n -= take;
  }
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
// it in libstdc++, keeping only the y variate of each accepted pair:
//
//   do { x = 2u - 1; y = 2u - 1; r2 = x*x + y*y; }
//   while (r2 > 1 || r2 == 0);
//   z = y * sqrt(-2 * log(r2) / r2);
//
// run in stages over a chunk of owed values.  Each round draws one pair
// per value still owed: the one-at-a-time loop needs at least that many
// more pairs, so a round never draws a pair it would not, and the
// accepted pairs come out in its order.  The pair pass computes every
// pair's y, r2 and accept flag with no branch, so it vectorizes and no
// rejection (~21 % of pairs) costs a mispredicted jump; the compaction
// pass then keeps the accepted pairs by adding the flag to the write
// index.  The log and scale passes run back to back over the accepted
// r2.
void Rng::standardNormals(double* out, std::size_t n) {
  // Scratch for one chunk, left uninitialized: normal() runs this for
  // n = 1, and every element read below is written first.
  double u[2 * kNormalsChunk];
  double ys[kNormalsChunk];
  double ss[kNormalsChunk];
  double accept[kNormalsChunk];  // 1.0 or 0.0
  double r2[kNormalsChunk];
  double lg[kNormalsChunk];
  while (n > 0) {
    const std::size_t want = std::min(n, kNormalsChunk);
    std::size_t have = 0;  // accepted: y in out[0, have), r2 in r2[0, have)
    while (have < want) {
      const std::size_t owed = want - have;
      engine_.canonicals(u, 2 * owed);
      for (std::size_t j = 0; j < owed; ++j) {
        const double x = 2.0 * u[2 * j] - 1.0;
        const double y = 2.0 * u[2 * j + 1] - 1.0;
        const double s = x * x + y * y;
        ys[j] = y;
        ss[j] = s;
        // A double select: GCC vectorizes it into compare-and-mask,
        // but not a compare whose result is stored as an integer.
        accept[j] = (s > 1.0 || s == 0.0) ? 0.0 : 1.0;
      }
      // Write every pair, keep the accepted: have <= (have at round
      // start) + j < want, so it stays in bounds.
      for (std::size_t j = 0; j < owed; ++j) {
        out[have] = ys[j];
        r2[have] = ss[j];
        have += static_cast<std::size_t>(static_cast<std::int64_t>(accept[j]));
      }
    }
    for (std::size_t j = 0; j < want; ++j) lg[j] = std::log(r2[j]);
    for (std::size_t j = 0; j < want; ++j) {
      out[j] *= std::sqrt(-2.0 * lg[j] / r2[j]);
    }
    out += want;
    n -= want;
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
