#include "stats/distributions.hpp"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/error.hpp"

namespace ep::stats {

namespace {

// glibc's lgamma() writes the global `signgam`, so concurrent calls are
// a data race once config evaluations run on the thread pool.  Every
// call site here passes a strictly positive argument, so the sign is
// always +1 and the reentrant variant (which produces bit-identical
// values and writes the sign to a local) is a drop-in replacement.
double logGamma(double x) {
#if defined(__GLIBC__)
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

// Continued-fraction evaluation for the incomplete beta function
// (Lentz's method, as in Numerical Recipes' betacf).
double betaContinuedFraction(double a, double b, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3.0e-14;
  constexpr double kFpMin = 1.0e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) return h;
  }
  throw ep::ConvergenceError("incomplete beta continued fraction diverged");
}

// Series expansion of P(a, x) for x < a + 1.
double gammaSeries(double a, double x) {
  constexpr int kMaxIter = 500;
  constexpr double kEps = 3.0e-14;
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int n = 1; n <= kMaxIter; ++n) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::fabs(del) < std::fabs(sum) * kEps) {
      return sum * std::exp(-x + a * std::log(x) - logGamma(a));
    }
  }
  throw ep::ConvergenceError("incomplete gamma series diverged");
}

// Continued fraction of Q(a, x) for x >= a + 1.
double gammaContinuedFraction(double a, double x) {
  constexpr int kMaxIter = 500;
  constexpr double kEps = 3.0e-14;
  constexpr double kFpMin = 1.0e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kFpMin;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIter; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = b + an / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) {
      return h * std::exp(-x + a * std::log(x) - logGamma(a));
    }
  }
  throw ep::ConvergenceError("incomplete gamma continued fraction diverged");
}

// The two-sided critical value by bisection on the CDF:
// P(|T| <= t*) = confidence  <=>  CDF(t*) = (1 + confidence) / 2.
double bisectTCritical(double confidence, double dof) {
  const double target = 0.5 * (1.0 + confidence);
  double lo = 0.0;
  double hi = 1.0;
  while (studentTCdf(hi, dof) < target) {
    hi *= 2.0;
    EP_REQUIRE(hi < 1e12, "t critical value out of range");
  }
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (studentTCdf(mid, dof) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo < 1e-12 * (1.0 + hi)) break;
  }
  return 0.5 * (lo + hi);
}

// t*(95 %, dof) for integral dof in [1, kMemoDofs), the values the
// measurement protocol asks for (n - 1 for n repetitions, up to its
// default cap of 1000), as bits; 0 marks a slot not yet filled, since
// t* > 0.  Constant-initialized, so nothing runs at start-up.  The
// first call for a dof runs the same bisection and stores its bits;
// calls racing on a cold slot each bisect and store the same bits, so
// relaxed loads and stores suffice.
constexpr double kMemoConfidence = 0.95;
constexpr std::size_t kMemoDofs = 1024;
std::atomic<std::uint64_t> tCritical95[kMemoDofs]{};

}  // namespace

double regularizedIncompleteBeta(double a, double b, double x) {
  EP_REQUIRE(a > 0.0 && b > 0.0, "beta parameters must be positive");
  EP_REQUIRE(x >= 0.0 && x <= 1.0, "beta argument must be in [0,1]");
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  const double lnFront = logGamma(a + b) - logGamma(a) - logGamma(b) +
                         a * std::log(x) + b * std::log1p(-x);
  const double front = std::exp(lnFront);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * betaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * betaContinuedFraction(b, a, 1.0 - x) / b;
}

double regularizedLowerGamma(double a, double x) {
  EP_REQUIRE(a > 0.0, "gamma shape must be positive");
  EP_REQUIRE(x >= 0.0, "gamma argument must be non-negative");
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return gammaSeries(a, x);
  return 1.0 - gammaContinuedFraction(a, x);
}

double normalCdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double studentTCdf(double t, double dof) {
  EP_REQUIRE(dof > 0.0, "degrees of freedom must be positive");
  if (t == 0.0) return 0.5;
  const double x = dof / (dof + t * t);
  const double tail = 0.5 * regularizedIncompleteBeta(dof / 2.0, 0.5, x);
  return t > 0.0 ? 1.0 - tail : tail;
}

double studentTCritical(double confidence, double dof) {
  EP_REQUIRE(confidence > 0.0 && confidence < 1.0,
             "confidence must be in (0,1)");
  EP_REQUIRE(dof >= 1.0, "degrees of freedom must be >= 1");
  if (confidence == kMemoConfidence && dof < kMemoDofs) {
    const auto k = static_cast<std::size_t>(dof);  // dof is in [1, kMemoDofs)
    if (static_cast<double>(k) == dof) {
      std::atomic<std::uint64_t>& slot = tCritical95[k];
      std::uint64_t bits = slot.load(std::memory_order_relaxed);
      if (bits == 0) {
        bits = std::bit_cast<std::uint64_t>(bisectTCritical(confidence, dof));
        slot.store(bits, std::memory_order_relaxed);
      }
      return std::bit_cast<double>(bits);
    }
  }
  return bisectTCritical(confidence, dof);
}

double chiSquaredCdf(double x, double dof) {
  EP_REQUIRE(dof > 0.0, "degrees of freedom must be positive");
  if (x <= 0.0) return 0.0;
  return regularizedLowerGamma(dof / 2.0, x / 2.0);
}

}  // namespace ep::stats
