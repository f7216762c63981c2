// Probability distributions needed by the paper's measurement methodology:
// Student's t (confidence intervals), the normal distribution, and the
// chi-squared distribution (Pearson goodness-of-fit).  Implemented from
// the regularized incomplete beta/gamma functions.
#pragma once

namespace ep::stats {

// Regularized incomplete beta function I_x(a, b), x in [0,1], a,b > 0.
[[nodiscard]] double regularizedIncompleteBeta(double a, double b, double x);

// Regularized lower incomplete gamma P(a, x), a > 0, x >= 0.
[[nodiscard]] double regularizedLowerGamma(double a, double x);

// Standard normal CDF.
[[nodiscard]] double normalCdf(double z);

// Student's t CDF with `dof` degrees of freedom.
[[nodiscard]] double studentTCdf(double t, double dof);

// Two-sided critical value t* such that P(|T| <= t*) = confidence
// (e.g. confidence = 0.95).  dof >= 1.  Found by bisection on the CDF;
// at confidence 0.95 and an integral dof below 1024 (the measurement
// protocol's calls) the first call's bits are kept and returned by
// every later call, from any thread.
[[nodiscard]] double studentTCritical(double confidence, double dof);

// Chi-squared CDF with `dof` degrees of freedom.
[[nodiscard]] double chiSquaredCdf(double x, double dof);

}  // namespace ep::stats
