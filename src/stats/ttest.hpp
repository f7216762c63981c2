// The paper's measurement methodology:
//
//   "the application is run repeatedly until the sample mean lies in the
//    95% confidence interval and a precision of 0.025 (2.5%) is achieved.
//    For this purpose, Student's t-test is used [...]  The validity of
//    these assumptions is verified using Pearson's chi-squared test."
//
// MeasurementProtocol drives any callable producing one observation per
// repetition through exactly this loop and reports the accepted mean,
// the achieved precision, and the normality-check outcome.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "stats/chisq.hpp"

namespace ep::stats {

struct ConfidenceInterval {
  double mean = 0.0;
  double halfWidth = 0.0;  // t* . s / sqrt(n)
  [[nodiscard]] double lower() const { return mean - halfWidth; }
  [[nodiscard]] double upper() const { return mean + halfWidth; }
  // Relative precision: halfWidth / |mean| (inf when mean == 0).
  [[nodiscard]] double precision() const;
};

// Two-sided CI for the mean of `xs` at `confidence` using Student's t.
[[nodiscard]] ConfidenceInterval meanConfidenceInterval(
    std::span<const double> xs, double confidence);

struct MeasurementOptions {
  double precision = 0.025;     // paper: 2.5 %
  std::size_t minRepetitions = 5;
  std::size_t maxRepetitions = 1000;
};

struct MeasurementResult {
  double mean = 0.0;
  ConfidenceInterval interval;
  std::size_t repetitions = 0;
  bool converged = false;
  std::vector<double> samples;
  // Present when enough samples were drawn for the chi-squared check.
  bool normalityChecked = false;
  ChiSquaredResult normality;
};

class MeasurementProtocol {
 public:
  // The paper's protocol: a 95 % confidence interval, and Pearson's
  // chi-squared normality check at alpha = 0.05 once 8 samples exist.
  static constexpr double kConfidence = 0.95;
  static constexpr double kNormalityAlpha = 0.05;
  static constexpr std::size_t kMinNormalitySamples = 8;

  explicit MeasurementProtocol(MeasurementOptions options = {});

  // Repeatedly invokes `observe` until the CI criterion is met.
  // Throws ConvergenceError if maxRepetitions is hit first.
  [[nodiscard]] MeasurementResult run(
      const std::function<double()>& observe) const;

  // Like run(), but returns a non-converged result instead of throwing.
  [[nodiscard]] MeasurementResult runBestEffort(
      const std::function<double()>& observe) const;

  [[nodiscard]] const MeasurementOptions& options() const { return options_; }

 private:
  [[nodiscard]] MeasurementResult loop(const std::function<double()>& observe,
                                       bool throwOnFailure) const;

  MeasurementOptions options_;
};

}  // namespace ep::stats
