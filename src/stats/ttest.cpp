#include "stats/ttest.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "stats/descriptive.hpp"
#include "stats/distributions.hpp"

namespace ep::stats {

double ConfidenceInterval::precision() const {
  if (mean == 0.0) return std::numeric_limits<double>::infinity();
  return halfWidth / std::fabs(mean);
}

ConfidenceInterval meanConfidenceInterval(std::span<const double> xs,
                                          double confidence) {
  EP_REQUIRE(xs.size() >= 2, "confidence interval needs n >= 2");
  ConfidenceInterval ci;
  ci.mean = mean(xs);
  const double sd = sampleStddev(xs);
  const double tcrit =
      studentTCritical(confidence, static_cast<double>(xs.size() - 1));
  ci.halfWidth = tcrit * sd / std::sqrt(static_cast<double>(xs.size()));
  return ci;
}

MeasurementProtocol::MeasurementProtocol(MeasurementOptions options)
    : options_(options) {
  EP_REQUIRE(options_.minRepetitions >= 2, "need at least 2 repetitions");
  EP_REQUIRE(options_.maxRepetitions >= options_.minRepetitions,
             "maxRepetitions < minRepetitions");
  EP_REQUIRE(options_.precision > 0.0, "precision must be positive");
}

MeasurementResult MeasurementProtocol::loop(
    const std::function<double()>& observe, bool throwOnFailure) const {
  MeasurementResult res;
  res.samples.reserve(options_.minRepetitions);
  while (res.samples.size() < options_.maxRepetitions) {
    const double x = observe();
    res.samples.push_back(x);
    if (res.samples.size() < options_.minRepetitions) continue;
    const ConfidenceInterval ci =
        meanConfidenceInterval(res.samples, kConfidence);
    if (ci.precision() <= options_.precision) {
      res.mean = ci.mean;
      res.interval = ci;
      res.repetitions = res.samples.size();
      res.converged = true;
      break;
    }
  }
  if (!res.converged) {
    if (throwOnFailure) {
      throw ep::ConvergenceError(
          "measurement did not reach requested precision within " +
          std::to_string(options_.maxRepetitions) + " repetitions");
    }
    res.interval = meanConfidenceInterval(res.samples, kConfidence);
    res.mean = res.interval.mean;
    res.repetitions = res.samples.size();
  }
  if (res.samples.size() >= kMinNormalitySamples) {
    res.normality = pearsonNormalityTest(res.samples, kNormalityAlpha);
    res.normalityChecked = true;
  }
  return res;
}

MeasurementResult MeasurementProtocol::run(
    const std::function<double()>& observe) const {
  return loop(observe, /*throwOnFailure=*/true);
}

MeasurementResult MeasurementProtocol::runBestEffort(
    const std::function<double()>& observe) const {
  return loop(observe, /*throwOnFailure=*/false);
}

}  // namespace ep::stats
