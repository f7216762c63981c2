// Linear dynamic-energy predictive models on performance events.
//
// Following [33]'s practical implications: model variables are selected
// by (a) additivity and (b) positive correlation with dynamic energy;
// the fit is forced through the origin (zero work => zero dynamic
// energy) and coefficients must be non-negative to be physically
// meaningful (each event consumes energy).  The model is the tool the
// paper's Section V-C wants for localizing nonproportional components.
#pragma once

#include <string>
#include <vector>

#include "stats/regression.hpp"

namespace ep::model {

struct EnergyObservation {
  std::vector<double> eventCounts;  // aligned with variable names
  double dynamicEnergyJ = 0.0;
};

struct EnergyModelReport {
  std::vector<std::string> variables;
  std::vector<double> coefficients;  // J per event count
  double r2 = 0.0;
  // Per-variable Pearson correlation with dynamic energy.
  std::vector<double> correlations;
  // Variables dropped because their fitted coefficient was negative.
  std::vector<std::string> dropped;
};

class EnergyPredictiveModel {
 public:
  // `variables` names the columns of every observation's eventCounts.
  explicit EnergyPredictiveModel(std::vector<std::string> variables);

  void addObservation(EnergyObservation obs);

  // Fit through the origin; iteratively drops negative-coefficient
  // variables (non-physical) and refits.  Requires more observations
  // than surviving variables.
  [[nodiscard]] EnergyModelReport fit() const;

  // Predict dynamic energy with a fitted report.
  [[nodiscard]] static double predict(const EnergyModelReport& report,
                                      const std::vector<double>& counts);

 private:
  std::vector<std::string> variables_;
  std::vector<EnergyObservation> observations_;
};

}  // namespace ep::model
