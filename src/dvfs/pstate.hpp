// DVFS performance states.
//
// The related-work section's first category of bi-objective methods
// ([16]-[21]) acts through Dynamic Voltage and Frequency Scaling.  This
// substrate models a processor's P-state table — (frequency, voltage)
// pairs — so those system-level methods can be implemented as baselines
// against the paper's application-level decision variables.
#pragma once

#include <cstddef>
#include <vector>

namespace ep::dvfs {

struct PState {
  double freqMHz = 0.0;
  double voltage = 0.0;  // volts
  [[nodiscard]] bool operator==(const PState&) const = default;
};

class PStateTable {
 public:
  // States must be strictly increasing in frequency and non-decreasing
  // in voltage (higher clocks need at least as much voltage).
  explicit PStateTable(std::vector<PState> states);

  [[nodiscard]] std::size_t size() const { return states_.size(); }
  [[nodiscard]] const PState& operator[](std::size_t i) const;
  [[nodiscard]] const PState& lowest() const { return states_.front(); }
  [[nodiscard]] const PState& highest() const { return states_.back(); }
  [[nodiscard]] const std::vector<PState>& states() const { return states_; }

 private:
  std::vector<PState> states_;
};

// The Haswell EP server P-state ladder (1.2 - 3.1 GHz with turbo),
// voltages from the typical V/f curve of the part.
[[nodiscard]] PStateTable haswellPStates();

}  // namespace ep::dvfs
