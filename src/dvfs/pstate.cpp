#include "dvfs/pstate.hpp"

#include "common/error.hpp"

namespace ep::dvfs {

PStateTable::PStateTable(std::vector<PState> states)
    : states_(std::move(states)) {
  EP_REQUIRE(!states_.empty(), "P-state table must not be empty");
  for (std::size_t i = 0; i < states_.size(); ++i) {
    EP_REQUIRE(states_[i].freqMHz > 0.0 && states_[i].voltage > 0.0,
               "P-states need positive frequency and voltage");
    if (i > 0) {
      EP_REQUIRE(states_[i].freqMHz > states_[i - 1].freqMHz,
                 "P-states must be strictly increasing in frequency");
      EP_REQUIRE(states_[i].voltage >= states_[i - 1].voltage,
                 "voltage must be non-decreasing with frequency");
    }
  }
}

const PState& PStateTable::operator[](std::size_t i) const {
  EP_REQUIRE(i < states_.size(), "P-state index out of range");
  return states_[i];
}

PStateTable haswellPStates() {
  // 100 MHz bins from 1.2 to 2.3 GHz nominal plus two turbo bins;
  // voltages follow the typical near-linear V/f curve of the part.
  std::vector<PState> states;
  for (double f = 1200.0; f <= 2300.0; f += 100.0) {
    const double v = 0.65 + (f - 1200.0) / (2300.0 - 1200.0) * 0.35;
    states.push_back({f, v});
  }
  states.push_back({2600.0, 1.08});
  states.push_back({3100.0, 1.18});
  return PStateTable(std::move(states));
}

}  // namespace ep::dvfs
