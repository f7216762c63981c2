// Measurement observation seam: a process-global hook that sees every
// accepted measurement window and every finished CI protocol, without
// eppower depending on whoever consumes them (the power-anomaly
// watchdog lives in epcore, which layers above this library).
//
// The hook is a single relaxed atomic pointer — a nullptr check per
// accepted window when no observer is installed, which is noise next
// to recording a trace.  Installation is expected at process setup
// (epserved startup, a test fixture); the observer must outlive every
// measurement that can still call it.
//
// Attribution scope: measurements themselves don't know which device
// or model they serve, so the layer that does (the study app) installs
// a thread-local MeasureScopeLabel around its measurement calls and
// the observation carries it.
#pragma once

#include <atomic>
#include <cstdint>

namespace ep::power {

// One accepted measurement window, after sanitization/validation.
struct MeasureWindowObservation {
  const char* scope = "";      // MeasureScopeLabel in effect ("" = none)
  double observedJ = 0.0;      // integrated total energy of the window
  double expectedJ = 0.0;      // Meter::visibleEnergy of the profile
  double staticJ = 0.0;        // calibrated base power x window
  double windowS = 0.0;        // window length (execution + tail)
  std::uint64_t traceId = 0;   // request in scope when measured
};

class MeasureObserver {
 public:
  virtual ~MeasureObserver() = default;
  // Called once per accepted window, on the measuring thread.  Must be
  // thread-safe; measurements run concurrently on the pool.
  virtual void onMeasureWindow(const MeasureWindowObservation& obs) = 0;
  // Called once per finished CI protocol with the convergence verdict
  // (precision is the achieved relative CI half-width).
  virtual void onMeasurementResult(const char* scope, bool converged,
                                   double precision) = 0;
};

// Install (or clear, with nullptr) the process-global observer.
void setMeasureObserver(MeasureObserver* observer);
[[nodiscard]] MeasureObserver* measureObserver();

// RAII thread-local scope label naming what is being measured (device
// spec name, calibration phase, ...).  Nests; the innermost label wins.
// The pointed-to string must outlive the scope.
class MeasureScopeLabel {
 public:
  explicit MeasureScopeLabel(const char* label);
  ~MeasureScopeLabel();

  MeasureScopeLabel(const MeasureScopeLabel&) = delete;
  MeasureScopeLabel& operator=(const MeasureScopeLabel&) = delete;

  [[nodiscard]] static const char* current();

 private:
  const char* prev_;
};

}  // namespace ep::power
