// Simulated WattsUp Pro wall-power meter.
//
// The physical instrument sits between the wall outlet and the node's
// PSU and reports node power about once per second with ~1.5 % accuracy
// and 0.1 W display resolution.  The simulation reproduces those
// instrument characteristics: a fixed sampling interval with bounded
// start-phase jitter, multiplicative gain noise, additive noise, and
// quantization.  All randomness comes from an explicit ep::Rng so a
// measurement campaign is reproducible.
//
// Meter is the instrument seam: everything above the meter (the
// measurer, the apps, the studies) records through the abstract
// interface, so a decorated instrument — epfault's FaultyMeter, or a
// future real-hardware backend — drops in without touching the
// measurement methodology.
#pragma once

#include "common/error.hpp"
#include "common/rng.hpp"
#include "power/profile.hpp"
#include "power/trace.hpp"

namespace ep::power {

// The meter failed to deliver a recording window (the physical
// instrument's serial link stalls, drops its connection, or returns no
// data for a whole window).  Distinct from PreconditionError because it
// is transient: the measurement layer retries with backoff before
// giving up.
class MeterTimeoutError : public EpError {
 public:
  using EpError::EpError;
};

// Abstract instrument: record a power source into a trace.
class Meter {
 public:
  virtual ~Meter() = default;

  // Record `source` from t=0 until `duration` into a caller-owned trace
  // (cleared first, its sample buffer reused).  Allocation-free once
  // the buffer has grown to the window size.  May throw
  // MeterTimeoutError when the instrument loses a whole window.
  virtual void recordInto(const PowerSource& source, Seconds duration,
                          Rng& rng, PowerTrace& out) const = 0;

  // The energy of one recording over [0, duration]: bit-identical to
  // recordInto followed by energyBetween(0, duration), with the same
  // draws from `rng`.  The default does exactly that through `scratch`;
  // an instrument that can integrate while it samples overrides it and
  // keeps no trace.  The CI repetition loop calls this hundreds of
  // times per configuration when nothing needs the samples.
  [[nodiscard]] virtual Joules recordEnergy(const PowerSource& source,
                                            Seconds duration, Rng& rng,
                                            PowerTrace& scratch) const;

  // Approximately the noise-free energy this instrument reports for
  // `source` over [0, duration]: what it can see, which need not be the
  // exact integral.  The default is an ideal instrument (exactEnergy).
  // The anomaly watchdog compares recordings against it, so only what
  // the instrument adds beyond it reads as an anomaly.
  [[nodiscard]] virtual Joules visibleEnergy(const PowerSource& source,
                                             Seconds duration) const;

  // Convenience: record into a fresh trace.
  [[nodiscard]] PowerTrace record(const PowerSource& source, Seconds duration,
                                  Rng& rng) const {
    PowerTrace trace;
    recordInto(source, duration, rng, trace);
    return trace;
  }
};

struct MeterOptions {
  Seconds sampleInterval{1.0};   // WattsUp Pro: ~1 Hz
  double gainNoiseSigma = 0.005;  // per-sample multiplicative noise
  Watts additiveNoiseSigma{0.3};  // sensor floor noise
  Watts quantization{0.1};        // display resolution
  // The meter's internal sampling is not phase-locked to the application:
  // the first sample lands uniformly inside the first interval.
  bool randomPhase = true;
};

class WattsUpMeter final : public Meter {
 public:
  explicit WattsUpMeter(MeterOptions options = {});

  void recordInto(const PowerSource& source, Seconds duration, Rng& rng,
                  PowerTrace& out) const override;
  // Integrates each sample as it is drawn; `scratch` is not touched.
  [[nodiscard]] Joules recordEnergy(const PowerSource& source,
                                    Seconds duration, Rng& rng,
                                    PowerTrace& scratch) const override;
  // Each reading is the power half an interval back (see sampleWindow),
  // so a window reads its first power for half an interval longer and
  // never sees its last half interval: for h = sampleInterval / 2,
  // P(0) * h + exactEnergy(0, duration - h), or P(0) * duration when
  // the window is shorter than h.  This is the lagged power's exact
  // integral; recordEnergy sums trapezoids over the readings instead,
  // so a noise-free recording differs from it by up to h * |dP| for
  // each power step dP.
  [[nodiscard]] Joules visibleEnergy(const PowerSource& source,
                                     Seconds duration) const override;

  [[nodiscard]] const MeterOptions& options() const { return options_; }

 private:
  MeterOptions options_;
};

}  // namespace ep::power
