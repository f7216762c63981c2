// The compute side of the service: everything expensive the broker can
// be asked to do is "evaluate one workload study on one device", or a
// list of them for a study sweep.
//
// TuningEngine is the seam that keeps the broker testable — the unit
// tests inject a gated counting engine to prove coalescing ("N
// concurrent identical requests, exactly one evaluate() call") without
// touching the real model stack.  EpStudyEngine is the production
// implementation: epcore::GpuEpStudy over the Table I GPU models.
//
// Engines must be usable from several threads at once: evaluate() is
// const and every call derives its own Rng stream, so a given
// (device, n) study is deterministic regardless of request
// interleaving — which is what makes its result cacheable.  An engine
// whose runsInline() is true has evaluate() called on the thread that
// submitted the request — in epserved, a net event thread — so it must
// be a short computation that never waits.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/study.hpp"
#include "fault/fault.hpp"
#include "serve/request.hpp"

namespace ep::serve {

class TuningEngine {
 public:
  virtual ~TuningEngine() = default;

  // Hash of every constant that determines a study's outcome on this
  // device (model tuning constants, measurement options, seed).  Part
  // of the cache key: retuned models must not serve stale results.
  [[nodiscard]] virtual std::uint64_t tuningHash(Device device) const = 0;

  // Run the full configuration-space study for one workload.  Expensive
  // (the service hot path); must be thread-safe and deterministic per
  // (device, n) — including pool == nullptr vs any pool size, so the
  // cache cannot observe how a result was computed.  A pooled engine
  // gets the broker's pool: evaluate() runs inside a pool task, which is
  // exactly the nested shape ThreadPool::parallelFor is built to
  // survive.  An inline engine runs on the submitting thread with
  // pool == nullptr.  Throws ep::EpError on unlaunchable workloads.
  [[nodiscard]] virtual core::WorkloadResult evaluate(
      Device device, int n, ThreadPool* pool = nullptr) const = 0;

  // The list form of evaluate(), for a study sweep: entry k holds what
  // evaluate(device, sizes[k], pool) returns, or in `error` what it
  // throws, so a failing size fails no other.  The default calls
  // evaluate() once per size; an engine that can run a whole sweep as
  // one pass over its configurations overrides it.
  [[nodiscard]] virtual std::vector<core::WorkloadAttempt> evaluateList(
      Device device, std::span<const int> sizes,
      ThreadPool* pool = nullptr) const;

  // True when evaluate() is a short computation that uses no pool, so
  // the broker runs it to completion on the submitting thread instead
  // of handing it to a worker.  Derived from the engine's own
  // configuration, never set from outside.  Decorators that may block
  // (injected hangs, test gates) keep the default.
  [[nodiscard]] virtual bool runsInline() const { return false; }
};

struct EpStudyEngineOptions {
  std::uint64_t seed = 0xEB5EEDULL;
  // Run the full wall-meter + CI measurement protocol (slower, the
  // paper's methodology) instead of noise-free model energies.
  bool useMeter = false;
  // Meter-fault campaign (epserved --fault-* flags; requires useMeter).
  // Part of the tuning hash: a faulty engine must not share cached
  // results with a clean one.  When enabled, measurement failures skip
  // the config instead of failing the study.
  fault::FaultInjectionOptions faults{};
};

class EpStudyEngine : public TuningEngine {
 public:
  explicit EpStudyEngine(EpStudyEngineOptions options = {});

  [[nodiscard]] std::uint64_t tuningHash(Device device) const override;
  [[nodiscard]] core::WorkloadResult evaluate(
      Device device, int n, ThreadPool* pool = nullptr) const override;
  // One GpuEpStudy pass over the sizes' per-(device, n) streams: metered,
  // every configuration of the sweep shares one parallelFor.
  [[nodiscard]] std::vector<core::WorkloadAttempt> evaluateList(
      Device device, std::span<const int> sizes,
      ThreadPool* pool = nullptr) const override;
  // A model-direct study (tens of µs, no pool) runs inline; the metered
  // protocol (tens of ms per size, parallelFor on the pool) keeps the
  // pool.  Fault campaigns require the meter, so they stay pooled too.
  [[nodiscard]] bool runsInline() const override { return !options_.useMeter; }

  [[nodiscard]] const EpStudyEngineOptions& options() const {
    return options_;
  }

 private:
  // The (device, n) stream: results are independent of request order,
  // which is what makes them cacheable and coalescable.
  [[nodiscard]] Rng stream(Device device, int n) const;

  EpStudyEngineOptions options_;
  // One study and one tuning hash per kDevices row.
  std::array<core::GpuEpStudy, kDeviceCount> studies_;
  std::array<std::uint64_t, kDeviceCount> hashes_;
};

}  // namespace ep::serve
