// TuningEngine decorator injecting compute-side faults: sporadic
// evaluate() failures, slow evaluations (hangs), and whole-shard
// crash/hang toggled at runtime — the shard-level analogue of
// FaultyMeter.
//
// tuningHash() delegates to the inner engine on purpose: a chaotic
// engine computes the *same* results as a clean one when it does not
// fault, so shards sharing the inner engine keep one cache identity and
// replica stale-serving across shards stays exercised under chaos.
//
// Sporadic decisions are drawn per (device, n) from forked Rng streams,
// so which keys fault is a pure function of the campaign seed — not of
// request interleaving — keeping campaigns reproducible at any thread
// count.  crash() flips an atomic consulted by every evaluate(): the
// drill path for "shard dies, breaker opens, health probes eject it,
// recovery reinstates it".
#pragma once

#include <atomic>
#include <memory>

#include "chaos/chaos.hpp"
#include "fault/fault.hpp"
#include "serve/engine.hpp"

namespace ep::chaos {

class ChaosEngine : public serve::TuningEngine {
 public:
  // Reads options.seed, failRate, hangRate and hangMs.
  explicit ChaosEngine(std::shared_ptr<const serve::TuningEngine> inner,
                       ChaosOptions options = {});

  [[nodiscard]] std::uint64_t tuningHash(serve::Device device) const override;
  [[nodiscard]] core::WorkloadResult evaluate(
      serve::Device device, int n, ThreadPool* pool = nullptr) const override;

  // Whole-shard crash: every evaluate() throws until recover().
  void crash() { crashed_.store(true, std::memory_order_release); }
  void recover() { crashed_.store(false, std::memory_order_release); }
  [[nodiscard]] bool crashed() const {
    return crashed_.load(std::memory_order_acquire);
  }

  // EngineFailure (injected and crashed) and EngineHang counts.
  [[nodiscard]] const fault::FaultTally& counts() const { return counts_; }

 private:
  std::shared_ptr<const serve::TuningEngine> inner_;
  ChaosOptions options_;
  std::atomic<bool> crashed_{false};
  mutable fault::FaultTally counts_;
};

}  // namespace ep::chaos
