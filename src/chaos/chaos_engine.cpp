#include "chaos/chaos_engine.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace ep::chaos {

namespace {

constexpr std::uint64_t kEngineSalt = 0x5AADE9ULL;
constexpr std::uint64_t kFailSalt = 0xF417ULL;
constexpr std::uint64_t kHangSalt = 0x8A46ULL;

// One decision stream per (salt, device, n): whether a key faults is a
// property of the campaign, not of when the broker evaluates it.
double keyDraw(const ChaosOptions& o, std::uint64_t kindSalt,
               serve::Device device, int n) {
  return fault::forkDecision(Rng(o.seed),
                             {kEngineSalt, kindSalt,
                              static_cast<std::uint64_t>(device) + 1,
                              static_cast<std::uint64_t>(n)})
      .uniform(0.0, 1.0);
}

}  // namespace

ChaosEngine::ChaosEngine(std::shared_ptr<const serve::TuningEngine> inner,
                         ChaosOptions options)
    : inner_(std::move(inner)), options_(options) {}

std::uint64_t ChaosEngine::tuningHash(serve::Device device) const {
  return inner_->tuningHash(device);
}

core::WorkloadResult ChaosEngine::evaluate(serve::Device device, int n,
                                           ThreadPool* pool) const {
  if (crashed_.load(std::memory_order_acquire)) {
    counts_.add(fault::FaultKind::EngineFailure);
    throw EpError("chaos: shard crashed");
  }
  if (options_.failRate > 0.0 &&
      keyDraw(options_, kFailSalt, device, n) < options_.failRate) {
    counts_.add(fault::FaultKind::EngineFailure);
    throw EpError("chaos: injected evaluate failure");
  }
  if (options_.hangRate > 0.0 &&
      keyDraw(options_, kHangSalt, device, n) < options_.hangRate) {
    counts_.add(fault::FaultKind::EngineHang);
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        options_.hangMs));
  }
  return inner_->evaluate(device, n, pool);
}

}  // namespace ep::chaos
