#include "chaos/net_chaos.hpp"

#include "common/rng.hpp"

namespace ep::chaos {

namespace {
constexpr std::uint64_t kAcceptSalt = 0xACCE97ULL;
constexpr std::uint64_t kInboundSalt = 0x14B0D4ULL;
}  // namespace

NetChaos::NetChaos(ChaosOptions options) : options_(options) {}

net::ServerChaosHooks NetChaos::hooks() {
  net::ServerChaosHooks h;
  if (options_.acceptDropRate > 0.0) {
    h.dropOnAccept = [this](std::uint64_t conn) {
      return decideAccept(conn);
    };
  }
  if (options_.inboundCorruptRate > 0.0) {
    h.onInbound = [this](std::uint64_t conn, std::string& bytes) {
      return decideInbound(conn, bytes);
    };
  }
  return h;
}

bool NetChaos::decideAccept(std::uint64_t conn) {
  Rng stream = fault::forkDecision(Rng(options_.seed),
                                   {kChaosSalt, kAcceptSalt, conn});
  if (stream.uniform(0.0, 1.0) >= options_.acceptDropRate) return false;
  counts_.add(fault::FaultKind::AcceptDrop);
  return true;
}

bool NetChaos::decideInbound(std::uint64_t conn, std::string& bytes) {
  std::uint64_t k = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    k = chunkIndex_[conn]++;
  }
  Rng stream = fault::forkDecision(Rng(options_.seed),
                                   {kChaosSalt, kInboundSalt, conn, k});
  if (stream.uniform(0.0, 1.0) >= options_.inboundCorruptRate) return false;
  if (!bytes.empty()) {
    const std::uint64_t at =
        stream.uniformInt(0, static_cast<std::uint64_t>(bytes.size()) - 1);
    bytes[static_cast<std::size_t>(at)] =
        static_cast<char>(bytes[static_cast<std::size_t>(at)] ^ 0x5A);
  }
  counts_.add(fault::FaultKind::InboundCorrupt);
  return true;
}

}  // namespace ep::chaos
