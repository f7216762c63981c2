// Server-side chaos: deterministic decisions bound into the
// net::ServerChaosHooks seam.
//
// Every decision is drawn from an Rng stream forked per (connection,
// event index), so with a single event thread and a deterministic
// client schedule, which connections are dropped and which inbound
// chunks are corrupted is a pure function of the campaign seed.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "chaos/chaos.hpp"
#include "fault/fault.hpp"
#include "net/server.hpp"

namespace ep::chaos {

class NetChaos {
 public:
  explicit NetChaos(ChaosOptions options);

  // The hooks bind `this`; the NetChaos must outlive the server.
  [[nodiscard]] net::ServerChaosHooks hooks();

  // AcceptDrop and InboundCorrupt counts.
  [[nodiscard]] const fault::FaultTally& counts() const { return counts_; }

 private:
  bool decideAccept(std::uint64_t conn);
  bool decideInbound(std::uint64_t conn, std::string& bytes);

  ChaosOptions options_;
  std::mutex mu_;
  // Per-connection inbound chunk index: the stream key for chunk k of
  // connection c never depends on what other connections are doing.
  std::unordered_map<std::uint64_t, std::uint64_t> chunkIndex_;
  fault::FaultTally counts_;
};

}  // namespace ep::chaos
