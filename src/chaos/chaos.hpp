// epchaos — deterministic fault injection for the serving fleet.
//
// The serving half of the fault plane: connection resets, torn frames,
// corrupted EPB1 varints, stalled sockets, dropped accepts, corrupted
// inbound bytes, and engine failures, hangs and whole-shard crashes.
// Every decision goes through epfault's decision kernel
// (fault::forkDecision, fault::pickKind) on a stream forked off one
// campaign seed, and every injection is counted in a fault::FaultTally,
// exactly as FaultyMeter does for meter faults.  A campaign with a fixed
// seed is bit-for-bit reproducible at any thread count, which is what
// lets test_chaos's ChaosCampaign cases assert "degrades predictably"
// instead of "usually survives".
//
// The pieces (each in its own header):
//   FaultyTransport  client-side socket wrapper injecting transport
//                    faults between a real client and a real server.
//   NetChaos         server-side decision engine bound into the
//                    net::ServerChaosHooks test seam.
//   ChaosEngine      TuningEngine decorator injecting evaluate()
//                    failures, hangs and whole-shard crashes.
//   RetryPolicy      seeded exponential-backoff-with-jitter schedules
//                    plus client retry budgets (retry.hpp).
#pragma once

#include <cstdint>

namespace ep::chaos {

// Key of the transport and server-side decision streams; each consumer
// adds its own salt after it.
inline constexpr std::uint64_t kChaosSalt = 0xC4405A17ULL;

struct ChaosOptions {
  // Campaign seed; every injection stream is forked off this.
  std::uint64_t seed = 0xC4A05EEDULL;

  // Client-transport faults (FaultyTransport), decided per attempt:
  double connectResetRate = 0.0;  // close instead of sending (peer: reset)
  double tornFrameRate = 0.0;     // send a strict prefix, then close
  double corruptFrameRate = 0.0;  // flip a byte in the EPB1 length varint
  double stallRate = 0.0;         // delay before sending (stalled socket)
  double stallMs = 2.0;

  // Server-side faults (NetChaos -> net::ServerChaosHooks):
  double acceptDropRate = 0.0;     // close a connection right after accept
  double inboundCorruptRate = 0.0; // flip a byte in one inbound chunk

  // Engine faults (ChaosEngine), decided per (device, n) study key:
  double failRate = 0.0;  // the key's evaluate() always throws
  double hangRate = 0.0;  // the key sleeps hangMs before delegating
  double hangMs = 50.0;

  // A campaign is on when any fault can fire.
  [[nodiscard]] bool enabled() const {
    return connectResetRate > 0.0 || tornFrameRate > 0.0 ||
           corruptFrameRate > 0.0 || stallRate > 0.0 ||
           acceptDropRate > 0.0 || inboundCorruptRate > 0.0 ||
           failRate > 0.0 || hangRate > 0.0;
  }

  // The scripted campaign shape used by the tests: `rate` is the total
  // per-request transport-fault probability, split across the fault
  // kinds; server-side faults run at half that rate so a campaign
  // exercises both seams without doubling the error budget.  Engine
  // faults stay off: a test arms them per key.
  [[nodiscard]] static ChaosOptions campaign(double rate) {
    return {.connectResetRate = rate * 0.40,
            .tornFrameRate = rate * 0.25,
            .corruptFrameRate = rate * 0.20,
            .stallRate = rate * 0.15,
            .stallMs = 1.0,
            .acceptDropRate = rate * 0.30,
            .inboundCorruptRate = rate * 0.20};
  }
};

}  // namespace ep::chaos
