// Pluggable shard-scoring policies for the fleet router.
//
// A policy turns a per-shard CandidateSnapshot — assembled by the
// router from relaxed-atomic per-shard gauges, never from a lock the
// shards share — into a scalar cost; the router sends the request to
// the cheapest live candidate.
//
//   RoundRobin   ignores all state (baseline; the router rotates).
//   QueueDepth   classic least-loaded: cost = live in-flight count.
//   EnergyAware  adds the energy price of the placement itself: a
//     request routed away from its key's ring home will, with high
//     probability, pay a fresh cold study — EWMA J/request for the
//     workload class, the PR 5 ledger's price signal — while the home
//     shard amortizes that study across every request for the key.
//     Nonproportionality is the opportunity here: skipping a redundant
//     cold study saves its whole dynamic-energy bill, so placement is
//     an energy decision, not just a latency one.
//
// An open breaker makes a candidate effectively last-resort under
// every scoring policy (routing into a breaker buys a guaranteed
// rejection or a stale answer).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace ep::fleet {

enum class PolicyKind { RoundRobin, QueueDepth, EnergyAware };

[[nodiscard]] const char* policyName(PolicyKind k);
// Accepts "rr"/"round-robin", "queue", "energy"/"energy-aware".
[[nodiscard]] std::optional<PolicyKind> parsePolicy(const std::string& s);

// One shard as the router sees it at scoring time.  Every field is a
// relaxed-atomic snapshot; nothing here required a lock to read.
struct CandidateSnapshot {
  std::size_t index = 0;       // dense shard index (round-robin order)
  std::size_t preference = 0;  // ring order from the key: 0 = home
  std::uint64_t inFlight = 0;  // requests routed, not yet completed
  // Expected extra joules of placing the request here: the cluster
  // EWMA cold-study cost for the workload class when the shard is not
  // the key's home (its cache almost surely misses), 0 at home.
  double expectedJoules = 0.0;
  bool breakerOpen = false;    // router's relaxed mirror of the device breaker
  bool alive = true;
};

// Scalar cost under `kind` (lower is better).  RoundRobin scores 0 for
// everything — selection happens in pickCandidate via `rotation`.  The
// weights are fixed: one unit per in-flight request and per expected
// joule, a 0.125 bias toward the ring home, and 1e9 for an open breaker
// (last resort).
[[nodiscard]] double scoreCandidate(PolicyKind kind,
                                    const CandidateSnapshot& c);

// Index into `candidates` of the winner: the live candidate with the
// lowest score.  Ties break toward the ring home (lowest preference,
// then lowest index) for EnergyAware, and rotate through shard indices
// starting at `rotation` otherwise — round-robin is exactly the
// all-ties case.  nullopt when no candidate is alive.
[[nodiscard]] std::optional<std::size_t> pickCandidate(
    PolicyKind kind, const std::vector<CandidateSnapshot>& candidates,
    std::size_t rotation);

}  // namespace ep::fleet
