#include "fleet/policy.hpp"

namespace ep::fleet {

namespace {

constexpr double kQueueWeight = 1.0;      // per in-flight request
constexpr double kEnergyWeight = 1.0;     // per expected joule
constexpr double kNonHomeBias = 0.125;    // toward the ring home on ties
constexpr double kBreakerOpenCost = 1e9;  // open breaker = last resort

}  // namespace

const char* policyName(PolicyKind k) {
  switch (k) {
    case PolicyKind::RoundRobin:
      return "round-robin";
    case PolicyKind::QueueDepth:
      return "queue";
    case PolicyKind::EnergyAware:
      return "energy";
  }
  return "unknown";
}

std::optional<PolicyKind> parsePolicy(const std::string& s) {
  if (s == "rr" || s == "round-robin") return PolicyKind::RoundRobin;
  if (s == "queue" || s == "queue-depth") return PolicyKind::QueueDepth;
  if (s == "energy" || s == "energy-aware") return PolicyKind::EnergyAware;
  return std::nullopt;
}

double scoreCandidate(PolicyKind kind, const CandidateSnapshot& c) {
  double score = 0.0;
  switch (kind) {
    case PolicyKind::RoundRobin:
      break;  // stateless: rotation in pickCandidate decides
    case PolicyKind::QueueDepth:
      score = kQueueWeight * static_cast<double>(c.inFlight);
      break;
    case PolicyKind::EnergyAware:
      score = kQueueWeight * static_cast<double>(c.inFlight) +
              kEnergyWeight * c.expectedJoules +
              (c.preference > 0 ? kNonHomeBias : 0.0);
      break;
  }
  if (c.breakerOpen) score += kBreakerOpenCost;
  return score;
}

std::optional<std::size_t> pickCandidate(
    PolicyKind kind, const std::vector<CandidateSnapshot>& candidates,
    std::size_t rotation) {
  const std::size_t n = candidates.size();
  if (n == 0) return std::nullopt;
  std::optional<std::size_t> best;
  double bestScore = 0.0;
  // Scan in rotated order so equal scores hand out shards fairly (and
  // RoundRobin, where every score ties, degenerates to exactly that
  // rotation).  EnergyAware breaks ties toward the ring home instead:
  // affinity is its whole point.
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t i =
        (kind == PolicyKind::EnergyAware) ? step : (step + rotation) % n;
    const CandidateSnapshot& c = candidates[i];
    if (!c.alive) continue;
    const double score = scoreCandidate(kind, c);
    bool better = !best || score < bestScore;
    if (kind == PolicyKind::EnergyAware && best && score == bestScore) {
      const CandidateSnapshot& b = candidates[*best];
      better = c.preference < b.preference ||
               (c.preference == b.preference && c.index < b.index);
    }
    if (better) {
      best = i;
      bestScore = score;
    }
  }
  return best;
}

}  // namespace ep::fleet
