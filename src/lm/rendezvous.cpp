#include "lm/rendezvous.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/hash.hpp"

namespace manet::lm {

namespace {

constexpr std::uint64_t kPhi64 = 0x9E3779B97F4A7C15ULL;

/// Map a raw 64-bit score to (0, 1): 53-bit mantissa, never exactly 0 or 1
/// thanks to the +1 / +2 shift.
inline double uniform01(std::uint64_t raw) noexcept {
  return (static_cast<double>(raw >> 11) + 1.0) / (9007199254740992.0 + 2.0);
}

}  // namespace

std::uint64_t rendezvous_score(std::uint64_t salt, NodeId owner, NodeId candidate) noexcept {
  // Two-stage mix: fold the owner into the salt domain first so that owner
  // and candidate do not cancel under XOR symmetry.
  const std::uint64_t domain = common::hash_combine(salt, owner);
  return common::mix64(domain ^ (static_cast<std::uint64_t>(candidate) * kPhi64));
}

double rendezvous_weighted_score(std::uint64_t salt, NodeId owner, NodeId candidate,
                                 double weight) noexcept {
  return weight / -std::log(uniform01(rendezvous_score(salt, owner, candidate)));
}

NodeId rendezvous_pick(std::uint64_t salt, NodeId owner, std::span<const NodeId> candidates) {
  MANET_CHECK_MSG(!candidates.empty(), "rendezvous over empty candidate set");
  NodeId best = candidates[0];
  std::uint64_t best_score = rendezvous_score(salt, owner, best);
  for (Size i = 1; i < candidates.size(); ++i) {
    const std::uint64_t score = rendezvous_score(salt, owner, candidates[i]);
    if (score > best_score || (score == best_score && candidates[i] < best)) {
      best = candidates[i];
      best_score = score;
    }
  }
  return best;
}

}  // namespace manet::lm
