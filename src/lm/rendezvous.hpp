#pragma once

#include <cstdint>
#include <span>

#include "common/types.hpp"

/// \file rendezvous.hpp
/// Highest-random-weight (rendezvous) hashing.
///
/// CHLM (paper Section 3.2) needs a hash that picks, for owner node v, one
/// member of a candidate set (a cluster's children) such that (a) any node
/// knowing v's id and the candidate set computes the *same* choice with no
/// coordination — unambiguous server selection — and (b) over many owners
/// the choices spread evenly — equitable server load. The paper notes GLS's
/// successor rule (its eq. (5)) fails requirement (b) in CHLM because every
/// owner in a cluster would hash to the same minimal member, and leaves the
/// concrete function open. Rendezvous hashing satisfies both requirements:
/// score(owner, candidate) = mix64(owner ^ salt ^ candidate) and the winner
/// is the argmax, so each owner sees an independent uniform permutation of
/// candidates.

namespace manet::lm {

/// Score of one (owner, candidate) pair under domain \p salt.
std::uint64_t rendezvous_score(std::uint64_t salt, NodeId owner, NodeId candidate) noexcept;

/// Weighted rendezvous score: w / -ln(u) with u the (0,1)-uniform image of
/// rendezvous_score(salt, owner, candidate). Argmax over candidates selects
/// candidate c with probability w_c / sum(w) — classic weighted HRW — which
/// is what lets server_select weight children by level-0 member counts.
double rendezvous_weighted_score(std::uint64_t salt, NodeId owner, NodeId candidate,
                                 double weight) noexcept;

/// Winner among \p candidates for \p owner; candidates must be non-empty.
/// Deterministic: ties (probability ~2^-64) break toward the smaller id.
NodeId rendezvous_pick(std::uint64_t salt, NodeId owner, std::span<const NodeId> candidates);

}  // namespace manet::lm
