#include "lm/rendezvous.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace manet::lm {
namespace {

TEST(Rendezvous, Deterministic) {
  const std::vector<NodeId> candidates{3, 7, 11, 19};
  EXPECT_EQ(rendezvous_pick(1, 42, candidates), rendezvous_pick(1, 42, candidates));
}

TEST(Rendezvous, WinnerIsIndependentOfCandidateOrder) {
  std::vector<NodeId> a{3, 7, 11, 19, 23};
  std::vector<NodeId> b{23, 11, 3, 19, 7};
  for (NodeId owner = 0; owner < 50; ++owner) {
    EXPECT_EQ(rendezvous_pick(5, owner, a), rendezvous_pick(5, owner, b));
  }
}

TEST(Rendezvous, MinimalDisruptionOnCandidateRemoval) {
  // The HRW property: removing a non-winning candidate never changes the
  // winner.
  const std::vector<NodeId> full{1, 2, 3, 4, 5, 6, 7, 8};
  for (NodeId owner = 0; owner < 200; ++owner) {
    const NodeId winner = rendezvous_pick(9, owner, full);
    for (const NodeId removed : full) {
      if (removed == winner) continue;
      std::vector<NodeId> reduced;
      for (const NodeId c : full) {
        if (c != removed) reduced.push_back(c);
      }
      EXPECT_EQ(rendezvous_pick(9, owner, reduced), winner);
    }
  }
}

TEST(Rendezvous, LoadIsRoughlyUniform) {
  const std::vector<NodeId> candidates{10, 20, 30, 40, 50};
  std::vector<int> counts(5, 0);
  const int owners = 50000;
  for (NodeId owner = 0; owner < owners; ++owner) {
    const NodeId winner = rendezvous_pick(13, owner, candidates);
    const auto idx = static_cast<Size>(
        std::find(candidates.begin(), candidates.end(), winner) - candidates.begin());
    ++counts[idx];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / owners, 0.2, 0.02);
  }
}

TEST(Rendezvous, SaltChangesAssignment) {
  const std::vector<NodeId> candidates{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  int moved = 0;
  for (NodeId owner = 0; owner < 500; ++owner) {
    if (rendezvous_pick(1, owner, candidates) != rendezvous_pick(2, owner, candidates)) {
      ++moved;
    }
  }
  EXPECT_GT(moved, 300);  // ~9/10 expected to move under a re-key
}

TEST(Rendezvous, SingleCandidateAlwaysWins) {
  const std::vector<NodeId> one{77};
  for (NodeId owner = 0; owner < 10; ++owner) {
    EXPECT_EQ(rendezvous_pick(3, owner, one), 77u);
  }
}

TEST(Rendezvous, ScoreIsOwnerSensitive) {
  EXPECT_NE(rendezvous_score(1, 10, 5), rendezvous_score(1, 11, 5));
}

/// Argmax of rendezvous_weighted_score over \p candidates, ties toward the
/// smaller id: the rule weighted descent applies to a cluster's children.
NodeId weighted_argmax(std::uint64_t salt, NodeId owner, const std::vector<NodeId>& candidates,
                       const std::vector<double>& weights) {
  NodeId best = candidates[0];
  double best_score = rendezvous_weighted_score(salt, owner, best, weights[0]);
  for (Size i = 1; i < candidates.size(); ++i) {
    const double score = rendezvous_weighted_score(salt, owner, candidates[i], weights[i]);
    if (score > best_score || (score == best_score && candidates[i] < best)) {
      best = candidates[i];
      best_score = score;
    }
  }
  return best;
}

TEST(RendezvousWeighted, ScalarPickHonorsWeights) {
  // weight w_c wins with probability w_c / sum(w): candidate 2 carries 3/4
  // of the total weight here.
  const std::vector<NodeId> candidates{1, 2};
  const std::vector<double> weights{1.0, 3.0};
  int heavy = 0;
  const int owners = 20000;
  for (NodeId owner = 0; owner < owners; ++owner) {
    if (weighted_argmax(99, owner, candidates, weights) == 2) ++heavy;
  }
  EXPECT_NEAR(static_cast<double>(heavy) / owners, 0.75, 0.02);
}

TEST(RendezvousWeighted, EqualWeightsMatchScoreOrdering) {
  // With all weights equal the weighted argmax must agree with the raw
  // rendezvous winner: x -> w / -ln(u(x)) is strictly increasing in the raw
  // score, so the two argmaxes coincide.
  const std::vector<NodeId> candidates{5, 9, 14, 77, 120};
  const std::vector<double> weights(candidates.size(), 1.0);
  for (NodeId owner = 0; owner < 300; ++owner) {
    EXPECT_EQ(weighted_argmax(7, owner, candidates, weights),
              rendezvous_pick(7, owner, candidates));
  }
}

}  // namespace
}  // namespace manet::lm
