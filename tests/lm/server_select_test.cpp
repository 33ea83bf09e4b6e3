#include "lm/server_select.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cluster/hierarchy_builder.hpp"
#include "common/rng.hpp"
#include "geom/region.hpp"
#include "net/unit_disk.hpp"

namespace manet::lm {
namespace {

struct Fixture {
  cluster::Hierarchy h;
  Size n = 0;
};

/// How level-0 vertices are named: identity (id(v) = v), a shuffled
/// permutation, or a shuffled run of ids that straddles the 2^32 wrap, so
/// the cyclic successor of the largest ids lies among the smallest.
enum class Ids { kIdentity, kShuffled, kWrapping };

std::vector<NodeId> make_ids(Size n, Ids scheme, std::uint64_t seed) {
  std::vector<NodeId> ids;
  if (scheme == Ids::kIdentity) return ids;  // empty span = identity
  ids.resize(n);
  const NodeId base = scheme == Ids::kWrapping ? kInvalidNode - static_cast<NodeId>(n / 2) : 0;
  // base + i wraps past 2^32 - 1 for the upper half; kInvalidNode is skipped.
  for (Size i = 0; i < n; ++i) {
    ids[i] = base + static_cast<NodeId>(i) + (scheme == Ids::kWrapping && i >= n / 2 ? 1 : 0);
  }
  common::Xoshiro256 rng(seed ^ 0x1D5);
  common::shuffle(rng, ids.data(), ids.size());
  return ids;
}

Fixture make(Size n, std::uint64_t seed, Ids scheme = Ids::kIdentity) {
  common::Xoshiro256 rng(seed);
  const auto disk = geom::DiskRegion::with_density(n, 1.0);
  std::vector<geom::Vec2> pts(n);
  for (auto& p : pts) p = disk.sample(rng);
  net::UnitDiskBuilder builder(2.2, true);
  const auto ids = make_ids(n, scheme, seed);
  return Fixture{cluster::HierarchyBuilder().build(builder.build(pts), ids), n};
}

class SelectStrategyTest : public ::testing::TestWithParam<SelectStrategy> {
 protected:
  ServerSelectConfig config() const {
    ServerSelectConfig cfg;
    cfg.strategy = GetParam();
    return cfg;
  }
};

TEST_P(SelectStrategyTest, ServerLiesInOwnersCluster) {
  const auto f = make(300, 1);
  const auto cfg = config();
  for (NodeId owner = 0; owner < f.n; owner += 3) {
    for (Level k = kFirstServedLevel; k <= f.h.top_level(); ++k) {
      const NodeId server = select_server(f.h, owner, k, cfg);
      ASSERT_LT(server, f.n);
      // The server must belong to the owner's level-k cluster.
      EXPECT_EQ(f.h.ancestor(server, k), f.h.ancestor(owner, k))
          << "owner " << owner << " level " << k;
    }
  }
}

TEST_P(SelectStrategyTest, SelectionIsDeterministic) {
  const auto f = make(200, 2);
  const auto cfg = config();
  for (NodeId owner = 0; owner < 50; ++owner) {
    for (Level k = kFirstServedLevel; k <= f.h.top_level(); ++k) {
      EXPECT_EQ(select_server(f.h, owner, k, cfg), select_server(f.h, owner, k, cfg));
    }
  }
}

TEST_P(SelectStrategyTest, LoadIsBoundedAndSpread) {
  const auto f = make(400, 3);
  const auto cfg = config();
  std::vector<Size> load(f.n, 0);
  Size assignments = 0;
  for (NodeId owner = 0; owner < f.n; ++owner) {
    for (Level k = kFirstServedLevel; k <= f.h.top_level(); ++k) {
      ++load[select_server(f.h, owner, k, cfg)];
      ++assignments;
    }
  }
  const double mean = static_cast<double>(assignments) / static_cast<double>(f.n);
  const Size max_load = *std::max_element(load.begin(), load.end());
  // Equitable distribution (the paper's requirement): no node should carry
  // more than a modest multiple of the mean. The bound is loose enough for
  // every strategy yet tight enough to catch the everyone-hits-one-node
  // pathology the paper warns about with the raw GLS rule.
  EXPECT_LT(static_cast<double>(max_load), 20.0 * mean + 10.0);
  // At least a third of nodes should serve someone.
  const Size serving = static_cast<Size>(
      std::count_if(load.begin(), load.end(), [](Size l) { return l > 0; }));
  EXPECT_GT(serving, f.n / 3);
}

INSTANTIATE_TEST_SUITE_P(Strategies, SelectStrategyTest,
                         ::testing::Values(SelectStrategy::kFlatSuccessor,
                                           SelectStrategy::kWeightedDescent,
                                           SelectStrategy::kUnweightedDescent),
                         [](const auto& param_info) { return to_string(param_info.param); });

TEST(FlatSuccessor, StableUnderIrrelevantRelabeling) {
  // The flat rule must depend only on the member id set, not on which member
  // happens to be clusterhead: the selection equals the cyclic id successor
  // of the owner within its level-k member set, whatever the id naming.
  for (const Ids scheme : {Ids::kIdentity, Ids::kShuffled, Ids::kWrapping}) {
    const auto f = make(250, 4, scheme);
    const auto& ids0 = f.h.level(0).ids;
    ServerSelectConfig cfg;  // default flat successor
    for (NodeId owner = 0; owner < 60; ++owner) {
      for (Level k = kFirstServedLevel; k <= f.h.top_level(); ++k) {
        const NodeId server = select_server(f.h, owner, k, cfg);
        const auto& members = f.h.members0(k, f.h.ancestor(owner, k));
        // server id must be the cyclic successor of owner among members\{owner}.
        NodeId best = kInvalidNode;
        std::uint32_t best_score = 0xFFFFFFFFu;
        for (const NodeId z : members) {
          if (z == owner) continue;
          const std::uint32_t score = ids0[z] - ids0[owner] - 1;
          if (best == kInvalidNode || score < best_score) {
            best = z;
            best_score = score;
          }
        }
        EXPECT_EQ(server, best == kInvalidNode ? owner : best)
            << "id scheme " << static_cast<int>(scheme) << " owner " << owner << " level " << k;
      }
    }
  }
}

TEST(FlatSuccessor, SingletonClusterSelfServes) {
  // A 16-node path plus one isolated node: the path aggregates level by
  // level while the isolated node stays alone, so it forms a one-member
  // cluster at every served level.
  std::vector<graph::Edge> edges;
  for (NodeId v = 0; v + 1 < 16; ++v) edges.push_back({v, v + 1});
  const graph::Graph g(17, edges);
  const auto h = cluster::HierarchyBuilder().build(g);
  ASSERT_GE(h.top_level(), kFirstServedLevel);
  const NodeId lone = 16;
  std::vector<NodeId> bulk;
  const Size width = select_all_servers_into(h, {}, bulk);
  for (Level k = kFirstServedLevel; k <= h.top_level(); ++k) {
    ASSERT_EQ(h.members0(k, h.ancestor(lone, k)).size(), 1u) << "level " << k;
    EXPECT_EQ(select_server(h, lone, k), lone) << "level " << k;
    EXPECT_EQ(bulk[lone * width + (k - kFirstServedLevel)], lone) << "level " << k;
  }
}

TEST(SelectServerIn, AgreesWithSelectServerForOwnCluster) {
  const auto f = make(200, 7);
  ServerSelectConfig cfg;
  for (NodeId owner = 0; owner < 40; ++owner) {
    for (Level k = kFirstServedLevel; k <= f.h.top_level(); ++k) {
      EXPECT_EQ(select_server_in(f.h, f.h.ancestor(owner, k), k, owner, cfg),
                select_server(f.h, owner, k, cfg));
    }
  }
}

TEST(SelectAllServers, MatchesPerOwnerSelectionExactly) {
  // Identity, shuffled and 2^32-straddling ids: the bulk flat-successor walk
  // visits vertices in id order, so a non-trivial id order must not change
  // a single answer.
  for (const Ids scheme : {Ids::kIdentity, Ids::kShuffled, Ids::kWrapping}) {
    const auto f = make(350, 8, scheme);
    for (const auto strategy :
         {SelectStrategy::kFlatSuccessor, SelectStrategy::kWeightedDescent,
          SelectStrategy::kUnweightedDescent}) {
      ServerSelectConfig cfg;
      cfg.strategy = strategy;
      std::vector<NodeId> bulk;
      const Size width = select_all_servers_into(f.h, cfg, bulk);
      ASSERT_EQ(bulk.size(), f.n * width);
      for (NodeId owner = 0; owner < f.n; ++owner) {
        for (Level k = kFirstServedLevel; k <= f.h.top_level(); ++k) {
          ASSERT_EQ(bulk[owner * width + (k - kFirstServedLevel)],
                    select_server(f.h, owner, k, cfg))
              << to_string(strategy) << " id scheme " << static_cast<int>(scheme)
              << " owner " << owner << " level " << k;
        }
      }
    }
  }
}

TEST(SelectAllServers, FlatHierarchyYieldsEmptyRows) {
  const graph::Graph g(2, std::vector<graph::Edge>{{0, 1}});
  const auto h = cluster::HierarchyBuilder().build(g);
  std::vector<NodeId> bulk{7, 7};  // stale contents are replaced
  EXPECT_EQ(select_all_servers_into(h, {}, bulk), 0u);
  EXPECT_TRUE(bulk.empty());
}

TEST(SelectStrategyNames, AreDistinct) {
  EXPECT_STRNE(to_string(SelectStrategy::kFlatSuccessor),
               to_string(SelectStrategy::kWeightedDescent));
  EXPECT_STRNE(to_string(SelectStrategy::kWeightedDescent),
               to_string(SelectStrategy::kUnweightedDescent));
}

}  // namespace
}  // namespace manet::lm
