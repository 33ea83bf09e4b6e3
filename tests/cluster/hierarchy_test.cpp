#include "cluster/hierarchy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "cluster/hierarchy_builder.hpp"
#include "cluster/maxmin.hpp"
#include "common/rng.hpp"
#include "geom/region.hpp"
#include "net/unit_disk.hpp"

namespace manet::cluster {
namespace {

using graph::Edge;
using graph::Graph;

/// Random connected unit-disk deployment used by the structural tests.
struct Deployment {
  std::vector<geom::Vec2> positions;
  Graph g{0};
};

Deployment make_deployment(Size n, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  const auto disk = geom::DiskRegion::with_density(n, 1.0);
  Deployment d;
  d.positions.resize(n);
  for (auto& p : d.positions) p = disk.sample(rng);
  net::UnitDiskBuilder builder(2.2, /*ensure_connected=*/true);
  d.g = builder.build(d.positions);
  return d;
}

std::vector<NodeId> to_vector(std::span<const NodeId> row) {
  return {row.begin(), row.end()};
}

/// Rebuilds every row of \p h by brute force from the parent chains and
/// requires the stored rows to match: level-k cluster c's children are the
/// ascending u with level(k-1).parent[u] == c, its members0 the ascending v
/// whose walked-up ancestor is c, and level 0 is the identity.
void expect_rows_match_parent_chains(const Hierarchy& h) {
  const Size n = h.cluster_count(0);
  std::vector<NodeId> walked(n);  // each level-0 node's cluster at level k
  for (NodeId v = 0; v < n; ++v) {
    walked[v] = v;
    EXPECT_EQ(h.ancestor(v, 0), v);
    EXPECT_EQ(to_vector(h.members0(0, v)), std::vector<NodeId>{v});
  }
  for (Level k = 1; k <= h.top_level(); ++k) {
    const auto& below = h.level(k - 1);
    for (NodeId v = 0; v < n; ++v) {
      walked[v] = below.parent[walked[v]];
      ASSERT_EQ(h.ancestor(v, k), walked[v]) << "v " << v << ", level " << k;
    }
    for (NodeId c = 0; c < h.cluster_count(k); ++c) {
      std::vector<NodeId> children;
      for (NodeId u = 0; u < below.vertex_count(); ++u) {
        if (below.parent[u] == c) children.push_back(u);
      }
      std::vector<NodeId> members;
      for (NodeId v = 0; v < n; ++v) {
        if (walked[v] == c) members.push_back(v);
      }
      EXPECT_EQ(to_vector(h.children(k, c)), children) << "cluster " << c << ", level " << k;
      EXPECT_EQ(to_vector(h.members0(k, c)), members) << "cluster " << c << ", level " << k;
    }
  }
}

/// Every level's stored state, rows included, is equal in \p a and \p b.
void expect_same_hierarchy(const Hierarchy& a, const Hierarchy& b) {
  ASSERT_EQ(a.level_count(), b.level_count());
  for (Level k = 0; k <= a.top_level(); ++k) {
    const LevelView& x = a.level(k);
    const LevelView& y = b.level(k);
    EXPECT_EQ(x.ids, y.ids) << "level " << k;
    EXPECT_EQ(x.node0, y.node0) << "level " << k;
    EXPECT_EQ(x.parent, y.parent) << "level " << k;
    EXPECT_EQ(x.election.head_of, y.election.head_of) << "level " << k;
    EXPECT_EQ(x.election.clusterheads, y.election.clusterheads) << "level " << k;
    EXPECT_TRUE(std::ranges::equal(x.topo.edges(), y.topo.edges())) << "level " << k;
    EXPECT_EQ(x.ancestor, y.ancestor) << "level " << k;
    EXPECT_EQ(x.children.start, y.children.start) << "level " << k;
    EXPECT_EQ(x.children.items, y.children.items) << "level " << k;
    EXPECT_EQ(x.members0.start, y.members0.start) << "level " << k;
    EXPECT_EQ(x.members0.items, y.members0.items) << "level " << k;
  }
}

TEST(Hierarchy, SingleNode) {
  const Graph g(1);
  const auto h = HierarchyBuilder().build(g);
  EXPECT_EQ(h.level_count(), 1u);
  EXPECT_EQ(h.top_level(), 0u);
  EXPECT_EQ(h.ancestor(0, 0), 0u);
}

TEST(Hierarchy, TwoNodesCollapseToOneCluster) {
  const Graph g(2, std::vector<Edge>{{0, 1}});
  const auto h = HierarchyBuilder().build(g);
  EXPECT_EQ(h.top_level(), 1u);
  EXPECT_EQ(h.cluster_count(1), 1u);
  EXPECT_EQ(h.ancestor_id(0, 1), 1u);  // head is the larger id
  EXPECT_EQ(h.ancestor_id(1, 1), 1u);
}

TEST(Hierarchy, ConnectedGraphAggregatesToSingleTopCluster) {
  const auto d = make_deployment(300, 1);
  const auto h = HierarchyBuilder().build(d.g);
  EXPECT_GE(h.top_level(), 2u);
  EXPECT_EQ(h.cluster_count(h.top_level()), 1u);
}

TEST(Hierarchy, ClusterCountsStrictlyDecrease) {
  const auto d = make_deployment(400, 2);
  const auto h = HierarchyBuilder().build(d.g);
  for (Level k = 1; k <= h.top_level(); ++k) {
    EXPECT_LT(h.cluster_count(k), h.cluster_count(k - 1)) << "level " << k;
    // The aggregation ratio alpha_k = |V_{k-1}| / |V_k| (paper Section 1.1)
    // is the mean children row length.
    Size children = 0;
    for (NodeId c = 0; c < h.cluster_count(k); ++c) children += h.children(k, c).size();
    const double alpha =
        static_cast<double>(h.cluster_count(k - 1)) / static_cast<double>(h.cluster_count(k));
    EXPECT_GT(alpha, 1.0) << "level " << k;
    EXPECT_DOUBLE_EQ(alpha, static_cast<double>(children) /
                                static_cast<double>(h.cluster_count(k)));
  }
}

TEST(Hierarchy, MembershipIsAPartitionAtEveryLevel) {
  const auto d = make_deployment(350, 3);
  const auto h = HierarchyBuilder().build(d.g);
  const Size n = d.g.vertex_count();
  for (Level k = 0; k <= h.top_level(); ++k) {
    std::vector<NodeId> seen;
    for (NodeId c = 0; c < h.cluster_count(k); ++c) {
      const auto& members = h.members0(k, c);
      seen.insert(seen.end(), members.begin(), members.end());
    }
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen.size(), n) << "level " << k;
    for (NodeId v = 0; v < n; ++v) EXPECT_EQ(seen[v], v);
  }
}

TEST(Hierarchy, AncestorConsistentWithMembers) {
  const auto d = make_deployment(250, 4);
  const auto h = HierarchyBuilder().build(d.g);
  for (Level k = 0; k <= h.top_level(); ++k) {
    for (NodeId v = 0; v < d.g.vertex_count(); ++v) {
      const NodeId c = h.ancestor(v, k);
      const auto& members = h.members0(k, c);
      EXPECT_TRUE(std::binary_search(members.begin(), members.end(), v))
          << "v=" << v << " level=" << k;
    }
  }
}

TEST(Hierarchy, HeadBelongsToItsOwnCluster) {
  const auto d = make_deployment(250, 5);
  const auto h = HierarchyBuilder().build(d.g);
  for (Level k = 1; k <= h.top_level(); ++k) {
    const auto& view = h.level(k);
    for (NodeId c = 0; c < view.vertex_count(); ++c) {
      // The head's level-0 node must be a member of the cluster it leads.
      const auto& members = h.members0(k, c);
      EXPECT_TRUE(std::binary_search(members.begin(), members.end(), view.node0[c]));
      // And its id matches the cluster id.
      EXPECT_EQ(h.level(0).ids[view.node0[c]], view.ids[c]);
    }
  }
}

TEST(Hierarchy, ChildrenPartitionParentLevel) {
  const auto d = make_deployment(300, 6);
  const auto h = HierarchyBuilder().build(d.g);
  for (Level k = 1; k <= h.top_level(); ++k) {
    Size total = 0;
    for (NodeId c = 0; c < h.cluster_count(k); ++c) total += h.children(k, c).size();
    EXPECT_EQ(total, h.cluster_count(k - 1));
  }
}

TEST(Hierarchy, AddressChainTopDown) {
  const auto d = make_deployment(200, 7);
  const auto h = HierarchyBuilder().build(d.g);
  for (NodeId v = 0; v < 20; ++v) {
    const auto addr = h.address(v);
    ASSERT_EQ(addr.size(), h.level_count());
    EXPECT_EQ(addr.back(), v);  // identity ids: level-0 entry is v itself
    for (Level k = 0; k < addr.size(); ++k) {
      EXPECT_EQ(addr[k], h.ancestor_id(v, h.top_level() - k));
    }
  }
}

TEST(Hierarchy, AggregationMatchesClusterCounts) {
  // The aggregation factor c_k = |V| / |V_k| (paper eq. (2)) is the mean
  // members0 row length, and it grows with k.
  const auto d = make_deployment(300, 8);
  const auto h = HierarchyBuilder().build(d.g);
  double previous = 0.0;
  for (Level k = 0; k <= h.top_level(); ++k) {
    Size members = 0;
    for (NodeId c = 0; c < h.cluster_count(k); ++c) members += h.members0(k, c).size();
    const double c_k = static_cast<double>(d.g.vertex_count()) /
                       static_cast<double>(h.cluster_count(k));
    EXPECT_DOUBLE_EQ(c_k, static_cast<double>(members) /
                              static_cast<double>(h.cluster_count(k)));
    EXPECT_GT(c_k, previous) << "level " << k;
    previous = c_k;
  }
  EXPECT_DOUBLE_EQ(previous, static_cast<double>(d.g.vertex_count()));
}

TEST(Hierarchy, ShuffledIdsStillYieldValidHierarchy) {
  const auto d = make_deployment(300, 9);
  common::Xoshiro256 rng(10);
  std::vector<NodeId> ids(d.g.vertex_count());
  std::iota(ids.begin(), ids.end(), 0u);
  common::shuffle(rng, ids.data(), ids.size());
  const auto h = HierarchyBuilder().build(d.g, ids);
  EXPECT_EQ(h.cluster_count(h.top_level()), 1u);
  // Top head must carry the globally maximal id.
  EXPECT_EQ(h.level(h.top_level()).ids[0],
            *std::max_element(ids.begin(), ids.end()));
}

TEST(Hierarchy, GeometricLinksProduceValidHierarchy) {
  const auto d = make_deployment(400, 11);
  HierarchyOptions options;
  options.geometric_links = true;
  options.beta = 1.0;
  options.tx_radius = 2.2;
  const auto h = HierarchyBuilder(options).build(d.g, {}, d.positions);
  EXPECT_GE(h.top_level(), 2u);
  // Partition invariant still holds.
  Size total = 0;
  for (NodeId c = 0; c < h.cluster_count(h.top_level()); ++c) {
    total += h.members0(h.top_level(), c).size();
  }
  EXPECT_EQ(total, d.g.vertex_count());
}

TEST(Hierarchy, GeometricLinksMatchAllPairsScan) {
  // The builder finds level-k links through a spatial grid; every level must
  // hold exactly the pairs an all-pairs scan over the heads' level-0
  // positions finds within beta * R_TX * sqrt(n / |V_k|). Disk deployments
  // are centered on the origin, so coordinates run negative too; the small
  // ones reach levels of one or two heads.
  constexpr double kRadius = 2.2;
  Size two_head_levels = 0;
  for (const Size n : {Size{3}, Size{9}, Size{400}, Size{1500}}) {
    const auto d = make_deployment(n, 100 + n);
    for (const double beta : {0.5, 1.0, 2.0}) {
      HierarchyOptions options;
      options.geometric_links = true;
      options.beta = beta;
      options.tx_radius = kRadius;
      const auto h = HierarchyBuilder(options).build(d.g, {}, d.positions);
      for (Level k = 1; k <= h.top_level(); ++k) {
        const auto& level = h.level(k);
        const Size heads = level.vertex_count();
        if (heads == 2) ++two_head_levels;
        const double range = beta * kRadius *
                             std::sqrt(static_cast<double>(n) / static_cast<double>(heads));
        std::vector<Edge> expected;
        for (NodeId a = 0; a < heads; ++a) {
          for (NodeId b = a + 1; b < heads; ++b) {
            if (geom::distance2(d.positions[level.node0[a]], d.positions[level.node0[b]]) <=
                range * range) {
              expected.emplace_back(a, b);
            }
          }
        }
        const auto got = level.topo.edges();
        EXPECT_EQ(std::vector<Edge>(got.begin(), got.end()), expected)
            << "n " << n << ", beta " << beta << ", level " << k;
      }
    }
  }
  EXPECT_GT(two_head_levels, 0u) << "no level holds a single possible link";
}

TEST(Hierarchy, MaxLevelCapIsRespected) {
  const auto d = make_deployment(400, 12);
  HierarchyOptions options;
  options.max_levels = 2;
  const auto h = HierarchyBuilder(options).build(d.g);
  EXPECT_LE(h.top_level(), 2u);
}

TEST(Hierarchy, DeterministicForFixedInput) {
  const auto d = make_deployment(200, 13);
  const auto h1 = HierarchyBuilder().build(d.g);
  const auto h2 = HierarchyBuilder().build(d.g);
  ASSERT_EQ(h1.level_count(), h2.level_count());
  for (Level k = 0; k <= h1.top_level(); ++k) {
    EXPECT_EQ(h1.level(k).ids, h2.level(k).ids);
  }
}

TEST(Hierarchy, RowsMatchParentChains) {
  // ALCA with contraction and with geometric links, and MaxMin-2.
  const auto d = make_deployment(500, 14);
  expect_rows_match_parent_chains(HierarchyBuilder().build(d.g));
  HierarchyOptions geometric;
  geometric.geometric_links = true;
  geometric.tx_radius = 2.2;
  expect_rows_match_parent_chains(HierarchyBuilder(geometric).build(d.g, {}, d.positions));
  const auto maxmin = HierarchyBuilder(std::make_shared<MaxMinDCluster>(2)).build(d.g);
  EXPECT_GE(maxmin.top_level(), 2u);
  expect_rows_match_parent_chains(maxmin);

  // One and two nodes.
  expect_rows_match_parent_chains(HierarchyBuilder().build(Graph(1)));
  expect_rows_match_parent_chains(HierarchyBuilder().build(Graph(2, std::vector<Edge>{{0, 1}})));
}

TEST(Hierarchy, RowsMatchParentChainsOnDisconnectedDeployment) {
  // Three deployments far apart: contraction links never join them, so the
  // recursion stops with at least one top cluster per deployment.
  std::vector<geom::Vec2> positions;
  for (int part = 0; part < 3; ++part) {
    const auto d = make_deployment(120, 20 + static_cast<std::uint64_t>(part));
    for (const auto& p : d.positions) positions.push_back({p.x + 100.0 * part, p.y});
  }
  net::UnitDiskBuilder disk(2.2, /*ensure_connected=*/false);
  const Graph g = disk.build(positions);
  const auto h = HierarchyBuilder().build(g);
  EXPECT_GE(h.cluster_count(h.top_level()), 3u);
  expect_rows_match_parent_chains(h);
}

TEST(Hierarchy, GrowIntoDeeperHierarchyEqualsFreshBuild) {
  const auto deep = make_deployment(600, 16);
  const auto shallow = make_deployment(30, 17);
  const HierarchyBuilder builder;
  Hierarchy h = builder.build(deep.g);
  const Hierarchy fresh = builder.build(shallow.g);
  ASSERT_GT(h.top_level(), fresh.top_level());
  HierarchyBuilder::grow(shallow.g, {}, {}, HierarchyOptions{},
                         [&](Level, const LevelView& level, ElectionResult& out) {
                           out = builder.algorithm().elect(level.topo, level.ids);
                         },
                         h);
  expect_same_hierarchy(h, fresh);
  expect_rows_match_parent_chains(h);
}

}  // namespace
}  // namespace manet::cluster
