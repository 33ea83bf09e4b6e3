#include "cluster/hierarchy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "cluster/hierarchy_builder.hpp"
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
    EXPECT_GT(h.alpha(k), 1.0);
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
  const auto d = make_deployment(300, 8);
  const auto h = HierarchyBuilder().build(d.g);
  for (Level k = 0; k <= h.top_level(); ++k) {
    EXPECT_NEAR(h.aggregation(k),
                static_cast<double>(d.g.vertex_count()) /
                    static_cast<double>(h.cluster_count(k)),
                1e-12);
  }
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

}  // namespace
}  // namespace manet::cluster
