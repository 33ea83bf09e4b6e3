#include "routing/table.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "cluster/hierarchy_builder.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "geom/region.hpp"
#include "graph/bfs.hpp"
#include "net/unit_disk.hpp"
#include "sim/shard.hpp"

namespace manet::routing {
namespace {

struct World {
  std::vector<geom::Vec2> pts;
  graph::Graph g{0};
  cluster::Hierarchy h;
};

World make(Size n, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  const auto disk = geom::DiskRegion::with_density(n, 1.0);
  World w;
  w.pts.resize(n);
  for (auto& p : w.pts) p = disk.sample(rng);
  net::UnitDiskBuilder builder(2.2, true);
  w.g = builder.build(w.pts);
  w.h = cluster::HierarchyBuilder().build(w.g);
  return w;
}

/// A world whose level-k links are geometric (paper eq. (7)), so clusters
/// need not be contiguous at level 0 and fallback entries can oscillate.
/// \p isolated random nodes lose every edge, as a crash strips them, and
/// stay cluster members. Without bridging, a small \p radius leaves the
/// snapshot disconnected.
World make_geometric(Size n, std::uint64_t seed, double radius, bool bridge, Size isolated) {
  common::Xoshiro256 rng(seed);
  const auto disk = geom::DiskRegion::with_density(n, 1.0);
  World w;
  w.pts.resize(n);
  for (auto& p : w.pts) p = disk.sample(rng);
  const graph::Graph full = net::UnitDiskBuilder(radius, bridge).build(w.pts);
  std::vector<bool> stripped(n, false);
  for (Size i = 0; i < isolated; ++i) stripped[common::uniform_index(rng, n)] = true;
  std::vector<graph::Edge> kept;
  for (const auto& e : full.edges()) {
    if (!stripped[e.first] && !stripped[e.second]) kept.push_back(e);
  }
  w.g = graph::Graph(n, kept);
  cluster::HierarchyOptions options;
  options.geometric_links = true;
  options.tx_radius = radius;
  w.h = cluster::HierarchyBuilder(options).build(w.g, {}, w.pts);
  return w;
}

struct GeometricCase {
  Size n;
  std::uint64_t seed;
  double radius;
  bool bridge;
  Size isolated;
};

/// Connected, crash-stripped and disconnected snapshots.
constexpr GeometricCase kGeometricCases[] = {
    {160, 21, 2.2, true, 0},  {160, 22, 2.2, true, 12}, {220, 23, 1.8, true, 20},
    {200, 24, 1.5, false, 0}, {180, 25, 1.6, false, 10},
};

/// route() as first written, the reference for the bounded recovery: on
/// the first revisit, one full BFS field from dest; the first step takes the
/// smallest of the oscillating hop and the closer neighbors, then the packet
/// descends.
struct ReferenceRoute {
  std::vector<NodeId> path;
  bool delivered = false;
  bool recovered = false;
  bool stepped_back = false;  ///< the first step took h, which is not closer
};

ReferenceRoute reference_route(const RoutingTables& tables, const graph::Graph& g, NodeId u,
                               NodeId dest) {
  ReferenceRoute r;
  r.path.push_back(u);
  const Size guard = 4 * g.vertex_count() + 8;
  std::vector<bool> visited(g.vertex_count(), false);
  visited[u] = true;
  NodeId cur = u;
  bool recovery = false;
  std::vector<std::uint32_t> field;
  while (cur != dest && r.path.size() < guard) {
    NodeId hop = kInvalidNode;
    if (!recovery) {
      hop = tables.next_hop(cur, dest);
      if (hop == kInvalidNode || visited[hop]) {
        recovery = true;
        r.recovered = true;
        field = graph::bfs_hops(g, dest);
      }
    }
    if (recovery) {
      const std::uint32_t dc = field[cur];
      if (dc == graph::kUnreachable || dc == 0) break;
      const NodeId h = hop;
      for (const NodeId w : g.neighbors(cur)) {
        if (field[w] == dc - 1 && (hop == kInvalidNode || w < hop)) hop = w;
      }
      if (h != kInvalidNode && hop == h && field[h] != dc - 1) r.stepped_back = true;
    }
    if (hop == kInvalidNode || hop == cur) break;
    r.path.push_back(hop);
    visited[hop] = true;
    cur = hop;
  }
  r.delivered = cur == dest;
  return r;
}

/// The table builder with the fallback it had before: one whole-graph
/// multi-source BFS per child whenever any parent member is cut off.
/// \p fallbacks counts the entries read from that field.
std::vector<std::vector<RouteEntry>> reference_tables(const graph::Graph& g,
                                                      const cluster::Hierarchy& h,
                                                      Size& fallbacks) {
  const Size n = g.vertex_count();
  std::vector<std::vector<RouteEntry>> tables(n);
  std::vector<std::uint32_t> membership(n, 0xFFFFFFFFu);
  for (Level parent_level = 1; parent_level <= h.top_level(); ++parent_level) {
    const Level child_level = parent_level - 1;
    for (NodeId parent = 0; parent < h.cluster_count(parent_level); ++parent) {
      const auto& children = h.children(parent_level, parent);
      if (children.size() < 2) continue;
      const auto& parent_members = h.members0(parent_level, parent);
      for (const NodeId v : parent_members) membership[v] = parent;
      for (const NodeId child : children) {
        const auto& targets = h.members0(child_level, child);
        std::vector<std::uint32_t> dist(n, graph::kUnreachable);
        std::vector<NodeId> queue;
        for (const NodeId s : targets) {
          dist[s] = 0;
          queue.push_back(s);
        }
        for (Size head = 0; head < queue.size(); ++head) {
          for (const NodeId w : g.neighbors(queue[head])) {
            if (membership[w] != parent || dist[w] != graph::kUnreachable) continue;
            dist[w] = dist[queue[head]] + 1;
            queue.push_back(w);
          }
        }
        std::vector<std::uint32_t> global;
        for (const NodeId v : parent_members) {
          if (dist[v] == graph::kUnreachable) {
            global = graph::bfs_hops_multi(g, targets);
            break;
          }
        }
        for (const NodeId v : parent_members) {
          const auto& field = dist[v] != graph::kUnreachable ? dist : global;
          if (field.empty()) continue;
          const std::uint32_t dv = field[v];
          if (dv == 0 || dv == graph::kUnreachable) continue;
          NodeId hop = kInvalidNode;
          for (const NodeId w : g.neighbors(v)) {
            if (field[w] == dv - 1 && (hop == kInvalidNode || w < hop)) hop = w;
          }
          tables[v].push_back(RouteEntry{child_level, child, hop, dv});
          if (dist[v] == graph::kUnreachable) ++fallbacks;
        }
      }
      for (const NodeId v : parent_members) membership[v] = 0xFFFFFFFFu;
    }
  }
  return tables;
}

TEST(RoutingTables, EveryPairIsDeliverable) {
  const auto w = make(250, 1);
  const RoutingTables tables(w.g, w.h);
  RouteScratch scratch;
  std::vector<NodeId> path;
  common::Xoshiro256 rng(2);
  for (int i = 0; i < 300; ++i) {
    const auto u = static_cast<NodeId>(common::uniform_index(rng, 250));
    const auto v = static_cast<NodeId>(common::uniform_index(rng, 250));
    const auto routed = tables.route(u, v, scratch, &path);
    EXPECT_TRUE(routed.delivered) << u << " -> " << v;
    EXPECT_EQ(path.front(), u);
    EXPECT_EQ(path.back(), v);
    EXPECT_EQ(routed.hops + 1, path.size());
  }
}

TEST(RoutingTables, PathsFollowGraphEdges) {
  const auto w = make(200, 3);
  const RoutingTables tables(w.g, w.h);
  RouteScratch scratch;
  std::vector<NodeId> path;
  common::Xoshiro256 rng(4);
  for (int i = 0; i < 100; ++i) {
    const auto u = static_cast<NodeId>(common::uniform_index(rng, 200));
    const auto v = static_cast<NodeId>(common::uniform_index(rng, 200));
    tables.route(u, v, scratch, &path);
    for (Size hop = 1; hop < path.size(); ++hop) {
      EXPECT_TRUE(w.g.has_edge(path[hop - 1], path[hop]))
          << "phantom edge in path " << u << " -> " << v;
    }
  }
}

TEST(RoutingTables, SelfRouteIsTrivial) {
  const auto w = make(120, 5);
  const RoutingTables tables(w.g, w.h);
  RouteScratch scratch;
  std::vector<NodeId> path;
  const auto routed = tables.route(7, 7, scratch, &path);
  EXPECT_TRUE(routed.delivered);
  EXPECT_EQ(routed.hops, 0u);
  EXPECT_EQ(path, (std::vector<NodeId>{7}));
  EXPECT_EQ(tables.next_hop(7, 7), 7u);
}

TEST(RoutingTables, NextHopIsNeighborOrSelf) {
  const auto w = make(200, 6);
  const RoutingTables tables(w.g, w.h);
  for (NodeId u = 0; u < 200; u += 7) {
    for (NodeId v = 0; v < 200; v += 11) {
      if (u == v) continue;
      const NodeId hop = tables.next_hop(u, v);
      if (hop != kInvalidNode) {
        EXPECT_TRUE(w.g.has_edge(u, hop)) << u << " -> " << v;
      }
    }
  }
}

TEST(RoutingTables, TableSizeIsFarBelowFlatRouting) {
  const auto w = make(600, 7);
  const RoutingTables tables(w.g, w.h);
  // Flat routing keeps n-1 entries; hierarchical must be much smaller.
  EXPECT_LT(tables.mean_table_size(), 120.0);
  EXPECT_GT(tables.mean_table_size(), 2.0);
}

TEST(RoutingTables, TableSizeGrowsSlowlyWithN) {
  const auto small = make(200, 8);
  const auto large = make(1600, 9);
  const double t_small = RoutingTables(small.g, small.h).mean_table_size();
  const double t_large = RoutingTables(large.g, large.h).mean_table_size();
  // 8x the nodes must cost far less than 8x the table (log-like growth).
  EXPECT_LT(t_large, 3.0 * t_small);
}

TEST(RoutingTables, EntriesPointToSiblingClusters) {
  const auto w = make(300, 10);
  const RoutingTables tables(w.g, w.h);
  for (NodeId v = 0; v < 300; v += 13) {
    for (const auto& entry : tables.entries(v)) {
      // The entry's target cluster must share v's cluster one level up...
      const Level parent_level = entry.level + 1;
      ASSERT_LE(parent_level, w.h.top_level());
      // ...and must not be v's own branch.
      EXPECT_NE(w.h.ancestor(v, entry.level), entry.target);
      EXPECT_NE(entry.next_hop, kInvalidNode);
      EXPECT_GT(entry.distance, 0u);
    }
  }
}

TEST(MeasureStretch, ReportsSaneNumbers) {
  const auto w = make(400, 11);
  const RoutingTables tables(w.g, w.h);
  const auto stats = measure_stretch(tables, w.g, 150, 12);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_GT(stats.sampled_pairs, 100u);
  EXPECT_GE(stats.mean_stretch, 1.0);
  EXPECT_LT(stats.mean_stretch, 2.5);
  EXPECT_GE(stats.max_stretch, stats.mean_stretch);
  EXPECT_GE(stats.mean_hier_hops, stats.mean_shortest_hops);
}

TEST(MeasureStretch, RecoveriesAreRare) {
  const auto w = make(400, 13);
  const RoutingTables tables(w.g, w.h);
  const auto stats = measure_stretch(tables, w.g, 200, 14);
  EXPECT_LT(stats.recoveries, stats.sampled_pairs / 4);
}

TEST(RoutingTables, TinyNetworks) {
  // 2 nodes: single level-1 cluster, direct intra-cluster route.
  const graph::Graph g(2, std::vector<graph::Edge>{{0, 1}});
  const auto h = cluster::HierarchyBuilder().build(g);
  const RoutingTables tables(g, h);
  RouteScratch scratch;
  const auto routed = tables.route(0, 1, scratch);
  EXPECT_TRUE(routed.delivered);
  EXPECT_EQ(routed.hops, 1u);
}

TEST(RouteRecovery, MatchesTheFullBfsWalkOnEveryPair) {
  RouteScratch scratch;  // one scratch across worlds of different sizes
  std::vector<NodeId> path;
  Size recoveries = 0;
  Size undelivered = 0;
  Size stepped_back = 0;
  for (const auto& c : kGeometricCases) {
    const auto w = make_geometric(c.n, c.seed, c.radius, c.bridge, c.isolated);
    const RoutingTables tables(w.g, w.h);
    for (NodeId u = 0; u < c.n; ++u) {
      for (NodeId v = 0; v < c.n; ++v) {
        const auto want = reference_route(tables, w.g, u, v);
        const auto got = tables.route(u, v, scratch, &path);
        ASSERT_EQ(got.delivered, want.delivered) << "seed " << c.seed << ": " << u << " -> " << v;
        ASSERT_EQ(got.recovered, want.recovered) << "seed " << c.seed << ": " << u << " -> " << v;
        ASSERT_EQ(path, want.path) << "seed " << c.seed << ": " << u << " -> " << v;
        ASSERT_EQ(got.hops + 1, want.path.size()) << "seed " << c.seed << ": " << u << " -> " << v;
        ASSERT_EQ(tables.route(u, v, scratch).hops, got.hops);  // no path: same count
        if (got.recovered) ++recoveries;
        if (!got.delivered) ++undelivered;
        if (want.stepped_back) ++stepped_back;
      }
    }
  }
  // The worlds reach every recovery outcome: undeliverable, a first step
  // back to the oscillating hop, and a first step closer.
  EXPECT_GT(undelivered, 0u);
  EXPECT_GT(stepped_back, 0u);
  EXPECT_GT(recoveries, undelivered + stepped_back);
}

TEST(RouteRecovery, FirstStepTakesTheOscillatingHopWhenItIsSmallest) {
  // Path 0 - 1 - 2 - 3 - 4 under level-1 clusters {0, 2}, {1} and {3, 4},
  // one level-2 cluster above them (scripted elections). {0, 2} is not
  // contiguous, so 0's entry toward 2 falls back to the global field (via
  // 1), while 1's entry toward the cluster {0, 2} takes its smallest nearest
  // member, 0: the packet 0 -> 2 revisits 0 from 1.
  const graph::Graph g(5, std::vector<graph::Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const std::vector<std::vector<NodeId>> head_of = {{0, 1, 0, 3, 3}, {0, 0, 0}};
  cluster::Hierarchy h;
  cluster::HierarchyBuilder::grow(
      g, {}, {}, {},
      [&](Level k, const cluster::LevelView& level, cluster::ElectionResult& out) {
        out.head_of = head_of[k];
        out.clusterheads.clear();
        for (NodeId v = 0; v < out.head_of.size(); ++v) {
          if (out.head_of[v] == v) out.clusterheads.push_back(v);
        }
        out.votes.assign(level.vertex_count(), 0);
      },
      h);
  ASSERT_EQ(h.top_level(), 2u);
  const RoutingTables tables(g, h);
  EXPECT_EQ(tables.next_hop(0, 2), 1u);
  EXPECT_EQ(tables.next_hop(1, 2), 0u);

  RouteScratch scratch;
  std::vector<NodeId> path;
  const auto routed = tables.route(0, 2, scratch, &path);
  EXPECT_TRUE(routed.delivered);
  EXPECT_TRUE(routed.recovered);
  // At 1 the oscillating hop 0 beats the closer neighbor 2: back to 0, then
  // down. hops = prefix 1 + 1 + d(0) = 4, not the shortest prefix + d(1) = 2.
  EXPECT_EQ(path, (std::vector<NodeId>{0, 1, 0, 1, 2}));
  EXPECT_EQ(routed.hops, 4u);
  EXPECT_EQ(path, reference_route(tables, g, 0, 2).path);
}

TEST(RoutingTables, BoundedFallbackMatchesTheFullFallbackEntryForEntry) {
  Size entries = 0;
  Size fallbacks = 0;
  for (const auto& c : kGeometricCases) {
    const auto w = make_geometric(c.n, c.seed, c.radius, c.bridge, c.isolated);
    const RoutingTables tables(w.g, w.h);
    const auto want = reference_tables(w.g, w.h, fallbacks);
    for (NodeId v = 0; v < c.n; ++v) {
      const auto& got = tables.entries(v);
      ASSERT_EQ(got.size(), want[v].size()) << "seed " << c.seed << " node " << v;
      for (Size i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].level, want[v][i].level);
        EXPECT_EQ(got[i].target, want[v][i].target);
        EXPECT_EQ(got[i].next_hop, want[v][i].next_hop) << "seed " << c.seed << " node " << v;
        EXPECT_EQ(got[i].distance, want[v][i].distance) << "seed " << c.seed << " node " << v;
      }
      entries += got.size();
    }
  }
  EXPECT_GT(fallbacks, 0u);  // the worlds reach the global fallback
  EXPECT_GT(entries, fallbacks);
}

/// True when \p got holds exactly \p want's entries, in order.
bool same_entries(const std::vector<RouteEntry>& got, const std::vector<RouteEntry>& want) {
  return std::equal(got.begin(), got.end(), want.begin(), want.end(),
                    [](const RouteEntry& a, const RouteEntry& b) {
                      return a.level == b.level && a.target == b.target &&
                             a.next_hop == b.next_hop && a.distance == b.distance;
                    });
}

TEST(RoutingTables, PoolBuildMatchesInlineAndReferenceEntryForEntry) {
  // A contiguous random deployment, a crash-stripped one (isolated members
  // of degree 0) and a disconnected one with non-contiguous clusters, which
  // sends members through the global fallback BFS.
  std::vector<World> worlds;
  worlds.push_back(make(300, 31));
  worlds.push_back(make_geometric(220, 23, 1.8, true, 20));
  worlds.push_back(make_geometric(200, 24, 1.5, false, 0));
  Size fallbacks = 0;
  Size isolated = 0;
  for (const Size threads : {Size{1}, Size{4}, Size{7}}) {
    common::ThreadPool pool(threads);
    // More shards than threads, and a count that is no power of two.
    const sim::ShardExecutor exec(pool, 2 * threads + 1);
    for (Size i = 0; i < worlds.size(); ++i) {
      const World& w = worlds[i];
      const Size n = w.g.vertex_count();
      const RoutingTables inline_tables(w.g, w.h);
      const RoutingTables pooled(w.g, w.h, exec);
      const auto want = reference_tables(w.g, w.h, fallbacks);
      for (NodeId v = 0; v < n; ++v) {
        ASSERT_TRUE(same_entries(pooled.entries(v), inline_tables.entries(v)))
            << "world " << i << " threads " << threads << " node " << v;
        ASSERT_TRUE(same_entries(pooled.entries(v), want[v]))
            << "world " << i << " threads " << threads << " node " << v;
        if (threads == 1 && w.g.degree(v) == 0) ++isolated;
      }
      RouteScratch a, b;
      std::vector<NodeId> path_a, path_b;
      common::Xoshiro256 rng(i + 40);
      for (int pair = 0; pair < 400; ++pair) {
        const auto u = static_cast<NodeId>(common::uniform_index(rng, n));
        const auto d = static_cast<NodeId>(common::uniform_index(rng, n));
        const auto want_route = inline_tables.route(u, d, a, &path_a);
        const auto got_route = pooled.route(u, d, b, &path_b);
        ASSERT_EQ(got_route.delivered, want_route.delivered) << u << " -> " << d;
        ASSERT_EQ(got_route.recovered, want_route.recovered) << u << " -> " << d;
        ASSERT_EQ(got_route.hops, want_route.hops) << u << " -> " << d;
        ASSERT_EQ(path_b, path_a) << u << " -> " << d;
      }
    }
  }
  EXPECT_GT(fallbacks, 0u);  // the global fallback BFS ran
  EXPECT_GT(isolated, 0u);   // crashed members were present
}

}  // namespace
}  // namespace manet::routing
