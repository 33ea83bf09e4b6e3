#include "cluster/repair.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "cluster/alca.hpp"
#include "cluster/hierarchy_builder.hpp"
#include "common/rng.hpp"
#include "geom/region.hpp"
#include "net/unit_disk.hpp"

namespace manet::cluster {
namespace {

using graph::Edge;
using graph::Graph;

void expect_same(const Hierarchy& a, const Hierarchy& b) {
  ASSERT_EQ(a.level_count(), b.level_count());
  for (Level k = 0; k <= a.top_level(); ++k) {
    EXPECT_EQ(a.level(k).ids, b.level(k).ids) << "level " << k;
    EXPECT_EQ(a.level(k).parent, b.level(k).parent) << "level " << k;
    EXPECT_EQ(a.level(k).node0, b.level(k).node0) << "level " << k;
    EXPECT_EQ(a.level(k).election.head_of, b.level(k).election.head_of) << "level " << k;
    EXPECT_EQ(a.level(k).election.clusterheads, b.level(k).election.clusterheads)
        << "level " << k;
    EXPECT_EQ(a.level(k).election.votes, b.level(k).election.votes) << "level " << k;
    ASSERT_EQ(a.level(k).topo.edge_count(), b.level(k).topo.edge_count()) << "level " << k;
    EXPECT_TRUE(std::equal(a.level(k).topo.edges().begin(), a.level(k).topo.edges().end(),
                           b.level(k).topo.edges().begin()))
        << "level " << k;
    EXPECT_EQ(a.level(k).ancestor, b.level(k).ancestor) << "level " << k;
    EXPECT_EQ(a.level(k).children.start, b.level(k).children.start) << "level " << k;
    EXPECT_EQ(a.level(k).children.items, b.level(k).children.items) << "level " << k;
    EXPECT_EQ(a.level(k).members0.start, b.level(k).members0.start) << "level " << k;
    EXPECT_EQ(a.level(k).members0.items, b.level(k).members0.items) << "level " << k;
  }
  for (NodeId v = 0; v < a.level(0).ids.size(); ++v) {
    EXPECT_EQ(a.address(v), b.address(v));
  }
}

// ---------------------------------------------------------------------------
// IncrementalAlca against the from-scratch election
// ---------------------------------------------------------------------------

TEST(IncrementalAlca, MatchesFreshElectionUnderEdgeChurn) {
  // Random graph evolved by random edge flips; after every apply() the
  // incremental state must project to exactly alca_elect on the same graph.
  const Size n = 60;
  common::Xoshiro256 rng(99);
  std::vector<NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  common::shuffle(rng, ids.data(), ids.size());

  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (common::uniform01(rng) < 0.06) edges.emplace_back(u, v);
    }
  }
  std::sort(edges.begin(), edges.end());
  Graph g(n, edges);

  IncrementalAlca alca;
  alca.seed(g, ids);

  for (int step = 0; step < 50; ++step) {
    std::vector<Edge> ups, downs;
    for (int flip = 0; flip < 4; ++flip) {
      NodeId u = static_cast<NodeId>(common::uniform_index(rng, n));
      NodeId v = static_cast<NodeId>(common::uniform_index(rng, n));
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      const Edge e{u, v};
      const auto it = std::lower_bound(edges.begin(), edges.end(), e);
      if (it != edges.end() && *it == e) {
        edges.erase(it);
        downs.push_back(e);
      } else {
        edges.insert(it, e);
        ups.push_back(e);
      }
    }
    g = Graph(n, edges);
    alca.apply(g, ids, ups, downs);

    ElectionResult inc;
    alca.emit(inc);
    const ElectionResult ref = alca_elect(g, ids);
    ASSERT_EQ(inc.head_of, ref.head_of) << "step " << step;
    ASSERT_EQ(inc.clusterheads, ref.clusterheads) << "step " << step;
    ASSERT_EQ(inc.votes, ref.votes) << "step " << step;
    ASSERT_EQ(alca.heads(), ref.clusterheads) << "step " << step;
  }
}

// ---------------------------------------------------------------------------
// HierarchyRepairer against HierarchyBuilder on a mobile deployment
// ---------------------------------------------------------------------------

/// Drives repairer and builder over the same jittered deployment and
/// requires bit-identity at every step.
void run_dynamic_identity(HierarchyOptions options, std::uint64_t seed) {
  const Size n = 220;
  const double radius = 2.2;
  common::Xoshiro256 rng(seed);
  const auto disk_region = geom::DiskRegion::with_density(n, 1.0);
  std::vector<geom::Vec2> positions(n);
  for (auto& p : positions) p = disk_region.sample(rng);

  std::vector<NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  common::shuffle(rng, ids.data(), ids.size());

  // ensure_connected = false: the repairer's delta contract covers raw radio
  // links only, which is exactly what the simulation feeds it on
  // bridge-free ticks.
  net::UnitDiskBuilder disk(radius, /*ensure_connected=*/false);
  const Graph* g = &disk.update(positions);

  const HierarchyBuilder builder(options);
  HierarchyRepairer repairer(options);

  Hierarchy a = builder.build(*g, ids, positions);  // initial prev (re-seed)
  Hierarchy b;
  Hierarchy* prev = &a;
  Hierarchy* cur = &b;
  repairer.repair(*g, disk.links_up(), disk.links_down(), ids, positions, *prev, *cur);
  expect_same(*cur, builder.build(*g, ids, positions));
  std::swap(prev, cur);

  for (int step = 0; step < 30; ++step) {
    // Vary churn intensity: a few big jumps, many small drifts, some ticks
    // where only a fraction of nodes move.
    const double scale = (step % 3 == 0) ? 0.8 : 0.12;
    for (NodeId v = 0; v < n; ++v) {
      if (step % 4 == 1 && v % 3 != 0) continue;
      positions[v].x += (common::uniform01(rng) - 0.5) * scale;
      positions[v].y += (common::uniform01(rng) - 0.5) * scale;
    }
    g = &disk.update(positions);
    repairer.repair(*g, disk.links_up(), disk.links_down(), ids, positions, *prev, *cur);
    expect_same(*cur, builder.build(*g, ids, positions));
    std::swap(prev, cur);
  }
}

TEST(HierarchyRepairer, MatchesBuilderUnderMotionContractionLinks) {
  run_dynamic_identity(HierarchyOptions{}, 21);
}

TEST(HierarchyRepairer, MatchesBuilderUnderMotionGeometricLinks) {
  HierarchyOptions options;
  options.geometric_links = true;
  options.beta = 1.0;
  options.tx_radius = 2.2;
  run_dynamic_identity(options, 22);
}

TEST(HierarchyRepairer, SelfDiffsWhenDeltaNotTrustworthy) {
  // With level0_delta_exact = false the passed spans must be ignored: hand
  // the repairer deliberately wrong deltas and require identity anyway.
  const Size n = 150;
  common::Xoshiro256 rng(33);
  const auto region = geom::DiskRegion::with_density(n, 1.0);
  std::vector<geom::Vec2> positions(n);
  for (auto& p : positions) p = region.sample(rng);

  net::UnitDiskBuilder disk(2.2, /*ensure_connected=*/false);
  const Graph* g = &disk.update(positions);
  const HierarchyBuilder builder;
  HierarchyRepairer repairer;

  Hierarchy a = builder.build(*g, {}, positions);
  Hierarchy b;
  repairer.repair(*g, {}, {}, {}, positions, a, b);  // re-seed call

  const std::vector<Edge> garbage{{0, 1}, {2, 3}, {4, 5}};
  Hierarchy* prev = &b;
  Hierarchy* cur = &a;
  for (int step = 0; step < 10; ++step) {
    for (auto& p : positions) {
      p.x += (common::uniform01(rng) - 0.5) * 0.3;
      p.y += (common::uniform01(rng) - 0.5) * 0.3;
    }
    g = &disk.update(positions);
    repairer.repair(*g, garbage, garbage, {}, positions, *prev, *cur,
                    /*level0_delta_exact=*/false);
    expect_same(*cur, builder.build(*g, {}, positions));
    std::swap(prev, cur);
  }
}

TEST(HierarchyRepairer, InvalidateForcesReseedAcrossForeignSnapshots) {
  // Simulates the sim's fallback ticks: the previous snapshot came from the
  // builder (repairer state is stale), invalidate() is called, and the next
  // repair() must still be exact even though the graph changed arbitrarily.
  const Size n = 120;
  common::Xoshiro256 rng(44);
  const auto region = geom::DiskRegion::with_density(n, 1.0);
  std::vector<geom::Vec2> positions(n);
  for (auto& p : positions) p = region.sample(rng);

  net::UnitDiskBuilder disk(2.2, /*ensure_connected=*/false);
  const Graph* g = &disk.update(positions);
  const HierarchyBuilder builder;
  HierarchyRepairer repairer;

  Hierarchy prev = builder.build(*g, {}, positions);
  Hierarchy out;
  repairer.repair(*g, {}, {}, {}, positions, prev, out);

  // Move a lot, rebuild via the builder (repairer never sees this tick).
  for (auto& p : positions) {
    p.x += (common::uniform01(rng) - 0.5) * 1.5;
    p.y += (common::uniform01(rng) - 0.5) * 1.5;
  }
  g = &disk.update(positions);
  prev = builder.build(*g, {}, positions);
  repairer.invalidate();

  // Next tick goes back through the repairer; deltas relative to the tick
  // the repairer last saw would be wrong, but re-seeding must ignore them.
  for (auto& p : positions) {
    p.x += (common::uniform01(rng) - 0.5) * 0.2;
    p.y += (common::uniform01(rng) - 0.5) * 0.2;
  }
  g = &disk.update(positions);
  repairer.repair(*g, disk.links_up(), disk.links_down(), {}, positions, prev, out);
  expect_same(out, builder.build(*g, {}, positions));
  EXPECT_GE(repairer.stats().reseeds, 1u);
}

// ---------------------------------------------------------------------------
// Dirty-region accounting on a hand-built 3-level hierarchy
// ---------------------------------------------------------------------------

/// Nine nodes in three triangles-of-influence: 2, 5, 8 carry the large ids
/// (102, 105, 108) and head their local clusters {0,1,2} / {3,4,5} / {6,7,8};
/// inter-head links 2-5 and 5-8 aggregate the heads into higher levels until
/// a single root remains.
struct HandBuilt {
  std::vector<NodeId> ids{0, 1, 102, 3, 4, 105, 6, 7, 108};
  std::vector<Edge> edges{{0, 2}, {1, 2}, {2, 5}, {3, 5}, {4, 5}, {5, 8}, {6, 8}, {7, 8}};
  std::vector<geom::Vec2> positions = std::vector<geom::Vec2>(9);

  Graph graph() const {
    auto sorted = edges;
    std::sort(sorted.begin(), sorted.end());
    return Graph(9, sorted);
  }
};

TEST(HierarchyRepairer, IrrelevantLinkUpSplicesEveryUpperLevel) {
  HandBuilt hb;
  const HierarchyBuilder builder;
  HierarchyRepairer repairer;

  const Graph g0 = hb.graph();
  Hierarchy prev = builder.build(g0, hb.ids, hb.positions);
  ASSERT_GE(prev.top_level(), 2u);  // the example really is 3+ levels deep
  Hierarchy out;
  repairer.repair(g0, {}, {}, hb.ids, hb.positions, prev, out);

  // Edge 0-1 appears: both endpoints already elect 2 (id 102), so nothing
  // retargets, the head set is unchanged, and every upper level splices.
  hb.edges.push_back({0, 1});
  const Graph g1 = hb.graph();
  const std::vector<Edge> ups{{0, 1}};
  Hierarchy out2;
  repairer.repair(g1, ups, {}, hb.ids, hb.positions, out, out2);
  expect_same(out2, builder.build(g1, hb.ids, hb.positions));

  const RepairStats& stats = repairer.stats();
  ASSERT_GE(stats.levels.size(), 2u);
  EXPECT_EQ(stats.levels[0].edge_flips, 1u);
  EXPECT_EQ(stats.levels[0].dirty_vertices, 0u);
  EXPECT_EQ(stats.levels[0].heads_gained, 0u);
  EXPECT_EQ(stats.levels[0].heads_lost, 0u);
  EXPECT_FALSE(stats.levels[0].reelected);
  for (Size k = 1; k < stats.levels.size(); ++k) {
    EXPECT_TRUE(stats.levels[k].spliced) << "level " << k;
    EXPECT_FALSE(stats.levels[k].reelected) << "level " << k;
  }
}

TEST(HierarchyRepairer, HeadLossBubblesOneLevelUp) {
  HandBuilt hb;
  const HierarchyBuilder builder;
  HierarchyRepairer repairer;

  const Graph g0 = hb.graph();
  Hierarchy prev = builder.build(g0, hb.ids, hb.positions);
  Hierarchy out;
  repairer.repair(g0, {}, {}, hb.ids, hb.positions, prev, out);

  // Edge 0-2 breaks: node 0 lost its elected head, rescans its now-empty
  // neighborhood and elects itself — the level-0 head set gains vertex 0,
  // so level 1's vertex set changes and that level genuinely re-elects.
  hb.edges.erase(std::find(hb.edges.begin(), hb.edges.end(), Edge{0, 2}));
  const Graph g1 = hb.graph();
  const std::vector<Edge> downs{{0, 2}};
  Hierarchy out2;
  repairer.repair(g1, {}, downs, hb.ids, hb.positions, out, out2);
  expect_same(out2, builder.build(g1, hb.ids, hb.positions));

  const RepairStats& stats = repairer.stats();
  ASSERT_GE(stats.levels.size(), 2u);
  EXPECT_EQ(stats.levels[0].edge_flips, 1u);
  EXPECT_EQ(stats.levels[0].dirty_vertices, 1u);  // only node 0 rescanned
  EXPECT_EQ(stats.levels[0].heads_gained, 1u);    // vertex 0 now self-heads
  EXPECT_EQ(stats.levels[0].heads_lost, 0u);
  EXPECT_TRUE(stats.levels[1].reelected);  // vertex set changed: re-seed
}

TEST(HierarchyRepairer, SaturatedChurnCapsRepairAtReseedCost) {
  HandBuilt hb;
  const HierarchyBuilder builder;
  HierarchyRepairer repairer;

  const Graph g0 = hb.graph();
  Hierarchy prev = builder.build(g0, hb.ids, hb.positions);
  Hierarchy out;
  repairer.repair(g0, {}, {}, hb.ids, hb.positions, prev, out);

  // Two new edges against 8 surviving ones trip the too-dirty bailout
  // (2 * 10 >= 10 + 8): the level re-seeds instead of applying flips, so the
  // per-call bill is capped at one linear election pass. Both endpoints of
  // both edges already elect their heads, so an apply would have found zero
  // dirty vertices — the bailout triggers on flip volume, not on impact.
  hb.edges.push_back({0, 1});
  hb.edges.push_back({3, 4});
  const Graph g1 = hb.graph();
  const std::vector<Edge> ups{{0, 1}, {3, 4}};
  Hierarchy out2;
  repairer.repair(g1, ups, {}, hb.ids, hb.positions, out, out2);
  expect_same(out2, builder.build(g1, hb.ids, hb.positions));

  const RepairStats& stats = repairer.stats();
  ASSERT_GE(stats.levels.size(), 1u);
  EXPECT_EQ(stats.levels[0].edge_flips, 2u);
  EXPECT_TRUE(stats.levels[0].reelected);       // bailed out to a re-seed
  EXPECT_EQ(stats.levels[0].dirty_vertices, 0u);  // apply path never ran
  EXPECT_FALSE(stats.levels[0].spliced);
}

}  // namespace
}  // namespace manet::cluster
