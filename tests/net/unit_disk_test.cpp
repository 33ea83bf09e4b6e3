#include "net/unit_disk.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "geom/region.hpp"
#include "graph/components.hpp"
#include "sim/shard.hpp"

namespace manet::net {
namespace {

TEST(UnitDisk, PairsWithinRadiusAreLinked) {
  const std::vector<geom::Vec2> pts{{0, 0}, {0.9, 0}, {2.0, 0}};
  const auto g = build_unit_disk_graph(pts, 1.0);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(1, 2));
}

TEST(UnitDisk, ExactBoundaryIsLinked) {
  const std::vector<geom::Vec2> pts{{0, 0}, {1.0, 0}};
  const auto g = build_unit_disk_graph(pts, 1.0);
  EXPECT_TRUE(g.has_edge(0, 1));
}

TEST(UnitDisk, MatchesBruteForceOnRandomDeployment) {
  common::Xoshiro256 rng(7);
  const geom::DiskRegion disk({0, 0}, 12.0);
  std::vector<geom::Vec2> pts(400);
  for (auto& p : pts) p = disk.sample(rng);
  const double radius = 1.4;
  const auto g = build_unit_disk_graph(pts, radius);
  for (NodeId u = 0; u < pts.size(); ++u) {
    for (NodeId v = u + 1; v < pts.size(); ++v) {
      EXPECT_EQ(g.has_edge(u, v), geom::distance2(pts[u], pts[v]) <= radius * radius)
          << u << "," << v;
    }
  }
}

TEST(UnitDisk, BuilderReusableAcrossSnapshots) {
  UnitDiskBuilder builder(1.0);
  const auto g1 = builder.build({{0, 0}, {0.5, 0}});
  EXPECT_EQ(g1.edge_count(), 1u);
  const auto g2 = builder.build({{0, 0}, {5.0, 0}});
  EXPECT_EQ(g2.edge_count(), 0u);
}

TEST(UnitDisk, AugmentationConnectsFragments) {
  // Three well-separated pairs: 3 components, the giant has 2 nodes.
  const std::vector<geom::Vec2> pts{{0, 0}, {0.5, 0}, {10, 0}, {10.5, 0}, {20, 0}};
  UnitDiskBuilder plain(1.0, /*ensure_connected=*/false);
  EXPECT_FALSE(graph::is_connected(plain.build(pts)));

  UnitDiskBuilder bridged(1.0, /*ensure_connected=*/true);
  const auto g = bridged.build(pts);
  EXPECT_TRUE(graph::is_connected(g));
  EXPECT_EQ(bridged.last_augmented_edges(), 2u);  // two minor components
}

TEST(UnitDisk, AugmentationBridgesViaClosestPair) {
  // Component {3} is closest to node 2 of the giant {0,1,2}.
  const std::vector<geom::Vec2> pts{{0, 0}, {1, 0}, {2, 0}, {4, 0}};
  UnitDiskBuilder bridged(1.0, true);
  const auto g = bridged.build(pts);
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_FALSE(g.has_edge(0, 3));
}

TEST(UnitDisk, NoAugmentationWhenAlreadyConnected) {
  UnitDiskBuilder bridged(1.0, true);
  const auto g = bridged.build({{0, 0}, {0.5, 0}, {1.0, 0}});
  EXPECT_TRUE(graph::is_connected(g));
  EXPECT_EQ(bridged.last_augmented_edges(), 0u);
}

/// The bridged edge set by the closest-pair rule, computed the slow way:
/// brute-force raw edges, then for each minor component the first minimum
/// over all (member, giant node) pairs in (u, v) id order.
std::vector<graph::Edge> all_pairs_reference(const std::vector<geom::Vec2>& pts,
                                             double radius, Size& bridges) {
  std::vector<graph::Edge> edges;
  for (NodeId u = 0; u < pts.size(); ++u) {
    for (NodeId v = u + 1; v < pts.size(); ++v) {
      if (geom::distance2(pts[u], pts[v]) <= radius * radius) edges.emplace_back(u, v);
    }
  }
  const auto labels = graph::component_labels(graph::Graph(pts.size(), edges));
  std::vector<Size> size(*std::max_element(labels.begin(), labels.end()) + 1, 0);
  for (const auto l : labels) ++size[l];
  const auto giant =
      static_cast<std::uint32_t>(std::max_element(size.begin(), size.end()) - size.begin());
  bridges = 0;
  for (std::uint32_t c = 0; c < size.size(); ++c) {
    if (c == giant) continue;
    double best = std::numeric_limits<double>::infinity();
    graph::Edge pair;
    for (NodeId u = 0; u < pts.size(); ++u) {
      for (NodeId v = 0; v < pts.size(); ++v) {
        if (labels[u] != c || labels[v] != giant) continue;
        const double d2 = geom::distance2(pts[u], pts[v]);
        if (d2 < best) {
          best = d2;
          pair = {std::min(u, v), std::max(u, v)};
        }
      }
    }
    edges.push_back(pair);
    ++bridges;
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// build() and a seeded update() both bridge \p pts exactly as the
/// all-pairs reference does.
void expect_reference_bridges(const std::vector<geom::Vec2>& pts, double radius) {
  Size bridges = 0;
  const auto want = all_pairs_reference(pts, radius, bridges);
  ASSERT_GT(bridges, 0u);
  UnitDiskBuilder builder(radius, /*ensure_connected=*/true);
  const auto built = builder.build(pts);
  EXPECT_TRUE(std::equal(want.begin(), want.end(), built.edges().begin(), built.edges().end()));
  EXPECT_EQ(builder.last_augmented_edges(), bridges);
  const auto& updated = builder.update(pts);
  EXPECT_TRUE(
      std::equal(want.begin(), want.end(), updated.edges().begin(), updated.edges().end()));
  EXPECT_EQ(builder.last_augmented_edges(), bridges);
}

TEST(UnitDisk, BridgesMatchAllPairsReferenceOnSparseDeployments) {
  // Random sparse points around the origin (negative coordinates included).
  common::Xoshiro256 rng(53);
  const geom::DiskRegion disk({0, 0}, 10.0);
  std::vector<geom::Vec2> pts(160);
  for (auto& p : pts) p = disk.sample(rng);
  expect_reference_bridges(pts, 1.0);

  // A holed integer lattice across both signs: hop-linked at radius 1 and
  // full of exact distance ties between components.
  std::vector<geom::Vec2> lattice;
  for (int x = -7; x <= 7; ++x) {
    for (int y = -7; y <= 7; ++y) {
      if (common::uniform01(rng) < 0.45) lattice.push_back({x * 1.0, y * 1.0});
    }
  }
  expect_reference_bridges(lattice, 1.0);

  // Lattice clusters far apart, all-negative on one side: the nearest giant
  // node of a far component lies beyond the ring search's reach.
  std::vector<geom::Vec2> far;
  for (int x = 0; x < 6; ++x) {
    for (int y = 0; y < 4; ++y) {
      far.push_back({x * 1.0, y * 1.0});
      if ((x + y) % 3 == 0) far.push_back({-1000.0 - x * 2.0, -700.0 - y * 2.0});
    }
  }
  expect_reference_bridges(far, 1.0);
}

TEST(UnitDiskIncremental, AlternatingBridgedTicksReturnThisTicksGraph) {
  // Every other tick one node steps out of range and back: graph() must be
  // this tick's graph each time, with or without bridges — the rescan
  // assembles only the graph it returns, so nothing may be left over from
  // the last tick of the other kind.
  std::vector<geom::Vec2> pts;
  for (int i = 0; i < 7; ++i) pts.push_back({0.8 * i, 0.0});
  UnitDiskBuilder builder(1.0, /*ensure_connected=*/true);
  UnitDiskBuilder reference(1.0, /*ensure_connected=*/true);
  for (int step = 0; step < 12; ++step) {
    pts[6].x = step % 2 == 1 ? 7.5 : 4.8;
    pts[0].y = 0.01 * step;  // every tick moves a node
    const auto want = reference.build(pts);
    const auto& got = builder.update(pts);
    EXPECT_EQ(&got, &builder.graph());
    ASSERT_TRUE(std::equal(want.edges().begin(), want.edges().end(), got.edges().begin(),
                           got.edges().end()))
        << "step " << step;
    EXPECT_EQ(builder.last_augmented_edges(), step % 2 == 1 ? 1u : 0u) << "step " << step;
    EXPECT_TRUE(got.has_edge(5, 6)) << "step " << step;
    if (step > 0) {
      EXPECT_TRUE(builder.changed()) << "step " << step;
    }
  }
}

TEST(UnitDiskIncremental, UpdateMatchesBuildUnderRandomMotion) {
  // The maintenance contract: at every tick, update() must yield the exact
  // edge set a full build() over the same positions produces — including
  // augmentation bridges — and the reported ups/downs must be the exact
  // raw-edge delta. Motion mixes sparse jiggles, frozen ticks (the unmoved
  // early return) and bulk moves; every moving tick rescans.
  common::Xoshiro256 rng(41);
  const geom::DiskRegion region({0, 0}, 8.0);
  const double radius = 1.3;
  std::vector<geom::Vec2> pts(160);
  for (auto& p : pts) p = region.sample(rng);

  for (const bool bridged : {false, true}) {
    UnitDiskBuilder reference(radius, bridged);
    UnitDiskBuilder incremental(radius, bridged);
    std::vector<graph::Edge> prev_raw;
    for (int step = 0; step < 40; ++step) {
      if (step > 0) {
        const double frac = step % 7 == 0 ? 0.6 : (step % 3 == 0 ? 0.0 : 0.15);
        for (auto& p : pts) {
          if (common::uniform01(rng) >= frac) continue;
          p.x += common::uniform(rng, -0.4, 0.4);
          p.y += common::uniform(rng, -0.4, 0.4);
        }
      }
      const auto expected = reference.build(pts);
      const auto& got = incremental.update(pts);
      ASSERT_EQ(expected.edge_count(), got.edge_count()) << "step " << step;
      ASSERT_TRUE(std::equal(expected.edges().begin(), expected.edges().end(),
                             got.edges().begin()))
          << "bridged=" << bridged << " step " << step;
      EXPECT_EQ(reference.last_augmented_edges(), incremental.last_augmented_edges());

      // Replay the reported delta over the previous raw edge set.
      if (step > 0) {
        std::vector<graph::Edge> replayed = prev_raw;
        for (const auto& e : incremental.links_down()) {
          const auto it = std::find(replayed.begin(), replayed.end(), e);
          ASSERT_TRUE(it != replayed.end()) << "down edge never existed";
          replayed.erase(it);
        }
        for (const auto& e : incremental.links_up()) {
          ASSERT_TRUE(std::find(replayed.begin(), replayed.end(), e) == replayed.end())
              << "up edge already present";
          replayed.push_back(e);
        }
        std::sort(replayed.begin(), replayed.end());
        UnitDiskBuilder raw_ref(radius, /*ensure_connected=*/false);
        const auto raw_now = raw_ref.build(pts);
        ASSERT_EQ(replayed.size(), raw_now.edges().size()) << "step " << step;
        EXPECT_TRUE(std::equal(replayed.begin(), replayed.end(), raw_now.edges().begin()));
        prev_raw = replayed;
      } else {
        UnitDiskBuilder raw_ref(radius, /*ensure_connected=*/false);
        const auto raw_now = raw_ref.build(pts);
        prev_raw.assign(raw_now.edges().begin(), raw_now.edges().end());
      }
    }
  }
}

TEST(UnitDiskIncremental, UnmovedTickReportsNoChange) {
  common::Xoshiro256 rng(5);
  const geom::DiskRegion region({0, 0}, 5.0);
  std::vector<geom::Vec2> pts(60);
  for (auto& p : pts) p = region.sample(rng);

  UnitDiskBuilder builder(1.2);
  (void)builder.update(pts);
  EXPECT_TRUE(builder.changed());  // the seeding update counts as new topology

  const auto& g = builder.update(pts);
  EXPECT_FALSE(builder.changed());
  EXPECT_EQ(builder.last_moved_nodes(), 0u);
  EXPECT_TRUE(builder.links_up().empty());
  EXPECT_TRUE(builder.links_down().empty());
  EXPECT_EQ(g.edge_count(), builder.graph().edge_count());
}

TEST(UnitDiskIncremental, BuildInvalidatesIncrementalState) {
  UnitDiskBuilder builder(1.0);
  (void)builder.update({{0, 0}, {0.5, 0}});
  (void)builder.build({{0, 0}, {5.0, 0}});  // stateless detour
  const auto& g = builder.update({{0, 0}, {0.5, 0}});
  EXPECT_TRUE(builder.changed());  // re-seeded, treated as new
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(UnitDiskIncremental, SeedAfterBuildOnTheSamePositionsMatchesAFreshSeed) {
  // run_simulation builds the first snapshot with build() and seeds update()
  // on the same positions when nothing moved in between (static runs): that
  // seed reuses build()'s rescan and must be indistinguishable from a fresh
  // builder's seed, and from a seed on moved positions, which rescans.
  common::Xoshiro256 rng(17);
  const geom::DiskRegion region({0, 0}, 7.0);
  std::vector<geom::Vec2> pts(140);
  for (auto& p : pts) p = region.sample(rng);
  const auto same_edges = [](const graph::Graph& a, const graph::Graph& b) {
    return a.vertex_count() == b.vertex_count() &&
           std::equal(a.edges().begin(), a.edges().end(), b.edges().begin(), b.edges().end());
  };
  const auto expect_seed = [&](const UnitDiskBuilder& b) {
    EXPECT_TRUE(b.changed());
    EXPECT_TRUE(b.last_full_rescan());
    EXPECT_EQ(b.last_moved_nodes(), pts.size());
    EXPECT_TRUE(b.links_up().empty());
    EXPECT_TRUE(b.links_down().empty());
  };

  UnitDiskBuilder builder(1.1, /*ensure_connected=*/true);
  const graph::Graph built = builder.build(pts);
  ASSERT_GT(builder.last_augmented_edges(), 0u);  // bridges are part of the reused state
  const auto& seeded = builder.update(pts);
  UnitDiskBuilder fresh(1.1, /*ensure_connected=*/true);
  const auto& want = fresh.update(pts);
  EXPECT_TRUE(same_edges(seeded, built));
  EXPECT_TRUE(same_edges(seeded, want));
  EXPECT_EQ(builder.last_augmented_edges(), fresh.last_augmented_edges());
  expect_seed(builder);

  // The reused seed diffs the next tick exactly as the fresh one does.
  std::vector<geom::Vec2> moved = pts;
  for (auto& p : moved) {
    p.x += common::uniform(rng, -0.3, 0.3);
    p.y += common::uniform(rng, -0.3, 0.3);
  }
  const auto& next = builder.update(moved);
  const auto& next_want = fresh.update(moved);
  EXPECT_TRUE(same_edges(next, next_want));
  EXPECT_EQ(builder.changed(), fresh.changed());
  EXPECT_EQ(builder.links_up(), fresh.links_up());
  EXPECT_EQ(builder.links_down(), fresh.links_down());

  // build() then a seed on other positions rescans them.
  (void)builder.build(pts);
  const auto& reseeded = builder.update(moved);
  UnitDiskBuilder other(1.1, /*ensure_connected=*/true);
  EXPECT_TRUE(same_edges(reseeded, other.update(moved)));
  EXPECT_EQ(builder.last_augmented_edges(), other.last_augmented_edges());
  expect_seed(builder);
}

TEST(UnitDiskIncremental, BridgeMotionAloneReportsChange) {
  // Two 2-node components; the raw edge set never changes, but swapping the
  // positions inside the far component flips which node is the closest-pair
  // bridge endpoint. The augmented graph changed, and changed() must say so
  // even with an empty raw delta.
  std::vector<geom::Vec2> pts{{0, 0}, {0.5, 0}, {10.0, 0}, {10.5, 0}};
  UnitDiskBuilder builder(1.0, /*ensure_connected=*/true);
  const auto& g1 = builder.update(pts);
  EXPECT_TRUE(g1.has_edge(1, 2));
  EXPECT_EQ(builder.last_augmented_edges(), 1u);

  pts[2] = {10.5, 0};
  pts[3] = {10.0, 0};
  const auto& g2 = builder.update(pts);
  EXPECT_TRUE(builder.changed());
  EXPECT_TRUE(builder.links_up().empty());
  EXPECT_TRUE(builder.links_down().empty());
  EXPECT_TRUE(g2.has_edge(1, 3));
  EXPECT_FALSE(g2.has_edge(1, 2));
  EXPECT_EQ(builder.last_augmented_edges(), 1u);
}

TEST(UnitDiskIncremental, LargeDriftTriggersExactFallback) {
  // Every node teleports, rewiring everything: the rescan must still report
  // the exact delta.
  common::Xoshiro256 rng(9);
  const geom::DiskRegion region({0, 0}, 6.0);
  std::vector<geom::Vec2> pts(80);
  for (auto& p : pts) p = region.sample(rng);

  UnitDiskBuilder builder(1.4);
  const auto& g1 = builder.update(pts);
  std::vector<graph::Edge> before(g1.edges().begin(), g1.edges().end());

  for (auto& p : pts) p = region.sample(rng);  // every node teleports
  const auto& g2 = builder.update(pts);
  EXPECT_EQ(builder.last_moved_nodes(), pts.size());

  std::vector<graph::Edge> after(g2.edges().begin(), g2.edges().end());
  std::vector<graph::Edge> ups, downs;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(ups));
  std::set_difference(before.begin(), before.end(), after.begin(), after.end(),
                      std::back_inserter(downs));
  EXPECT_EQ(builder.links_up(), ups);
  EXPECT_EQ(builder.links_down(), downs);
}

TEST(UnitDisk, ConnectivityRadiusYieldsConnectedDeployments) {
  // Statistical check of the Gupta-Kumar rule: the connection probability
  // must increase toward 1 as the margin grows. Finite-n (300) disks fall
  // short of the asymptotic e^{-e^{-c}}, so the absolute thresholds are
  // deliberately forgiving while the monotonicity check is strict.
  common::Xoshiro256 rng(11);
  const int trials = 20;
  const Size n = 300;
  const double density = 1.0;
  const auto disk = geom::DiskRegion::with_density(n, density);

  auto connected_count = [&](double margin) {
    int connected = 0;
    const double radius = connectivity_radius(n, density, margin);
    for (int t = 0; t < trials; ++t) {
      std::vector<geom::Vec2> pts(n);
      for (auto& p : pts) p = disk.sample(rng);
      if (graph::is_connected(build_unit_disk_graph(pts, radius))) ++connected;
    }
    return connected;
  };

  const int at_low = connected_count(1.0);
  const int at_high = connected_count(6.0);
  EXPECT_GE(at_high, 17);
  EXPECT_GE(at_high, at_low);
}

TEST(UnitDiskIncremental, AnyMovedNodeRescansWithExactDelta) {
  // One update path: a tick on which any node moved rescans and reports the
  // exact raw delta, however few nodes moved; a tick on which none moved
  // does no work. "Moved" is an exact position change, so a node
  // re-assigned its own coordinates is unmoved.
  const double radius = 1.2;
  for (const Size n : {Size{5}, Size{8}, Size{100}}) {
    // Nodes on a line 0.5 apart: node 0 links to nodes 1 and 2.
    std::vector<geom::Vec2> pts(n);
    for (Size i = 0; i < n; ++i) pts[i] = {0.5 * static_cast<double>(i), 0.0};
    UnitDiskBuilder builder(radius);
    UnitDiskBuilder reference(radius);
    (void)builder.update(pts);
    EXPECT_TRUE(builder.last_full_rescan()) << "seeding update is a full rescan";
    const auto before = reference.build(pts);

    // Node 0 jumps past the far end (new neighbors n-1 and n-2); node 1 is
    // re-assigned its own coordinates.
    pts[0] = {0.5 * static_cast<double>(n), 0.0};
    pts[1] = geom::Vec2{pts[1].x, pts[1].y};
    const auto& got = builder.update(pts);
    EXPECT_EQ(builder.last_moved_nodes(), 1u) << "n=" << n;
    EXPECT_TRUE(builder.last_full_rescan()) << "n=" << n;
    EXPECT_TRUE(builder.changed()) << "n=" << n;
    const auto after = reference.build(pts);
    ASSERT_TRUE(std::equal(after.edges().begin(), after.edges().end(), got.edges().begin(),
                           got.edges().end()))
        << "n=" << n;

    std::vector<graph::Edge> ups, downs;
    std::set_difference(after.edges().begin(), after.edges().end(), before.edges().begin(),
                        before.edges().end(), std::back_inserter(ups));
    std::set_difference(before.edges().begin(), before.edges().end(), after.edges().begin(),
                        after.edges().end(), std::back_inserter(downs));
    const auto last = static_cast<NodeId>(n - 1);
    EXPECT_EQ(ups, (std::vector<graph::Edge>{{0, last - 1}, {0, last}})) << "n=" << n;
    EXPECT_EQ(downs, (std::vector<graph::Edge>{{0, 1}, {0, 2}})) << "n=" << n;
    EXPECT_EQ(builder.links_up(), ups) << "n=" << n;
    EXPECT_EQ(builder.links_down(), downs) << "n=" << n;

    (void)builder.update(pts);
    EXPECT_EQ(builder.last_moved_nodes(), 0u) << "n=" << n;
    EXPECT_FALSE(builder.last_full_rescan()) << "n=" << n;
    EXPECT_FALSE(builder.changed()) << "n=" << n;
    EXPECT_TRUE(builder.links_up().empty());
    EXPECT_TRUE(builder.links_down().empty());
  }
}

// Seeds a random n-node deployment, teleports its first k nodes and returns
// whether that update rescanned; also checks it reports k moved nodes, the
// graph build() gives and the exact raw delta.
bool rescanned_exactly_after_moving(Size n, Size k) {
  common::Xoshiro256 rng(17);
  const geom::DiskRegion region({0, 0}, 4.0);
  std::vector<geom::Vec2> pts(n);
  for (auto& p : pts) p = region.sample(rng);
  UnitDiskBuilder builder(1.2);
  UnitDiskBuilder reference(1.2);
  (void)builder.update(pts);
  EXPECT_TRUE(builder.last_full_rescan()) << "seeding update is a full rescan";
  const auto before = reference.build(pts);

  for (Size i = 0; i < k; ++i) pts[i] = region.sample(rng);
  const auto& got = builder.update(pts);
  EXPECT_EQ(builder.last_moved_nodes(), k) << "n=" << n;
  const auto after = reference.build(pts);
  EXPECT_TRUE(std::equal(after.edges().begin(), after.edges().end(), got.edges().begin(),
                         got.edges().end()))
      << "n=" << n << " k=" << k;

  std::vector<graph::Edge> ups, downs;
  std::set_difference(after.edges().begin(), after.edges().end(), before.edges().begin(),
                      before.edges().end(), std::back_inserter(ups));
  std::set_difference(before.edges().begin(), before.edges().end(), after.edges().begin(),
                      after.edges().end(), std::back_inserter(downs));
  EXPECT_EQ(builder.links_up(), ups) << "n=" << n << " k=" << k;
  EXPECT_EQ(builder.links_down(), downs) << "n=" << n << " k=" << k;
  return builder.last_full_rescan();
}

TEST(UnitDiskIncremental, RescanThresholdBoundaryIsExact) {
  // There is no moved-count threshold any more: exactly n/4 moved nodes and
  // one more both take the rescan, and both report the exact delta.
  EXPECT_TRUE(rescanned_exactly_after_moving(8, 2));
  EXPECT_TRUE(rescanned_exactly_after_moving(8, 3));
  EXPECT_TRUE(rescanned_exactly_after_moving(100, 25));
  EXPECT_TRUE(rescanned_exactly_after_moving(100, 26));
}

TEST(UnitDiskIncremental, RescanThresholdSmallOddCounts) {
  // Small odd n, where floor(n/4) = 1: moving one node or two rescans and
  // reports the exact delta alike.
  for (const Size n : {Size{5}, Size{6}, Size{7}}) {
    EXPECT_TRUE(rescanned_exactly_after_moving(n, 1)) << "n=" << n;
    EXPECT_TRUE(rescanned_exactly_after_moving(n, 2)) << "n=" << n;
  }
}

TEST(UnitDiskIncremental, ParallelUpdateMatchesSequential) {
  // The 16-shard pool builder and the default builder (one inline shard)
  // must yield byte-identical graphs and deltas under every motion regime —
  // sparse jiggles, frozen ticks (no rescan) and bulk drift — and both must
  // equal the stateless build().
  common::ThreadPool pool(4);
  sim::ShardExecutor exec(pool, sim::kDefaultShardCount);

  common::Xoshiro256 rng(73);
  const geom::DiskRegion region({0, 0}, 7.0);
  const double radius = 1.3;
  std::vector<geom::Vec2> pts(150);
  for (auto& p : pts) p = region.sample(rng);

  UnitDiskBuilder inline_builder(radius);
  UnitDiskBuilder parallel(radius);
  parallel.set_parallel(&exec);
  UnitDiskBuilder stateless(radius);

  for (int step = 0; step < 30; ++step) {
    if (step > 0) {
      const double frac = step % 7 == 0 ? 0.7 : (step % 3 == 0 ? 0.0 : 0.1);
      for (auto& p : pts) {
        if (common::uniform01(rng) >= frac) continue;
        p.x += common::uniform(rng, -0.5, 0.5);
        p.y += common::uniform(rng, -0.5, 0.5);
      }
    }
    const auto want = stateless.build(pts);
    const auto& got_inline = inline_builder.update(pts);
    const auto& got = parallel.update(pts);
    ASSERT_TRUE(std::equal(want.edges().begin(), want.edges().end(),
                           got_inline.edges().begin(), got_inline.edges().end()))
        << "inline builder diverged from build() at step " << step;
    ASSERT_TRUE(std::equal(want.edges().begin(), want.edges().end(),
                           got.edges().begin(), got.edges().end()))
        << "sharded builder diverged from build() at step " << step;
    ASSERT_EQ(inline_builder.last_full_rescan(), parallel.last_full_rescan())
        << "step " << step;
    ASSERT_EQ(inline_builder.links_up(), parallel.links_up()) << "step " << step;
    ASSERT_EQ(inline_builder.links_down(), parallel.links_down()) << "step " << step;
  }
}

}  // namespace
}  // namespace manet::net
