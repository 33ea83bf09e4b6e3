#include "net/hop_oracle.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "geom/region.hpp"
#include "graph/bfs.hpp"
#include "net/radio.hpp"
#include "net/unit_disk.hpp"
#include "sim/shard.hpp"

namespace manet::net {
namespace {

using graph::Edge;
using graph::Graph;

/// Oracle vs reference pair BFS over a deterministic sample of pairs.
void expect_matches_bfs(HopOracle& oracle, const Graph& g, std::uint64_t seed,
                        Size pairs) {
  graph::BfsPairScratch ref;
  common::Xoshiro256 rng(seed);
  const Size n = g.vertex_count();
  for (Size i = 0; i < pairs; ++i) {
    const NodeId s = static_cast<NodeId>(common::uniform_index(rng, n));
    const NodeId t = static_cast<NodeId>(common::uniform_index(rng, n));
    ASSERT_EQ(oracle.hops(s, t), ref.hops(g, s, t)) << "s=" << s << " t=" << t;
  }
}

Graph random_deployment(Size n, double radius, bool ensure_connected,
                        std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  const auto region = geom::DiskRegion::with_density(n, 1.0);
  std::vector<geom::Vec2> positions(n);
  for (auto& p : positions) p = region.sample(rng);
  UnitDiskBuilder builder(radius, ensure_connected);
  return builder.build(positions);
}

/// The pair counts that select each table width on \p g: 16 landmarks below
/// n / 2 distinct pairs, 32 from there on.
std::vector<Size> both_widths(const Graph& g) { return {0, g.vertex_count()}; }

/// A connected n = 4096 deployment at the simulator's default connectivity
/// radius (margin 3.5). Its diameter (about 45 hops) clears both depth
/// probes of prepare(), so hops() runs landmark A* for every pair whose
/// lower bound reaches the near cutoff.
Graph deep_deployment() {
  const Size n = 4096;
  return random_deployment(n, connectivity_radius(n, 1.0, 3.5), /*ensure_connected=*/true, 23);
}

/// Oracle vs reference over uniform pairs plus, for a sample of sources,
/// the farthest vertex of each — near-diameter pairs whose A* searches
/// cross the whole f = d tie band.
void expect_matches_bfs_with_far_pairs(HopOracle& oracle, const Graph& g,
                                       std::uint64_t seed, Size pairs, Size far_sources) {
  expect_matches_bfs(oracle, g, seed, pairs);
  graph::BfsScratch sweep;
  graph::BfsPairScratch ref;
  common::Xoshiro256 rng(seed + 1);
  for (Size i = 0; i < far_sources; ++i) {
    const auto s = static_cast<NodeId>(common::uniform_index(rng, g.vertex_count()));
    const auto dist = sweep.run(g, s);
    NodeId far = s;
    for (NodeId v = 0; v < dist.size(); ++v) {
      if (dist[v] != graph::kUnreachable && dist[v] > dist[far]) far = v;
    }
    ASSERT_EQ(oracle.hops(s, far), dist[far]) << "s=" << s << " far=" << far;
    ASSERT_EQ(oracle.hops(far, s), ref.hops(g, far, s)) << "far=" << far << " s=" << s;
  }
}

TEST(HopOracle, MatchesPairBfsOnRandomDeployments) {
  for (const Size n : {40u, 250u, 800u}) {
    const Graph g = random_deployment(n, 2.2, /*ensure_connected=*/false, 7 + n);
    HopOracle oracle;
    oracle.prepare(g);
    expect_matches_bfs(oracle, g, 100 + n, 400);
  }
}

TEST(HopOracle, MatchesPairBfsOnBridgedSparseDeployment) {
  // A sparse radius fragments the raw unit-disk graph; connectivity
  // augmentation splices long bridge edges back in. The landmark bound is
  // purely graph-theoretic, so it must stay exact across those bridges.
  const Graph g = random_deployment(300, 1.1, /*ensure_connected=*/true, 17);
  HopOracle oracle;
  oracle.prepare(g);
  expect_matches_bfs(oracle, g, 18, 600);
}

TEST(HopOracle, ExactInActiveModeOnDeepGraph) {
  // A long path guarantees eccentricity far above the shallow-graph cutoff,
  // so this exercises the landmark A* route (and its near-query dispatch)
  // rather than the pass-through mode, at both table widths.
  const Size n = 120;
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  const Graph g(n, edges);
  for (const Size pairs : both_widths(g)) {
    HopOracle oracle;
    oracle.prepare(g, pairs);
    graph::BfsPairScratch ref;
    for (NodeId s = 0; s < n; s += 7) {
      for (NodeId t = 0; t < n; t += 11) {
        ASSERT_EQ(oracle.hops(s, t), ref.hops(g, s, t)) << "s=" << s << " t=" << t;
      }
    }
    EXPECT_EQ(oracle.hops(0, n - 1), n - 1);
    EXPECT_EQ(oracle.hops(5, 5), 0u);
  }
}

TEST(HopOracle, ExactWhereHopDistancesTieOnADeepDeployment) {
  // On a unit-disk graph most vertices near an s-t corridor share the
  // minimum A* key, so the order in which the bucket queue pops them is
  // exercised on every far query. Any order must return the BFS distance,
  // on the 16- and the 32-landmark table alike.
  const Graph g = deep_deployment();
  for (const Size pairs : both_widths(g)) {
    HopOracle oracle;
    oracle.prepare(g, pairs);
    expect_matches_bfs_with_far_pairs(oracle, g, 24, 2000, 200);
  }
}

TEST(HopOracle, PoolPrepareAnswersLikeInline) {
  // The round-2 sweeps run as tasks on the executor's shards, each thread
  // sweeping into its own column: a pool-built table must answer every
  // query exactly as the inline one does, at any thread count and width.
  const Graph g = deep_deployment();
  const Size n = g.vertex_count();
  for (const Size pairs : both_widths(g)) {
    HopOracle reference;
    reference.prepare(g, pairs);
    for (const Size threads : {1u, 4u, 7u}) {
      common::ThreadPool pool(threads);
      const sim::ShardExecutor exec(pool, sim::resolve_shard_count(0, threads));
      HopOracle oracle;
      oracle.prepare(g, pairs, exec);
      common::Xoshiro256 rng(28 + threads);
      for (Size i = 0; i < 300; ++i) {
        const auto s = static_cast<NodeId>(common::uniform_index(rng, n));
        const auto t = static_cast<NodeId>(common::uniform_index(rng, n));
        ASSERT_EQ(oracle.hops(s, t), reference.hops(s, t))
            << "threads=" << threads << " pairs=" << pairs << " s=" << s << " t=" << t;
      }
    }
  }
}

TEST(HopOracle, ExactWithVertexZeroAndMinorComponentsStripped) {
  // The fault plane strips crashed vertices to degree 0, vertex 0 included.
  // Cut every edge between a 5 % subset (vertex 0 among them) and the rest:
  // the subset falls apart into isolated vertices and minor components. The
  // landmarks start in the main component, and every cross-component pair
  // reads kUnreachable.
  const Graph deep = deep_deployment();
  const Size n = deep.vertex_count();
  std::vector<std::uint8_t> cut(n, 0);
  cut[0] = 1;
  common::Xoshiro256 rng(25);
  for (Size i = 0; i < n / 20; ++i) cut[common::uniform_index(rng, n)] = 1;
  std::vector<Edge> edges;
  for (const auto& [u, v] : deep.edges()) {
    if (cut[u] == cut[v]) edges.emplace_back(u, v);
  }
  const Graph g(n, edges);
  ASSERT_EQ(g.degree(0), 0u);
  for (const Size pairs : both_widths(g)) {
    HopOracle oracle;
    oracle.prepare(g, pairs);
    expect_matches_bfs_with_far_pairs(oracle, g, 26, 2000, 200);
    graph::BfsPairScratch ref;
    for (NodeId v = 0; v < n; v += 97) {
      ASSERT_EQ(oracle.hops(0, v), ref.hops(g, 0, v)) << "v=" << v;
    }
  }
}

TEST(HopOracle, ExactOnADeepComponentSmallerThanTheTable) {
  // A 30-vertex component deep enough to arm the table (a 28-vertex path
  // whose end carries two leaves, so that end is the highest-degree start),
  // beside a 70 000-vertex path holding vertex 0. A 32-landmark table runs
  // out of uncovered vertices after 30 picks; the remaining slots must stay
  // inside the component (vertex 0's sweep would reach 69 999 hops, past
  // what a 16-bit row holds), and every query stays exact.
  const NodeId path = 70000;
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < path; ++v) edges.emplace_back(v, v + 1);
  for (NodeId i = 0; i + 1 < 28; ++i) edges.emplace_back(path + i, path + i + 1);
  edges.emplace_back(path, path + 28);
  edges.emplace_back(path, path + 29);
  const Graph g(path + 30, edges);
  for (const Size pairs : both_widths(g)) {
    HopOracle oracle;
    oracle.prepare(g, pairs);
    graph::BfsPairScratch ref;
    for (NodeId s = path; s < path + 30; ++s) {
      for (NodeId t = path; t < path + 30; ++t) {
        ASSERT_EQ(oracle.hops(s, t), ref.hops(g, s, t)) << "s=" << s << " t=" << t;
      }
      ASSERT_EQ(oracle.hops(s, 0), graph::kUnreachable) << "s=" << s;
    }
    EXPECT_EQ(oracle.hops(path + 27, path + 28), 28u);
    EXPECT_EQ(oracle.hops(0, path - 1), path - 1);
    EXPECT_EQ(oracle.hops(12345, 40), 12305u);
  }
}

TEST(HopOracle, ExactOnAPathTooDeepForSixteenBitRows) {
  // A 70 000-vertex path: the first sweep (from vertex 1, the lowest-id
  // vertex of the highest degree) reaches 69 998 hops, so later sweeps could
  // reach twice that, past what a 16-bit landmark row holds. prepare() leaves
  // the oracle in pass-through mode and each query runs bidirectional BFS.
  const Size n = 70000;
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  const Graph g(n, edges);
  for (const Size pairs : both_widths(g)) {
    HopOracle oracle;
    oracle.prepare(g, pairs);
    EXPECT_EQ(oracle.hops(0, n - 1), n - 1);
    EXPECT_EQ(oracle.hops(n - 1, 1), n - 2);
    EXPECT_EQ(oracle.hops(65535, 0), 65535u);
    expect_matches_bfs(oracle, g, 27, 40);
  }
}

TEST(HopOracle, UnreachableAcrossComponents) {
  // Two far-apart cliques, no augmentation: cross-component queries must
  // report kUnreachable, same-component queries stay exact. Also covers
  // minor components that contain no landmark.
  std::vector<Edge> edges;
  for (NodeId u = 0; u < 6; ++u) {
    for (NodeId v = u + 1; v < 6; ++v) edges.emplace_back(u, v);
  }
  edges.emplace_back(6, 7);
  edges.emplace_back(7, 8);
  const Graph g(9, edges);
  HopOracle oracle;
  oracle.prepare(g);
  graph::BfsPairScratch ref;
  for (NodeId s = 0; s < 9; ++s) {
    for (NodeId t = 0; t < 9; ++t) {
      ASSERT_EQ(oracle.hops(s, t), ref.hops(g, s, t)) << "s=" << s << " t=" << t;
    }
  }
  EXPECT_EQ(oracle.hops(0, 8), graph::kUnreachable);
  EXPECT_EQ(oracle.hops(6, 8), 2u);
}

TEST(HopOracle, FewerVerticesThanLandmarks) {
  std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 3}, {3, 4}};
  const Graph g(5, edges);
  for (const Size pairs : both_widths(g)) {
    HopOracle oracle;
    oracle.prepare(g, pairs);
    graph::BfsPairScratch ref;
    for (NodeId s = 0; s < 5; ++s) {
      for (NodeId t = 0; t < 5; ++t) {
        ASSERT_EQ(oracle.hops(s, t), ref.hops(g, s, t)) << "s=" << s << " t=" << t;
      }
    }
  }
}

TEST(HopOracle, RePrepareRebindsToNewGraph) {
  // The per-tick usage pattern: prepare on this tick's graph invalidates
  // everything learned from the previous one.
  const Graph g1 = random_deployment(200, 2.2, false, 5);
  const Graph g2 = random_deployment(200, 1.8, false, 6);
  HopOracle oracle;
  EXPECT_FALSE(oracle.ready());
  oracle.prepare(g1);
  EXPECT_TRUE(oracle.ready());
  expect_matches_bfs(oracle, g1, 50, 200);
  oracle.prepare(g2);
  expect_matches_bfs(oracle, g2, 51, 200);
}

}  // namespace
}  // namespace manet::net
