// The CHLM assignment table (paper Section 3.2) as a primed HandoffEngine
// holds it, and the location-query cost read off the same hierarchy.

#include <gtest/gtest.h>

#include <vector>

#include "cluster/hierarchy_builder.hpp"
#include "common/rng.hpp"
#include "geom/region.hpp"
#include "graph/bfs.hpp"
#include "lm/address.hpp"
#include "lm/handoff.hpp"
#include "net/unit_disk.hpp"

namespace manet::lm {
namespace {

struct Fixture {
  std::vector<geom::Vec2> pts;
  graph::Graph g{0};
  cluster::Hierarchy h;
};

Fixture make(Size n, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  const auto disk = geom::DiskRegion::with_density(n, 1.0);
  Fixture f;
  f.pts.resize(n);
  for (auto& p : f.pts) p = disk.sample(rng);
  net::UnitDiskBuilder builder(2.2, true);
  f.g = builder.build(f.pts);
  f.h = cluster::HierarchyBuilder().build(f.g);
  return f;
}

Size served_levels(const HandoffEngine& engine) {
  const Level top = engine.top_level();
  return top >= kFirstServedLevel ? top - kFirstServedLevel + 1 : 0;
}

TEST(Chlm, RebuildPopulatesAllServedLevels) {
  // Re-priming on another snapshot replaces the whole table.
  const auto first = make(120, 10);
  const auto f = make(300, 1);
  HandoffEngine engine;
  engine.prime(first.h, 0.0);
  engine.prime(f.h, 1.0);
  ASSERT_GE(engine.top_level(), 2u);
  EXPECT_EQ(engine.node_count(), f.g.vertex_count());
  const Size expected = f.g.vertex_count() * served_levels(engine);
  EXPECT_EQ(engine.database().total_entries(), expected);
}

TEST(Chlm, ServerOfMatchesDatabaseContents) {
  const auto f = make(250, 2);
  HandoffEngine engine;
  engine.prime(f.h, 7.0);
  for (NodeId owner = 0; owner < f.g.vertex_count(); owner += 5) {
    for (Level k = kFirstServedLevel; k <= engine.top_level(); ++k) {
      const NodeId server = engine.current_server(owner, k);
      ASSERT_NE(server, kInvalidNode);
      EXPECT_EQ(server, select_server(f.h, owner, k));
      const auto* rec = engine.database().find(server, owner, k);
      ASSERT_NE(rec, nullptr);
      EXPECT_DOUBLE_EQ(rec->updated, 7.0);
    }
  }
}

TEST(Chlm, OutOfRangeLevelsReturnInvalid) {
  const auto f = make(200, 3);
  HandoffEngine engine;
  EXPECT_EQ(engine.current_server(0, kFirstServedLevel), kInvalidNode);  // unprimed
  engine.prime(f.h, 0.0);
  EXPECT_EQ(engine.current_server(0, 0), kInvalidNode);
  EXPECT_EQ(engine.current_server(0, 1), kInvalidNode);
  EXPECT_EQ(engine.current_server(0, engine.top_level() + 1), kInvalidNode);
  EXPECT_EQ(engine.current_server(static_cast<NodeId>(f.g.vertex_count()), kFirstServedLevel),
            kInvalidNode);
}

TEST(Chlm, EntriesPerNodeIsLogarithmic) {
  // Paper Section 3.2: each node serves Theta(log|V|) peers on average.
  const auto small = make(200, 4);
  HandoffEngine s1;
  s1.prime(small.h, 0.0);
  const double e_small = static_cast<double>(s1.database().total_entries()) / 200.0;

  const auto large = make(1600, 5);
  HandoffEngine s2;
  s2.prime(large.h, 0.0);
  const double e_large = static_cast<double>(s2.database().total_entries()) / 1600.0;

  EXPECT_GT(e_large, e_small);          // grows with n ...
  EXPECT_LT(e_large, e_small * 3.0);    // ... but far slower than 8x
  EXPECT_LT(e_large, 15.0);             // absolute sanity: ~L-1 entries
}

TEST(Chlm, QueryCostZeroForSelf) {
  const auto f = make(150, 6);
  EXPECT_EQ(query_cost(f.h, f.g, 3, 3), 0u);
}

TEST(Chlm, QueryCostBoundedByNetworkScale) {
  const auto f = make(300, 7);
  graph::BfsScratch bfs;
  common::Xoshiro256 rng(8);
  double total_query = 0.0, total_direct = 0.0;
  int samples = 0;
  for (int i = 0; i < 60; ++i) {
    const auto u = static_cast<NodeId>(common::uniform_index(rng, 300));
    const auto v = static_cast<NodeId>(common::uniform_index(rng, 300));
    if (u == v) continue;
    const auto cost = query_cost(f.h, f.g, u, v);
    bfs.run(f.g, u);
    const auto direct = bfs.hops_to(v);
    ASSERT_NE(direct, graph::kUnreachable);
    total_query += static_cast<double>(cost);
    total_direct += direct;
    EXPECT_GE(cost + 2, static_cast<PacketCount>(0));
    ++samples;
  }
  ASSERT_GT(samples, 30);
  // The paper argues query cost is the same order as the direct hop count;
  // allow a generous constant factor.
  EXPECT_LT(total_query, 6.0 * total_direct + 10.0 * samples);
}

TEST(Chlm, RebuildIsIdempotent) {
  const auto f = make(200, 9);
  HandoffEngine a, b;
  a.prime(f.h, 0.0);
  b.prime(f.h, 0.0);
  b.prime(f.h, 0.0);
  for (NodeId owner = 0; owner < 200; owner += 7) {
    for (Level k = kFirstServedLevel; k <= a.top_level(); ++k) {
      EXPECT_EQ(a.current_server(owner, k), b.current_server(owner, k));
    }
  }
  EXPECT_EQ(a.database().total_entries(), b.database().total_entries());
}

TEST(Chlm, ServedLevelsZeroForFlatHierarchy) {
  // A 2-node network aggregates in one level: no level-2 servers exist.
  const graph::Graph g(2, std::vector<graph::Edge>{{0, 1}});
  const auto h = cluster::HierarchyBuilder().build(g);
  HandoffEngine engine;
  engine.prime(h, 0.0);
  EXPECT_EQ(served_levels(engine), 0u);
  EXPECT_EQ(engine.current_server(0, kFirstServedLevel), kInvalidNode);
  EXPECT_EQ(engine.database().total_entries(), 0u);
}

}  // namespace
}  // namespace manet::lm
