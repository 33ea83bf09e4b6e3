#include "lm/handoff.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cluster/hierarchy_builder.hpp"
#include "common/rng.hpp"
#include "geom/region.hpp"
#include "mobility/random_waypoint.hpp"
#include "net/unit_disk.hpp"

namespace manet::lm {
namespace {

struct World {
  geom::DiskRegion disk{geom::Vec2{0, 0}, 1.0};
  std::vector<geom::Vec2> pts;
  net::UnitDiskBuilder builder{2.2, true};
  cluster::HierarchyBuilder hb;
  graph::Graph g{0};
  cluster::Hierarchy h;

  explicit World(Size n, std::uint64_t seed)
      : disk(geom::DiskRegion::with_density(n, 1.0)) {
    common::Xoshiro256 rng(seed);
    pts.resize(n);
    for (auto& p : pts) p = disk.sample(rng);
    refresh();
  }

  void refresh() {
    g = builder.build(pts);
    h = hb.build(g);
  }
};

TEST(HandoffEngine, NoTopologyChangeMeansNoCost) {
  World w(250, 1);
  HandoffEngine engine;
  engine.prime(w.h, 0.0);
  const auto tick = engine.update(w.h, w.g, 1.0);
  EXPECT_EQ(tick.phi_packets, 0u);
  EXPECT_EQ(tick.gamma_packets, 0u);
  EXPECT_EQ(tick.entries_moved, 0u);
  EXPECT_DOUBLE_EQ(engine.phi_rate(), 0.0);
}

TEST(HandoffEngine, PrimePopulatesDatabase) {
  World w(300, 2);
  HandoffEngine engine;
  engine.prime(w.h, 0.0);
  Level top = w.h.top_level();
  ASSERT_GE(top, 2u);
  EXPECT_EQ(engine.database().total_entries(),
            w.g.vertex_count() * (top - kFirstServedLevel + 1));
}

TEST(HandoffEngine, DatabaseStaysConsistentWithAssignments) {
  World w(300, 3);
  HandoffEngine engine;
  engine.prime(w.h, 0.0);

  common::Xoshiro256 rng(4);
  for (int step = 1; step <= 5; ++step) {
    // Perturb ~5% of nodes.
    for (Size v = 0; v < w.pts.size(); v += 20) {
      w.pts[v] += {common::uniform(rng, -1.5, 1.5), common::uniform(rng, -1.5, 1.5)};
      w.pts[v] = w.disk.clamp(w.pts[v]);
    }
    w.refresh();
    engine.update(w.h, w.g, static_cast<Time>(step));

    // Invariant: the database holds exactly one record per (owner, level)
    // at the currently selected server.
    ServerSelectConfig cfg;  // engine default
    Size expected = 0;
    for (NodeId owner = 0; owner < w.g.vertex_count(); ++owner) {
      for (Level k = kFirstServedLevel; k <= w.h.top_level(); ++k) {
        const NodeId server = select_server(w.h, owner, k, cfg);
        const auto* rec = engine.database().find(server, owner, k);
        ASSERT_NE(rec, nullptr) << "missing record owner=" << owner << " level=" << k
                                << " step=" << step;
        ++expected;
      }
    }
    EXPECT_EQ(engine.database().total_entries(), expected);
  }
}

TEST(HandoffEngine, MovementProducesPhiAndGamma) {
  World w(400, 5);
  HandoffEngine engine;
  engine.prime(w.h, 0.0);
  mobility::RandomWaypoint model(w.disk, 0, mobility::RandomWaypoint::Params::fixed_speed(1.0),
                                 6);  // unused; we perturb manually for determinism
  common::Xoshiro256 rng(7);
  for (int step = 1; step <= 10; ++step) {
    for (auto& p : w.pts) {
      p += {common::uniform(rng, -1.0, 1.0), common::uniform(rng, -1.0, 1.0)};
      p = w.disk.clamp(p);
    }
    w.refresh();
    engine.update(w.h, w.g, static_cast<Time>(step));
  }
  EXPECT_GT(engine.total_phi(), 0u);
  EXPECT_GT(engine.total_gamma(), 0u);
  EXPECT_GT(engine.phi_rate(), 0.0);
  EXPECT_GT(engine.gamma_rate(), 0.0);
  // Per-level rates must sum to the totals.
  double phi_sum = 0.0, gamma_sum = 0.0;
  for (Level k = 0; k < engine.per_level().size(); ++k) {
    phi_sum += engine.phi_rate_at(k);
    gamma_sum += engine.gamma_rate_at(k);
  }
  EXPECT_NEAR(phi_sum, engine.phi_rate(), 1e-9);
  EXPECT_NEAR(gamma_sum, engine.gamma_rate(), 1e-9);
}

TEST(HandoffEngine, MigrationCountsTrackAncestorChanges) {
  World w(250, 10);
  HandoffEngine engine;
  engine.prime(w.h, 0.0);
  const auto before = w.h;
  // Move a block of nodes far across the region.
  for (Size v = 0; v < 25; ++v) w.pts[v] = w.disk.clamp(w.pts[v] + geom::Vec2{8.0, 8.0});
  w.refresh();
  engine.update(w.h, w.g, 1.0);

  Size expected = 0;
  const Level common_top = std::min(before.top_level(), w.h.top_level());
  for (NodeId v = 0; v < w.g.vertex_count(); ++v) {
    for (Level k = 1; k <= common_top; ++k) {
      if (before.ancestor_id(v, k) != w.h.ancestor_id(v, k)) ++expected;
    }
  }
  Size measured = 0;
  for (Level k = 1; k <= common_top; ++k) measured += engine.migration_count(k);
  EXPECT_EQ(measured, expected);
}

TEST(HandoffEngine, ElapsedTracksUpdates) {
  World w(150, 11);
  HandoffEngine engine;
  engine.prime(w.h, 5.0);
  engine.update(w.h, w.g, 7.5);
  EXPECT_DOUBLE_EQ(engine.elapsed(), 2.5);
}

TEST(HandoffEngineDeath, UpdateBeforePrime) {
  World w(100, 12);
  HandoffEngine engine;
  EXPECT_DEATH(engine.update(w.h, w.g, 1.0), "prime");
}

TEST(HandoffEngineDeath, TimeMustBeMonotone) {
  World w(100, 13);
  HandoffEngine engine;
  engine.prime(w.h, 5.0);
  EXPECT_DEATH(engine.update(w.h, w.g, 4.0), "monotone");
}

}  // namespace
}  // namespace manet::lm
