#include "lm/registration.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "cluster/hierarchy_builder.hpp"
#include "common/rng.hpp"
#include "geom/region.hpp"
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
  HandoffEngine servers;  ///< primed on h: the registration servers

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
    servers.prime(h, 0.0);
  }
};

/// \p w's graph clustered into at most \p levels levels above level 0.
cluster::Hierarchy capped(const World& w, Level levels) {
  cluster::HierarchyOptions options;
  options.max_levels = levels;
  return cluster::HierarchyBuilder(options).build(w.g);
}

RegistrationConfig config(double threshold = 0.5) {
  RegistrationConfig cfg;
  cfg.threshold = threshold;
  cfg.tx_radius = 2.2;
  return cfg;
}

TEST(Registration, NoMotionNoUpdates) {
  World w(250, 1);
  RegistrationTracker tracker(config());
  tracker.prime(w.h, w.pts, 0.0);
  const auto tick = tracker.update(w.h, w.servers, w.g, w.pts, 1.0);
  EXPECT_EQ(tick.updates, 0u);
  EXPECT_EQ(tick.packets, 0u);
  EXPECT_DOUBLE_EQ(tracker.rate(), 0.0);
}

TEST(Registration, SmallMotionBelowThresholdIsFree) {
  World w(250, 2);
  RegistrationTracker tracker(config(2.0));  // huge threshold
  tracker.prime(w.h, w.pts, 0.0);
  for (auto& p : w.pts) p = w.disk.clamp(p + geom::Vec2{0.1, 0.1});
  w.refresh();
  const auto tick = tracker.update(w.h, w.servers, w.g, w.pts, 1.0);
  EXPECT_EQ(tick.updates, 0u);
}

TEST(Registration, LargeMotionTriggersUpdatesAtEveryLevel) {
  World w(300, 3);
  RegistrationTracker tracker(config(0.2));
  tracker.prime(w.h, w.pts, 0.0);
  // Push everyone far: every level's threshold is crossed.
  for (auto& p : w.pts) p = w.disk.clamp(p + geom::Vec2{15.0, -9.0});
  w.refresh();
  const auto tick = tracker.update(w.h, w.servers, w.g, w.pts, 1.0);
  EXPECT_GT(tick.updates, 0u);
  EXPECT_GT(tick.packets, 0u);
  EXPECT_GT(tracker.rate(), 0.0);
  // Level-2 updates are the cheapest+most frequent; deeper levels rarer but
  // present after a global shove.
  EXPECT_GT(tracker.rate_at(2), 0.0);
}

TEST(Registration, PerLevelRatesDecayWithLevel) {
  World w(500, 4);
  RegistrationTracker tracker(config(0.5));
  tracker.prime(w.h, w.pts, 0.0);
  common::Xoshiro256 rng(5);
  for (int step = 1; step <= 30; ++step) {
    for (auto& p : w.pts) {
      p = w.disk.clamp(p + geom::Vec2{common::uniform(rng, -1, 1),
                                      common::uniform(rng, -1, 1)});
    }
    w.refresh();
    tracker.update(w.h, w.servers, w.g, w.pts, static_cast<Time>(step));
  }
  // Update *frequency* falls with level (distance thresholds grow as
  // sqrt(c_k)); packet rates stay comparable because path length grows to
  // match — the same cancellation as the handoff analysis. Verify the
  // level-2 packet rate at least matches deeper levels within a factor.
  const double r2 = tracker.rate_at(2);
  ASSERT_GT(r2, 0.0);
  for (Level k = 3; k < tracker.levels_tracked(); ++k) {
    EXPECT_LT(tracker.rate_at(k), 3.0 * r2) << "level " << k;
  }
}

TEST(Registration, ThresholdControlsUpdateVolume) {
  World w(300, 6);
  RegistrationTracker tight(config(0.25));
  RegistrationTracker loose(config(1.0));
  tight.prime(w.h, w.pts, 0.0);
  loose.prime(w.h, w.pts, 0.0);
  common::Xoshiro256 rng(7);
  for (int step = 1; step <= 20; ++step) {
    for (auto& p : w.pts) {
      const geom::Vec2 d{common::uniform(rng, -1, 1), common::uniform(rng, -1, 1)};
      p = w.disk.clamp(p + d);
    }
    w.refresh();
    tight.update(w.h, w.servers, w.g, w.pts, static_cast<Time>(step));
    loose.update(w.h, w.servers, w.g, w.pts, static_cast<Time>(step));
  }
  EXPECT_GT(tight.total_updates(), loose.total_updates());
}

TEST(Registration, UpdatesGoToTheEnginesServersAsLevelsComeAndGo) {
  // One graph clustered with level 3 absent, present, absent, present. Each
  // tick moves every node far past every threshold, so every tracked
  // (owner, level) fires: levels [2, min(highest top seen before the tick,
  // the tick's top)], since a newly appearing level starts at the current
  // position. Each update must cost hops(owner, select_server(h, owner, k)).
  World w(400, 9);
  const cluster::Hierarchy two = capped(w, 2);
  const cluster::Hierarchy three = capped(w, 3);
  ASSERT_EQ(two.top_level(), 2u);
  ASSERT_EQ(three.top_level(), 3u);

  HandoffEngine engine;
  RegistrationTracker tracker(config());
  engine.prime(two, 0.0);
  tracker.prime(two, w.pts, 0.0);
  graph::BfsPairScratch bfs;
  Level seen = two.top_level();
  const cluster::Hierarchy* sequence[] = {&three, &two, &three, &three};
  for (Size step = 1; step <= std::size(sequence); ++step) {
    const cluster::Hierarchy& h = *sequence[step - 1];
    const auto t = static_cast<Time>(step);
    std::vector<geom::Vec2> moved = w.pts;
    for (auto& p : moved) p += geom::Vec2{1000.0 * t, 0.0};
    engine.update(h, w.g, t);
    const auto tick = tracker.update(h, engine, w.g, moved, t);

    PacketCount packets = 0;
    Size updates = 0;
    for (Level k = kFirstServedLevel; k <= std::min(seen, h.top_level()); ++k) {
      for (NodeId v = 0; v < w.g.vertex_count(); ++v) {
        const NodeId server = select_server(h, v, k);
        packets += v == server ? 0 : bfs.hops(w.g, v, server);
        ++updates;
      }
    }
    EXPECT_EQ(tick.updates, updates) << "step " << step;
    EXPECT_EQ(tick.packets, packets) << "step " << step;
    seen = std::max(seen, h.top_level());
  }
  EXPECT_GT(tracker.rate_at(3), 0.0);  // level 3 fired after it came back
}

TEST(RegistrationDeath, UpdateBeforePrime) {
  World w(100, 8);
  RegistrationTracker tracker(config());
  EXPECT_DEATH(tracker.update(w.h, w.servers, w.g, w.pts, 1.0), "prime");
}

TEST(RegistrationDeath, RefusesAnEngineOnAnotherHierarchy) {
  World w(300, 10);
  ASSERT_GE(w.h.top_level(), 3u);
  RegistrationTracker tracker(config());
  tracker.prime(w.h, w.pts, 0.0);
  const World other(320, 10);
  EXPECT_DEATH(tracker.update(w.h, other.servers, w.g, w.pts, 1.0), "another hierarchy");
  HandoffEngine lower;
  lower.prime(capped(w, w.h.top_level() - 1), 0.0);
  EXPECT_DEATH(tracker.update(w.h, lower, w.g, w.pts, 1.0), "another hierarchy");
  HandoffEngine unprimed;
  EXPECT_DEATH(tracker.update(w.h, unprimed, w.g, w.pts, 1.0), "another hierarchy");
}

}  // namespace
}  // namespace manet::lm
