#include "net/link_tracker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "geom/region.hpp"
#include "mobility/random_waypoint.hpp"
#include "net/unit_disk.hpp"
#include "sim/shard.hpp"

namespace manet::net {
namespace {

using graph::Edge;
using graph::Graph;

TEST(EdgeDifference, BasicSetDifference) {
  const std::vector<Edge> a{{0, 1}, {1, 2}, {2, 3}};
  const std::vector<Edge> b{{1, 2}};
  const auto diff = edge_difference(a, b);
  EXPECT_EQ(diff, (std::vector<Edge>{{0, 1}, {2, 3}}));
  EXPECT_TRUE(edge_difference(b, b).empty());
}

TEST(LinkTracker, DetectsLinkUpAndDown) {
  const Graph g1(4, std::vector<Edge>{{0, 1}, {1, 2}});
  const Graph g2(4, std::vector<Edge>{{1, 2}, {2, 3}});
  LinkTracker tracker(g1, 0.0);
  const auto delta = tracker.update(g2, 1.0);
  EXPECT_EQ(delta.up, (std::vector<Edge>{{2, 3}}));
  EXPECT_EQ(delta.down, (std::vector<Edge>{{0, 1}}));
  EXPECT_EQ(delta.event_count(), 2u);
  EXPECT_EQ(tracker.total_events(), 2u);
}

TEST(LinkTracker, NoChangeMeansNoEvents) {
  const Graph g(3, std::vector<Edge>{{0, 1}});
  LinkTracker tracker(g, 0.0);
  const auto delta = tracker.update(g, 1.0);
  EXPECT_EQ(delta.event_count(), 0u);
}

TEST(LinkTracker, RatePerNodePerSecond) {
  const Graph g1(10, std::vector<Edge>{});
  const Graph g2(10, std::vector<Edge>{{0, 1}, {2, 3}});
  LinkTracker tracker(g1, 0.0);
  tracker.update(g2, 2.0);  // 2 events over 10 nodes in 2 s
  EXPECT_DOUBLE_EQ(tracker.events_per_node_per_second(), 0.1);
}

TEST(LinkTracker, AccumulatesAcrossUpdates) {
  const Graph g1(4, std::vector<Edge>{});
  const Graph g2(4, std::vector<Edge>{{0, 1}});
  const Graph g3(4, std::vector<Edge>{{2, 3}});
  LinkTracker tracker(g1, 0.0);
  tracker.update(g2, 1.0);
  tracker.update(g3, 2.0);  // one down, one up
  EXPECT_EQ(tracker.total_events(), 3u);
  EXPECT_DOUBLE_EQ(tracker.elapsed(), 2.0);
}

TEST(LinkTracker, F0IsSpeedProportional) {
  // Paper eq. (4): link event frequency scales as mu / R_TX; doubling node
  // speed should roughly double f0 under random waypoint.
  const geom::DiskRegion disk = geom::DiskRegion::with_density(200, 1.0);
  const double radius = 2.0;

  auto measure_f0 = [&](double mu) {
    mobility::RandomWaypoint model(disk, 200,
                                   mobility::RandomWaypoint::Params::fixed_speed(mu), 99);
    UnitDiskBuilder builder(radius);
    LinkTracker tracker(builder.build(model.positions()), 0.0);
    for (Time t = 1.0; t <= 60.0; t += 1.0) {
      model.advance_to(t);
      tracker.update(builder.build(model.positions()), t);
    }
    return tracker.events_per_node_per_second();
  };

  const double f_slow = measure_f0(0.5);
  const double f_fast = measure_f0(1.0);
  EXPECT_GT(f_fast, f_slow * 1.5);
  EXPECT_LT(f_fast, f_slow * 2.6);
}

TEST(LinkTrackerDeath, NodeCountMismatch) {
  const Graph g1(4, std::vector<Edge>{});
  const Graph g2(5, std::vector<Edge>{});
  LinkTracker tracker(g1, 0.0);
  EXPECT_DEATH(tracker.update(g2, 1.0), "node count");
}

TEST(LinkTrackerDeath, TimeMustBeMonotone) {
  const Graph g(4, std::vector<Edge>{});
  LinkTracker tracker(g, 5.0);
  EXPECT_DEATH(tracker.update(g, 4.0), "monotone");
}

TEST(ShardedEdgeDiff, MatchesSetDifferenceOnRandomLists) {
  // a \ b must be byte-identical to std::set_difference for every list
  // shape: empty, shorter than the shard count, and much longer. Sorted
  // unique inputs are the contract (canonical edge lists).
  common::ThreadPool pool(3);
  sim::ShardExecutor exec(pool, sim::kDefaultShardCount);
  ShardedEdgeDiff diff;
  common::Xoshiro256 rng(29);

  for (const Size len_a : {Size{0}, Size{1}, Size{7}, Size{500}, Size{4000}}) {
    for (const Size len_b : {Size{0}, Size{5}, Size{900}}) {
      auto make = [&](Size len) {
        std::vector<Edge> edges;
        edges.reserve(len);
        for (Size i = 0; i < len; ++i) {
          const auto u = static_cast<NodeId>(common::uniform_index(rng, 64));
          const auto v = static_cast<NodeId>(common::uniform_index(rng, 64));
          if (u != v) edges.emplace_back(std::min(u, v), std::max(u, v));
        }
        std::sort(edges.begin(), edges.end());
        edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
        return edges;
      };
      const auto a = make(len_a);
      const auto b = make(len_b);
      std::vector<Edge> want;
      std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(want));
      std::vector<Edge> got;
      diff.run(a, b, exec, got);
      EXPECT_EQ(want, got) << "len_a=" << len_a << " len_b=" << len_b;
    }
  }
}

TEST(LinkTracker, ParallelDeltaMatchesSequential) {
  // Same snapshots through the default tracker (one inline shard) and a
  // pool-attached one: both deltas must equal the edge_difference reference
  // over consecutive snapshots, and the running counters must agree.
  common::ThreadPool pool(2);
  sim::ShardExecutor exec(pool, sim::kDefaultShardCount);

  const auto region = geom::DiskRegion::with_density(120, 1.0);
  mobility::RandomWaypoint walk(region, 120,
                                mobility::RandomWaypoint::Params{0.5, 1.5, 0.0},
                                555);
  UnitDiskBuilder disk(1.5);

  const auto& g0 = disk.update(walk.positions());
  std::vector<Edge> prev(g0.edges().begin(), g0.edges().end());
  LinkTracker inline_tracker(g0, 0.0);
  LinkTracker parallel(g0, 0.0);
  parallel.set_parallel(&exec);

  LinkDelta di, dp;
  Size reference_events = 0;
  for (int step = 1; step <= 12; ++step) {
    walk.advance_to(static_cast<Time>(step));
    const auto& g = disk.update(walk.positions());
    const auto want_up = edge_difference(g.edges(), prev);
    const auto want_down = edge_difference(prev, g.edges());
    reference_events += want_up.size() + want_down.size();
    prev.assign(g.edges().begin(), g.edges().end());
    inline_tracker.update_into(g, static_cast<Time>(step), di);
    parallel.update_into(g, static_cast<Time>(step), dp);
    ASSERT_EQ(want_up, di.up) << "step " << step;
    ASSERT_EQ(want_down, di.down) << "step " << step;
    ASSERT_EQ(want_up, dp.up) << "step " << step;
    ASSERT_EQ(want_down, dp.down) << "step " << step;
  }
  EXPECT_GT(reference_events, 0u) << "walk produced no link events";
  EXPECT_EQ(inline_tracker.total_events(), reference_events);
  EXPECT_EQ(parallel.total_events(), reference_events);
}

}  // namespace
}  // namespace manet::net
