#include "traffic/sessions.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cluster/hierarchy_builder.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "geom/region.hpp"
#include "net/unit_disk.hpp"

namespace manet::traffic {
namespace {

struct World {
  graph::Graph g{0};
  cluster::Hierarchy h;
  Size n = 0;
};

World make(Size n, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  const auto disk = geom::DiskRegion::with_density(n, 1.0);
  std::vector<geom::Vec2> pts(n);
  for (auto& p : pts) p = disk.sample(rng);
  net::UnitDiskBuilder builder(2.2, true);
  World w;
  w.g = builder.build(pts);
  w.h = cluster::HierarchyBuilder().build(w.g);
  w.n = n;
  return w;
}

/// A crash-stripped world: every \p stride-th node loses its edges but
/// stays a cluster member, and level-k links are geometric, so routes
/// recover and routes to a stripped node fail.
World make_stripped(Size n, std::uint64_t seed, Size stride) {
  common::Xoshiro256 rng(seed);
  const auto disk = geom::DiskRegion::with_density(n, 1.0);
  std::vector<geom::Vec2> pts(n);
  for (auto& p : pts) p = disk.sample(rng);
  const graph::Graph full = net::UnitDiskBuilder(2.2, true).build(pts);
  std::vector<graph::Edge> kept;
  for (const auto& e : full.edges()) {
    if (e.first % stride != 0 && e.second % stride != 0) kept.push_back(e);
  }
  World w;
  w.g = graph::Graph(n, kept);
  cluster::HierarchyOptions options;
  options.geometric_links = true;
  options.tx_radius = 2.2;
  w.h = cluster::HierarchyBuilder(options).build(w.g, {}, pts);
  w.n = n;
  return w;
}

TEST(Sessions, GeneratesExpectedVolume) {
  const auto w = make(200, 1);
  const routing::RoutingTables tables(w.g, w.h);
  SessionConfig cfg;
  cfg.sessions_per_node_per_sec = 0.5;
  SessionWorkload workload(cfg, 2);
  for (int t = 0; t < 40; ++t) workload.tick(tables, w.n, 1.0);
  const auto& stats = workload.stats();
  // Expected sessions: 0.5 * 200 * 40 = 4000; Poisson CI is tight here.
  EXPECT_NEAR(static_cast<double>(stats.sessions), 4000.0, 300.0);
  EXPECT_DOUBLE_EQ(stats.window, 40.0);
  EXPECT_EQ(stats.undeliverable, 0u);
  EXPECT_GT(stats.data_transmissions, 0u);
}

TEST(Sessions, MeanTransmissionsMatchPathScale) {
  const auto w = make(300, 5);
  const routing::RoutingTables tables(w.g, w.h);
  SessionWorkload workload(SessionConfig{}, 6);
  for (int t = 0; t < 20; ++t) workload.tick(tables, w.n, 1.0);
  const double per_session = workload.stats().mean_transmissions_per_session();
  // kPacketsPerSession (10) packets x typical path of a 300-node disk (a few
  // to ~20 hops).
  EXPECT_GT(per_session, 10.0);
  EXPECT_LT(per_session, 400.0);
}

TEST(Sessions, Deterministic) {
  const auto w = make(120, 7);
  const routing::RoutingTables tables(w.g, w.h);
  SessionWorkload a(SessionConfig{}, 8), b(SessionConfig{}, 8);
  for (int t = 0; t < 10; ++t) {
    a.tick(tables, w.n, 1.0);
    b.tick(tables, w.n, 1.0);
  }
  EXPECT_EQ(a.stats().sessions, b.stats().sessions);
  EXPECT_EQ(a.stats().data_transmissions, b.stats().data_transmissions);
}

TEST(Sessions, FewerThanTwoNodesSkipsTheTickInsteadOfAborting) {
  // Regression: crash faults can shrink the alive set below 2; this used to
  // trip MANET_CHECK and abort the whole run.
  const auto w = make(50, 9);
  const routing::RoutingTables tables(w.g, w.h);
  SessionWorkload workload(SessionConfig{}, 10);
  workload.tick(tables, 1, 1.0);
  workload.tick(tables, 0, 1.0);
  EXPECT_EQ(workload.stats().skipped_ticks, 2u);
  EXPECT_EQ(workload.stats().sessions, 0u);
  EXPECT_DOUBLE_EQ(workload.stats().window, 0.0);

  SessionWorkload long_lived(SessionConfig{}, 10);
  SessionWorkload::TickContext ctx;
  ctx.tables = &tables;
  ctx.node_count = 1;
  ctx.now = 1.0;
  long_lived.tick_sessions(ctx);
  EXPECT_EQ(long_lived.stats().skipped_ticks, 1u);

  // Back above the threshold the workload resumes normally.
  workload.tick(tables, w.n, 1.0);
  EXPECT_DOUBLE_EQ(workload.stats().window, 1.0);
}

/// Scripted resolution: every destination resolves the same way, so the
/// continuity accounting is exactly predictable.
struct FixedLocator : LocatorView {
  LocateOutcome outcome;
  LocateOutcome locate(NodeId /*dst*/) const override { return outcome; }
};

TEST(Sessions, LongLivedSessionsPersistAndDeliver) {
  const auto w = make(150, 11);
  const routing::RoutingTables tables(w.g, w.h);
  SessionConfig cfg;
  cfg.sessions_per_node_per_sec = 0.1;
  cfg.mean_duration = 6.0;
  cfg.packets_per_sec = 2.0;
  SessionWorkload workload(cfg, 12);
  SessionWorkload::TickContext ctx;
  ctx.tables = &tables;
  ctx.node_count = w.n;
  ctx.dt = 1.0;
  for (int t = 1; t <= 30; ++t) {
    ctx.now = t;
    workload.tick_sessions(ctx);
  }
  workload.finish(31.0);
  const auto& stats = workload.stats();
  EXPECT_GT(stats.sessions, 0u);
  EXPECT_GT(stats.packets_offered, stats.sessions);  // sessions outlive a tick
  // Idealized resolution (no locator) + connected graph: everything delivers.
  EXPECT_EQ(stats.packets_delivered, stats.packets_offered);
  EXPECT_EQ(stats.packets_misrouted, 0u);
  EXPECT_EQ(stats.packets_lost, 0u);
  EXPECT_EQ(stats.interruptions, 0u);
  // No window ever closed -> the quantile is *absent* (quiet NaN, the
  // repo-wide sentinel), not a 0.0 that would pollute aggregates.
  EXPECT_TRUE(std::isnan(workload.interruption_quantile(0.99)));
}

TEST(Sessions, ResolutionMissOpensAnInterruptionWindowAndFreshCloses) {
  const auto w = make(100, 13);
  const routing::RoutingTables tables(w.g, w.h);
  SessionConfig cfg;
  cfg.sessions_per_node_per_sec = 0.2;
  cfg.mean_duration = 100.0;  // sessions span the whole test
  cfg.packets_per_sec = 1.0;
  SessionWorkload workload(cfg, 14);
  FixedLocator locator;
  SessionWorkload::TickContext ctx;
  ctx.tables = &tables;
  ctx.locator = &locator;
  ctx.node_count = w.n;
  ctx.dt = 1.0;

  locator.outcome = LocateOutcome{LocateResult::kFresh, 0, kInvalidNode};
  ctx.now = 1.0;
  workload.tick_sessions(ctx);
  ASSERT_GT(workload.live_sessions(), 0u);
  EXPECT_EQ(workload.stats().interruptions, 0u);

  // Every resolution misses for 3 ticks: a window opens for each live
  // session (sessions expiring mid-outage close theirs at their natural end).
  locator.outcome = LocateOutcome{LocateResult::kMiss, kInvalidNode, kInvalidNode};
  const Size live = workload.live_sessions();
  for (int t = 2; t <= 4; ++t) {
    ctx.now = t;
    workload.tick_sessions(ctx);
  }
  EXPECT_GT(workload.stats().packets_lost, 0u);

  // Resolution recovers: every still-open window closes. Sessions that
  // survived the whole outage report windows of >= 3 s.
  locator.outcome = LocateOutcome{LocateResult::kFresh, 0, kInvalidNode};
  ctx.now = 5.0;
  workload.tick_sessions(ctx);
  EXPECT_GE(workload.stats().interruptions, live);
  EXPECT_GE(workload.interruption_quantile(1.0), 3.0);
  EXPECT_GT(workload.stats().interruption_time, 0.0);
}

TEST(Sessions, StaleResolutionMisroutesThroughTheHolder) {
  const auto w = make(100, 15);
  const routing::RoutingTables tables(w.g, w.h);
  SessionConfig cfg;
  cfg.sessions_per_node_per_sec = 0.2;
  cfg.mean_duration = 50.0;
  cfg.packets_per_sec = 1.0;
  SessionWorkload workload(cfg, 16);
  FixedLocator locator;
  locator.outcome = LocateOutcome{LocateResult::kStaleHit, 7, 7};
  SessionWorkload::TickContext ctx;
  ctx.tables = &tables;
  ctx.locator = &locator;
  ctx.node_count = w.n;
  ctx.dt = 1.0;
  for (int t = 1; t <= 10; ++t) {
    ctx.now = t;
    workload.tick_sessions(ctx);
  }
  const auto& stats = workload.stats();
  ASSERT_GT(stats.packets_offered, 0u);
  // Destination 7's own packets resolve holder == dst and route directly;
  // everything else chases the stale holder first.
  EXPECT_GT(stats.packets_misrouted, 0u);
  EXPECT_GT(stats.misroute_extra, 0u);
  EXPECT_GT(stats.misroute_rate(), 0.5);
  // Misrouted packets still arrive (both legs route on a connected graph).
  EXPECT_EQ(stats.packets_delivered, stats.packets_offered);
  EXPECT_EQ(stats.interruptions, 0u);
}

TEST(Sessions, DownEndpointsLosePacketsWithoutRouting) {
  const auto w = make(80, 17);
  const routing::RoutingTables tables(w.g, w.h);
  SessionConfig cfg;
  cfg.sessions_per_node_per_sec = 0.3;
  cfg.mean_duration = 50.0;
  SessionWorkload workload(cfg, 18);
  std::vector<std::uint8_t> down(w.n, 1);  // everyone dark
  SessionWorkload::TickContext ctx;
  ctx.tables = &tables;
  ctx.down = &down;
  ctx.node_count = w.n;
  ctx.dt = 1.0;
  ctx.now = 1.0;
  workload.tick_sessions(ctx);
  // Dark endpoints are never admitted, so no sessions and no packets.
  EXPECT_EQ(workload.stats().sessions, 0u);
  EXPECT_EQ(workload.stats().packets_offered, 0u);

  // Admission draws were consumed anyway, so the arrival stream stays
  // aligned: once everyone is back up the workload admits sessions again,
  // and a mirror that never saw down nodes admits strictly more (only the
  // dark first tick differs).
  SessionWorkload mirror(cfg, 18);
  SessionWorkload::TickContext mirror_ctx = ctx;
  mirror_ctx.down = nullptr;
  mirror.tick_sessions(mirror_ctx);
  std::fill(down.begin(), down.end(), 0);  // everyone back up
  for (int t = 2; t <= 6; ++t) {
    ctx.now = t;
    mirror_ctx.now = t;
    workload.tick_sessions(ctx);
    mirror.tick_sessions(mirror_ctx);
  }
  EXPECT_GT(workload.stats().sessions, 0u);
  EXPECT_GT(mirror.stats().sessions, workload.stats().sessions);
}

/// tick_sessions() as it was written per packet, the reference for one
/// fate per session per tick: the same admission, expiry and interruption
/// windows, but every packet resolves and routes on its own.
class PerPacketSessions {
 public:
  PerPacketSessions(SessionConfig config, std::uint64_t seed) : config_(config), rng_(seed) {}

  void tick(const SessionWorkload::TickContext& ctx) {
    if (ctx.node_count < 2) {
      ++stats_.skipped_ticks;
      return;
    }
    stats_.window += ctx.dt;
    const auto expired = std::stable_partition(
        live_.begin(), live_.end(), [&](const Live& s) { return s.ends_at > ctx.now; });
    for (auto it = expired; it != live_.end(); ++it) close_window(*it, ctx.now);
    live_.erase(expired, live_.end());
    const double lambda =
        config_.sessions_per_node_per_sec * static_cast<double>(ctx.node_count) * ctx.dt;
    const std::uint64_t arrivals = common::poisson(rng_, lambda);
    for (std::uint64_t s = 0; s < arrivals; ++s) {
      const auto src = static_cast<NodeId>(common::uniform_index(rng_, ctx.node_count));
      auto dst = static_cast<NodeId>(common::uniform_index(rng_, ctx.node_count - 1));
      if (dst >= src) ++dst;
      const double duration = common::exponential(rng_, 1.0 / config_.mean_duration);
      if (is_down(ctx, src) || is_down(ctx, dst)) continue;
      ++stats_.sessions;
      live_.push_back(Live{src, dst, ctx.now + duration, false, 0.0});
    }
    const auto packets_per_tick = static_cast<Size>(
        std::max<long>(1, std::lround(config_.packets_per_sec * ctx.dt)));
    for (auto& session : live_) {
      bool any_delivered = false;
      for (Size p = 0; p < packets_per_tick; ++p) {
        any_delivered = send_packet(session, ctx) || any_delivered;
      }
      if (any_delivered) {
        close_window(session, ctx.now);
      } else if (!session.interrupted) {
        session.interrupted = true;
        session.interrupted_since = ctx.now;
      }
    }
  }

  void finish(Time now) {
    for (auto& session : live_) close_window(session, now);
  }

  const SessionStats& stats() const { return stats_; }
  const std::vector<double>& windows() const { return windows_; }

 private:
  struct Live {
    NodeId src, dst;
    Time ends_at;
    bool interrupted;
    Time interrupted_since;
  };

  static bool is_down(const SessionWorkload::TickContext& ctx, NodeId v) {
    return ctx.down != nullptr && (*ctx.down)[v] != 0;
  }

  bool lose() {
    ++stats_.packets_lost;
    return false;
  }

  bool send_packet(const Live& session, const SessionWorkload::TickContext& ctx) {
    ++stats_.packets_offered;
    if (is_down(ctx, session.src) || is_down(ctx, session.dst)) return lose();
    LocateOutcome loc{LocateResult::kFresh, session.dst, kInvalidNode};
    if (ctx.locator != nullptr) loc = ctx.locator->locate(session.dst);
    if (loc.result == LocateResult::kMiss) return lose();
    if (loc.result == LocateResult::kStaleHit && loc.holder != kInvalidNode &&
        loc.holder != session.dst) {
      const auto chase = ctx.tables->route(session.src, loc.holder, scratch_);
      const auto onward = ctx.tables->route(loc.holder, session.dst, scratch_);
      ++stats_.packets_misrouted;
      if (!chase.delivered || !onward.delivered) return lose();
      stats_.data_transmissions += chase.hops + onward.hops;
      stats_.misroute_extra += chase.hops;
      ++stats_.packets_delivered;
      return true;
    }
    const auto routed = ctx.tables->route(session.src, session.dst, scratch_);
    if (!routed.delivered) {
      ++stats_.undeliverable;
      return lose();
    }
    if (routed.recovered) ++stats_.recovered;
    stats_.data_transmissions += routed.hops;
    ++stats_.packets_delivered;
    return true;
  }

  void close_window(Live& session, Time now) {
    if (!session.interrupted) return;
    session.interrupted = false;
    ++stats_.interruptions;
    stats_.interruption_time += now - session.interrupted_since;
    windows_.push_back(now - session.interrupted_since);
  }

  SessionConfig config_;
  common::Xoshiro256 rng_;
  routing::RouteScratch scratch_;
  SessionStats stats_;
  std::vector<Live> live_;
  std::vector<double> windows_;
};

TEST(Sessions, OneFatePerSessionMatchesThePerPacketLoop) {
  const auto w = make_stripped(160, 19, 9);
  const routing::RoutingTables tables(w.g, w.h);
  SessionConfig cfg;
  cfg.sessions_per_node_per_sec = 0.05;
  cfg.mean_duration = 8.0;
  cfg.packets_per_sec = 3.0;
  SessionWorkload workload(cfg, 20);
  common::MetricsRegistry registry;
  workload.set_metrics(&registry);
  PerPacketSessions reference(cfg, 20);

  // Resolution phases: fresh, stale through a live holder (its own
  // sessions route directly), a miss, stale through a stripped holder (the
  // chase fails), a stale hit with no holder, and no locator at all.
  FixedLocator locator;
  const LocateOutcome phases[] = {
      {LocateResult::kFresh, 0, kInvalidNode},
      {LocateResult::kStaleHit, 7, 7},
      {LocateResult::kMiss, kInvalidNode, kInvalidNode},
      {LocateResult::kStaleHit, 9, 9},
      {LocateResult::kStaleHit, 7, kInvalidNode},
  };
  std::vector<std::uint8_t> down(w.n, 0);
  SessionWorkload::TickContext ctx;
  ctx.tables = &tables;
  ctx.down = &down;
  ctx.node_count = w.n;
  for (int t = 1; t <= 48; ++t) {
    ctx.now = 0.5 * t;
    ctx.dt = t % 2 == 0 ? 1.0 : 0.5;  // 3 and 2 packets per tick
    const Size phase = static_cast<Size>(t / 3) % 6;
    ctx.locator = phase < 5 ? &locator : nullptr;
    if (phase < 5) locator.outcome = phases[phase];
    // Every fifth node goes dark on some ticks, so live sessions lose
    // endpoints they were admitted with.
    for (NodeId v = 0; v < w.n; ++v) down[v] = (t % 7 >= 5 && v % 5 == 0) ? 1 : 0;
    workload.tick_sessions(ctx);
    reference.tick(ctx);
  }
  workload.finish(25.0);
  reference.finish(25.0);

  const auto& got = workload.stats();
  const auto& want = reference.stats();
  EXPECT_EQ(got.sessions, want.sessions);
  EXPECT_EQ(got.undeliverable, want.undeliverable);
  EXPECT_EQ(got.recovered, want.recovered);
  EXPECT_EQ(got.data_transmissions, want.data_transmissions);
  EXPECT_EQ(got.window, want.window);
  EXPECT_EQ(got.packets_offered, want.packets_offered);
  EXPECT_EQ(got.packets_delivered, want.packets_delivered);
  EXPECT_EQ(got.packets_misrouted, want.packets_misrouted);
  EXPECT_EQ(got.packets_lost, want.packets_lost);
  EXPECT_EQ(got.misroute_extra, want.misroute_extra);
  EXPECT_EQ(got.interruptions, want.interruptions);
  EXPECT_EQ(got.interruption_time, want.interruption_time);
  EXPECT_EQ(workload.interruption_windows(), reference.windows());
  EXPECT_EQ(registry.counter("session.packets").value(), want.packets_offered);
  EXPECT_EQ(registry.counter("session.delivered").value(), want.packets_delivered);
  EXPECT_EQ(registry.counter("session.misrouted").value(), want.packets_misrouted);
  EXPECT_EQ(registry.counter("session.lost").value(), want.packets_lost);

  // Every branch of the fate was taken.
  EXPECT_GT(want.recovered, 0u);
  EXPECT_GT(want.undeliverable, 0u);
  EXPECT_GT(want.packets_misrouted, 0u);
  EXPECT_GT(want.misroute_extra, 0u);
  EXPECT_GT(want.interruptions, 0u);
  EXPECT_GT(want.packets_delivered, 0u);
  EXPECT_GT(want.packets_lost, 0u);
}

TEST(Poisson, MeanAndVarianceMatch) {
  common::Xoshiro256 rng(9);
  for (const double lambda : {0.5, 4.0, 100.0}) {
    double sum = 0.0, sum2 = 0.0;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i) {
      const auto k = static_cast<double>(common::poisson(rng, lambda));
      sum += k;
      sum2 += k * k;
    }
    const double mean = sum / draws;
    const double var = sum2 / draws - mean * mean;
    EXPECT_NEAR(mean, lambda, lambda * 0.05 + 0.05) << "lambda " << lambda;
    EXPECT_NEAR(var, lambda, lambda * 0.15 + 0.1) << "lambda " << lambda;
  }
}

}  // namespace
}  // namespace manet::traffic
