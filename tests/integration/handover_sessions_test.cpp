/// Session-riding handover FSM integration contract:
///  1. zero-cost: sessions off leaves run_simulation bit-identical (no new
///     RNG draws, no metric drift) — the plane is opt-in;
///  2. fault-free invisibility: with no faults every handover completes
///     within its spawn tick and sessions never misroute or stall;
///  3. edge coverage: one seeded loss + churn run reaches every FSM failure
///     edge — timeout, retry (and retry exhaustion), target-server crash,
///     rollback, rollback failure — with user-visible misroutes and
///     interruption windows;
///  4. determinism: faulted session runs aggregate bit-identically across
///     1 / 2 / 8 worker threads.

#include <gtest/gtest.h>

#include "cluster/hierarchy_builder.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "exp/montecarlo.hpp"
#include "exp/scenario.hpp"
#include "exp/session_bridge.hpp"
#include "exp/simulation.hpp"
#include "lm/handoff.hpp"
#include "lm/handover_fsm.hpp"
#include "lm/reliable.hpp"
#include "net/lossy_channel.hpp"
#include "net/unit_disk.hpp"
#include "routing/table.hpp"
#include "sim/shard.hpp"
#include "sim/trace.hpp"
#include "traffic/sessions.hpp"

namespace manet::exp {
namespace {

ScenarioConfig session_scenario() {
  ScenarioConfig cfg;
  cfg.n = 96;
  cfg.seed = 20020415;
  cfg.warmup = 4.0;
  cfg.duration = 24.0;
  cfg.sessions = true;
  return cfg;
}

ScenarioConfig faulted_scenario() {
  ScenarioConfig cfg = session_scenario();
  cfg.fault.loss = 0.3;
  cfg.fault.crash_rate = 0.03;
  cfg.fault.mean_downtime = 5.0;
  return cfg;
}

RunOptions lean_options() {
  RunOptions opts;
  opts.track_events = false;
  opts.track_states = false;
  opts.measure_hops = false;
  return opts;
}

TEST(HandoverSessions, SessionsOffLeavesRunsBitIdentical) {
  ScenarioConfig off = session_scenario();
  off.sessions = false;
  const auto a = run_simulation(off, lean_options());
  const auto b = run_simulation(off, lean_options());
  ASSERT_EQ(a.values.size(), b.values.size());
  for (Size i = 0; i < a.values.size(); ++i) {
    EXPECT_EQ(a.values[i].first, b.values[i].first);
    EXPECT_EQ(a.values[i].second, b.values[i].second);
  }
  EXPECT_FALSE(a.has("handover_started"));
  EXPECT_FALSE(a.has("session_packets"));
}

TEST(HandoverSessions, SessionPlaneDoesNotPerturbSharedMetrics) {
  // The session/FSM plane rides its own derived RNG streams: every metric of
  // a plain run must survive bit-identically when the plane is attached.
  ScenarioConfig off = session_scenario();
  off.sessions = false;
  const auto bare = run_simulation(off, lean_options());
  const auto armed = run_simulation(session_scenario(), lean_options());
  for (const auto& [name, value] : bare.values) {
    ASSERT_TRUE(armed.has(name)) << "metric " << name << " lost under session plane";
    EXPECT_EQ(value, armed.get(name)) << "metric " << name << " perturbed";
  }
}

TEST(HandoverSessions, FaultFreeBaselineIsHandoverInvisible) {
  const auto m = run_simulation(session_scenario(), lean_options());
  EXPECT_GT(m.get("handover_started"), 0.0);
  // Zero signalling loss, nobody down: every procedure completes within its
  // spawn tick — the paper's instant-commit idealization.
  EXPECT_EQ(m.get("handover_completed"), m.get("handover_started"));
  EXPECT_EQ(m.get("handover_in_flight"), 0.0);
  EXPECT_EQ(m.get("handover_timeouts"), 0.0);
  EXPECT_EQ(m.get("handover_rollbacks"), 0.0);
  EXPECT_EQ(m.get("handover_mean_completion"), 0.0);
  EXPECT_GT(m.get("session_packets"), 0.0);
  EXPECT_EQ(m.get("session_misrouted"), 0.0);
  EXPECT_EQ(m.get("session_lost"), 0.0);
  EXPECT_EQ(m.get("session_interruptions"), 0.0);
  // Never interrupted -> the p99 is absent (NaN sentinel), not zero.
  EXPECT_FALSE(m.has("session_interruption_p99"));
}

TEST(HandoverSessions, SeededFaultsReachEveryFsmFailureEdge) {
  const auto m = run_simulation(faulted_scenario(), lean_options());

  // Control-plane edges, every one exercised by this single seeded run.
  EXPECT_GT(m.get("handover_started"), 0.0);
  EXPECT_GT(m.get("handover_completed"), 0.0);
  EXPECT_GT(m.get("handover_timeouts"), 0.0) << "timeout edge";
  EXPECT_GT(m.get("handover_retries"), 0.0) << "retry edge";
  // Exhaustion: a timeout that cannot retry rolls back instead.
  EXPECT_GT(m.get("handover_timeouts"), m.get("handover_retries"))
      << "retry-exhaustion edge";
  EXPECT_GT(m.get("handover_rollbacks"), 0.0) << "rollback edge";
  EXPECT_GT(m.get("handover_target_crashes"), 0.0) << "target-server crash edge";
  EXPECT_GT(m.get("handover_rollback_failures"), 0.0)
      << "rollback-failure edge (old server also dark)";
  EXPECT_GT(m.get("handover_signal_packets"), 0.0);

  // ...and their user-visible consequences on the data plane.
  EXPECT_GT(m.get("session_misrouted"), 0.0) << "stale/rolled-back resolutions misroute";
  EXPECT_GT(m.get("session_misroute_extra"), 0.0);
  EXPECT_GT(m.get("session_interruptions"), 0.0);
  EXPECT_GT(m.get("session_interruption_time"), 0.0);
  EXPECT_GT(m.get("session_interruption_p99"), 0.0);
  EXPECT_GT(m.get("session_lost"), 0.0);
  // The network still mostly works: losses are the exception, not the rule.
  EXPECT_LT(m.get("session_loss_rate"), 0.5);
  EXPECT_GT(m.get("session_delivered"), m.get("session_lost"));
}

TEST(HandoverSessions, TraceCarriesTypedHandoverEvents) {
  sim::TraceSink sink(sim::TraceSink::Config{65536, 1});
  RunOptions opts = lean_options();
  opts.trace = &sink;
  run_simulation(faulted_scenario(), opts);

  const auto count = [&](sim::TraceEventType type) {
    return sink.type_counts()[static_cast<Size>(type)];
  };
  EXPECT_GT(count(sim::TraceEventType::kHandoverStart), 0u);
  EXPECT_GT(count(sim::TraceEventType::kHandoverComplete), 0u);
  EXPECT_GT(count(sim::TraceEventType::kHandoverRetry), 0u);
  EXPECT_GT(count(sim::TraceEventType::kHandoverRollback), 0u);
  EXPECT_GT(count(sim::TraceEventType::kHandoverFail), 0u);
}

TEST(HandoverSessions, FaultedSessionRunsAreDeterministicAcrossThreadCounts) {
  const ScenarioConfig cfg = faulted_scenario();
  const Size reps = 4;

  std::vector<std::pair<std::string, double>> baseline;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    common::ThreadPool pool(threads);
    const auto agg = run_replications(cfg, reps, lean_options(), &pool);
    std::vector<std::pair<std::string, double>> flat;
    for (const auto& name : agg.names()) {
      const auto s = agg.summary(name);
      flat.emplace_back(name + ".mean", s.mean);
      flat.emplace_back(name + ".ci95", s.ci95);
    }
    if (baseline.empty()) {
      baseline = std::move(flat);
      EXPECT_FALSE(baseline.empty());
      continue;
    }
    ASSERT_EQ(baseline.size(), flat.size()) << threads << " threads";
    for (Size i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(baseline[i].first, flat[i].first);
      EXPECT_EQ(baseline[i].second, flat[i].second)
          << baseline[i].first << " drifted at " << threads << " threads";
    }
  }
}

TEST(HandoverSessions, SessionStatsReachTheMetricsRegistry) {
  common::MetricsRegistry registry;
  RunOptions opts = lean_options();
  opts.metrics = &registry;
  run_simulation(faulted_scenario(), opts);

  EXPECT_GT(registry.counter("session.packets").value(), 0u);
  EXPECT_GT(registry.counter("session.delivered").value(), 0u);
  EXPECT_GT(registry.counter("session.misrouted").value(), 0u);
  EXPECT_GT(registry.counter("lm.handover.started").value(), 0u);
  EXPECT_GT(registry.counter("lm.handover.rollbacks").value(), 0u);
  const auto* interruption = registry.find_histogram("session.interruption_s");
  ASSERT_NE(interruption, nullptr);
  EXPECT_GT(interruption->count(), 0u);
  const auto* completion = registry.find_histogram("lm.handover.completion_s");
  ASSERT_NE(completion, nullptr);
  EXPECT_GT(completion->count(), 0u);
}

/// Counter values and histogram counts and sums of \p registry, one line each.
std::string serialize(const common::MetricsRegistry& registry) {
  std::string out;
  for (const auto& entry : registry.entries()) {
    out += entry.name;
    // Appended piece by piece: GCC 12's -Wrestrict misfires on an inlined
    // `" " + std::to_string(...)` at -O3.
    if (entry.kind == common::MetricsRegistry::Entry::Kind::kCounter) {
      out += ' ';
      out += std::to_string(entry.counter->value());
    } else if (entry.kind == common::MetricsRegistry::Entry::Kind::kHistogram) {
      out += ' ';
      out += std::to_string(entry.histogram->count());
      out += ' ';
      out += std::to_string(entry.histogram->sum());
    }
    out += '\n';
  }
  return out;
}

TEST(HandoverSessions, PooledSessionTicksMatchInlineWithStaleAndInFlightEntries) {
  // The session plane driven tick by tick over a live LM plane: lossy ARQ
  // leaves stale entries and lossy signalling keeps handovers in flight, so
  // the locator answers fresh, stale and in-flight; a rotating set of dark
  // nodes loses packets and opens interruption windows. One workload builds
  // its tables and fates inline, two more over a 4-thread pool (16 and 3
  // shards); every statistic, window and histogram must agree.
  ScenarioConfig cfg = faulted_scenario();
  cfg.n = 160;
  cfg.mu = 1.0;
  cfg.session.sessions_per_node_per_sec = 0.5;
  Scenario scenario = Scenario::materialize(cfg);
  const auto& pos = scenario.mobility->positions();
  net::UnitDiskBuilder disk(cfg.tx_radius(), /*ensure_connected=*/true);
  cluster::HierarchyOptions hopts;
  hopts.geometric_links = cfg.geometric_links;
  hopts.tx_radius = cfg.tx_radius();
  cluster::HierarchyBuilder builder(hopts);
  lm::HandoffEngine handoff(cfg.handoff);
  net::LossyChannel channel(cfg.fault, 11);
  lm::ReliableTransfer arq(channel, cfg.fault.retry_budget, cfg.fault.arq_timeout,
                           cfg.fault.arq_backoff);
  std::vector<std::uint8_t> down(cfg.n, 0);
  handoff.set_resilience(&arq, &down);
  lm::HandoverFsmConfig hocfg = cfg.handover;
  hocfg.signal_loss = cfg.fault.loss;
  lm::HandoverManager manager(hocfg, 12);
  manager.set_down(&down);
  handoff.set_handover_observer(&manager);
  const LmSessionLocator locator(handoff, &manager, &down);

  common::ThreadPool pool(4);
  sim::ShardExecutor wide(pool, 16), narrow(pool, 3);
  struct Arm {
    sim::ShardExecutor* executor;
    traffic::SessionWorkload workload;
    common::MetricsRegistry registry;
  };
  Arm arms[] = {{nullptr, {cfg.session, 13}, {}},
                {&wide, {cfg.session, 13}, {}},
                {&narrow, {cfg.session, 13}, {}}};
  for (Arm& arm : arms) {
    arm.workload.set_metrics(&arm.registry);
    arm.workload.set_parallel(arm.executor);
  }

  handoff.prime(builder.build(disk.update(pos), scenario.ids, pos), 0.0);
  Size in_flight_ticks = 0, stale_ticks = 0;
  for (Size i = 1; i <= 24; ++i) {
    const Time t = 0.5 * static_cast<Time>(i);
    scenario.mobility->advance_to(t);
    for (NodeId v = 0; v < cfg.n; ++v) down[v] = i % 4 >= 2 && v % 9 == i % 9 ? 1 : 0;
    const graph::Graph& g = disk.update(pos);
    const cluster::Hierarchy h = builder.build(g, scenario.ids, pos);
    handoff.update(h, g, t);
    manager.tick(t);
    if (manager.in_flight() > 0) ++in_flight_ticks;
    if (handoff.stale_entries() > 0) ++stale_ticks;
    for (Arm& arm : arms) {
      const routing::RoutingTables tables(
          g, h, arm.executor != nullptr ? *arm.executor : sim::kInlineExecutor);
      traffic::SessionWorkload::TickContext ctx;
      ctx.tables = &tables;
      ctx.locator = &locator;
      ctx.down = &down;
      ctx.node_count = cfg.n;
      ctx.now = t;
      ctx.dt = 0.5;
      arm.workload.tick_sessions(ctx);
    }
  }
  for (Arm& arm : arms) arm.workload.finish(12.5);

  const auto& want = arms[0].workload.stats();
  for (Size a = 1; a < 3; ++a) {
    const auto& got = arms[a].workload.stats();
    EXPECT_EQ(got.sessions, want.sessions) << "arm " << a;
    EXPECT_EQ(got.undeliverable, want.undeliverable) << "arm " << a;
    EXPECT_EQ(got.recovered, want.recovered) << "arm " << a;
    EXPECT_EQ(got.data_transmissions, want.data_transmissions) << "arm " << a;
    EXPECT_EQ(got.packets_offered, want.packets_offered) << "arm " << a;
    EXPECT_EQ(got.packets_delivered, want.packets_delivered) << "arm " << a;
    EXPECT_EQ(got.packets_misrouted, want.packets_misrouted) << "arm " << a;
    EXPECT_EQ(got.packets_lost, want.packets_lost) << "arm " << a;
    EXPECT_EQ(got.misroute_extra, want.misroute_extra) << "arm " << a;
    EXPECT_EQ(got.interruptions, want.interruptions) << "arm " << a;
    EXPECT_EQ(got.interruption_time, want.interruption_time) << "arm " << a;
    EXPECT_EQ(arms[a].workload.interruption_windows(), arms[0].workload.interruption_windows())
        << "arm " << a;
    EXPECT_EQ(serialize(arms[a].registry), serialize(arms[0].registry)) << "arm " << a;
  }
  // The locator answered from stale entries and in-flight procedures, and
  // the fates reached misroutes, losses and interruption windows.
  EXPECT_GT(in_flight_ticks, 0u);
  EXPECT_GT(stale_ticks, 0u);
  EXPECT_GT(want.packets_misrouted, 0u);
  EXPECT_GT(want.packets_lost, 0u);
  EXPECT_GT(want.interruptions, 0u);
  EXPECT_GT(arms[0].registry.find_histogram("session.query_hops")->count(), 0u);
}

}  // namespace
}  // namespace manet::exp
