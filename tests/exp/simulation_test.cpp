#include "exp/simulation.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sim/shard.hpp"
#include "sim/trace.hpp"

namespace manet::exp {
namespace {

ScenarioConfig quick_config(Size n = 150, std::uint64_t seed = 1) {
  ScenarioConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.warmup = 5.0;
  cfg.duration = 15.0;
  cfg.radius_policy = RadiusPolicy::kMeanDegree;
  cfg.target_degree = 12.0;
  return cfg;
}

TEST(RunMetrics, SetGetHas) {
  RunMetrics m;
  m.set("x", 1.5);
  EXPECT_TRUE(m.has("x"));
  EXPECT_FALSE(m.has("y"));
  EXPECT_DOUBLE_EQ(m.get("x"), 1.5);
  EXPECT_TRUE(std::isnan(m.get("y")));
}

TEST(RunSimulation, ProducesCoreMetrics) {
  const auto m = run_simulation(quick_config());
  EXPECT_TRUE(m.has("phi_rate"));
  EXPECT_TRUE(m.has("gamma_rate"));
  EXPECT_TRUE(m.has("f0"));
  EXPECT_TRUE(m.has("levels"));
  EXPECT_TRUE(m.has("entries_per_node"));
  EXPECT_GT(m.get("total_rate"), 0.0);
  EXPECT_GT(m.get("f0"), 0.0);
  EXPECT_GE(m.get("levels"), 2.0);
  EXPECT_DOUBLE_EQ(m.get("ticks"), 15.0);
  EXPECT_DOUBLE_EQ(m.get("window"), 15.0);
}

TEST(RunSimulation, IsDeterministic) {
  const auto a = run_simulation(quick_config(120, 7));
  const auto b = run_simulation(quick_config(120, 7));
  EXPECT_EQ(a.values.size(), b.values.size());
  for (Size i = 0; i < a.values.size(); ++i) {
    EXPECT_EQ(a.values[i].first, b.values[i].first);
    EXPECT_DOUBLE_EQ(a.values[i].second, b.values[i].second) << a.values[i].first;
  }
}

TEST(RunSimulation, SeedChangesResults) {
  const auto a = run_simulation(quick_config(120, 1));
  const auto b = run_simulation(quick_config(120, 2));
  EXPECT_NE(a.get("phi_rate"), b.get("phi_rate"));
}

TEST(RunSimulation, GlsMetricsPresentWhenEnabled) {
  RunOptions opts;
  opts.run_gls = true;
  const auto m = run_simulation(quick_config(150, 3), opts);
  EXPECT_TRUE(m.has("gls_handoff_rate"));
  EXPECT_TRUE(m.has("gls_total_rate"));
  EXPECT_GT(m.get("gls_total_rate"), 0.0);

  RunOptions no_gls;
  no_gls.run_gls = false;
  const auto m2 = run_simulation(quick_config(150, 3), no_gls);
  EXPECT_FALSE(m2.has("gls_total_rate"));
}

TEST(RunSimulation, EventTaxonomyTracked) {
  RunOptions opts;
  opts.track_events = true;
  const auto m = run_simulation(quick_config(200, 4), opts);
  // At least the level-1 link and election events must occur in 15 s.
  EXPECT_TRUE(m.has("ev.i.1"));
  EXPECT_TRUE(m.has("ev.iii.1") || m.has("ev.v.1"));
}

TEST(RunSimulation, StateTrackingProducesPProfile) {
  RunOptions opts;
  opts.track_states = true;
  const auto m = run_simulation(quick_config(200, 5), opts);
  EXPECT_TRUE(m.has("p_state1.0"));
  EXPECT_TRUE(m.has("q1"));
  const double p0 = m.get("p_state1.0");
  EXPECT_GT(p0, 0.0);
  EXPECT_LT(p0, 1.0);
  EXPECT_GT(m.get("q1_over_Q"), 0.0);
}

TEST(RunSimulation, HopMeasurementGrowsWithLevel) {
  RunOptions opts;
  opts.measure_hops = true;
  const auto m = run_simulation(quick_config(300, 6), opts);
  const double h1 = m.get("h_k.1");
  const double h2 = m.get("h_k.2");
  EXPECT_GT(h1, 0.0);
  EXPECT_GT(h2, h1 * 0.9);  // generally larger; allow sampling noise
}

TEST(RunSimulation, RegistrationMetricsWhenEnabled) {
  RunOptions opts;
  opts.track_registration = true;
  opts.track_events = false;
  opts.track_states = false;
  opts.measure_hops = false;
  const auto m = run_simulation(quick_config(200, 21), opts);
  EXPECT_TRUE(m.has("reg_rate"));
  EXPECT_GT(m.get("reg_rate"), 0.0);
  EXPECT_GT(m.get("reg_updates"), 0.0);
  EXPECT_TRUE(m.has("reg_k.2"));

  RunOptions off;
  off.track_registration = false;
  const auto m2 = run_simulation(quick_config(200, 21), off);
  EXPECT_FALSE(m2.has("reg_rate"));
}

TEST(RunSimulation, RoutingMetricsWhenEnabled) {
  RunOptions opts;
  opts.measure_routing = true;
  opts.track_events = false;
  opts.track_states = false;
  opts.measure_hops = false;
  opts.stretch_pairs = 60;
  const auto m = run_simulation(quick_config(200, 22), opts);
  EXPECT_GT(m.get("rt_table_size"), 1.0);
  EXPECT_GE(m.get("rt_stretch"), 1.0);
  EXPECT_LT(m.get("rt_stretch"), 3.0);
  EXPECT_DOUBLE_EQ(m.get("rt_failures"), 0.0);
}

TEST(RunSimulation, TenureMetricsTrackedWithStates) {
  RunOptions opts;
  opts.track_states = true;
  opts.track_events = false;
  opts.measure_hops = false;
  const auto m = run_simulation(quick_config(250, 23), opts);
  // Level-1 heads churn fast enough that a completed tenure exists in 15 s.
  EXPECT_TRUE(m.has("tenure_k.1") || m.has("tenure_min_k.1"));
  const double t1 = m.has("tenure_k.1") ? m.get("tenure_k.1") : m.get("tenure_min_k.1");
  EXPECT_GT(t1, 0.0);
}

TEST(RunSimulation, Connected0ReflectsRawDraw) {
  // Sparse regression for the dead retry loop: at mean degree 2 the raw draw
  // fragments with near-certainty, and with a single attempt the metric must
  // say so. The builder's augmentation bridges used to mask this — the old
  // is_connected(g0) check could never fail, so connected0 was always 1.
  auto cfg = quick_config(80, 5);
  cfg.target_degree = 2.0;
  cfg.connect_attempts = 1;
  cfg.duration = 5.0;
  const auto m = run_simulation(cfg);
  EXPECT_DOUBLE_EQ(m.get("connected0"), 0.0);
  EXPECT_GT(m.get("augmented_per_tick"), 0.0);
}

TEST(RunSimulation, Connected0SetWhenDenseDrawConnects) {
  const auto m = run_simulation(quick_config(150, 2));
  EXPECT_DOUBLE_EQ(m.get("connected0"), 1.0);
}

TEST(RunSimulation, SparseRetryLoopActuallyRetries) {
  // With retries enabled the runner must land on a different deployment than
  // the single-attempt run of the same base seed (the derived-seed retry
  // path was unreachable before the fix).
  auto one = quick_config(80, 5);
  one.target_degree = 2.0;
  one.connect_attempts = 1;
  one.duration = 5.0;
  auto many = one;
  many.connect_attempts = 8;
  const auto a = run_simulation(one);
  const auto b = run_simulation(many);
  EXPECT_NE(a.get("f0"), b.get("f0"));
}

TEST(RunSimulation, TickCountExactOnLongFractionalHorizons) {
  // 0.1 has no exact binary representation; the old warmup/tick loops
  // accumulated it and could drift a full tick off over long horizons. The
  // measured sample count must be exactly duration / tick, and every traced
  // event must carry its tick's time warmup + i * tick, never a running sum.
  auto cfg = quick_config(60, 31);
  cfg.tick = 0.1;
  cfg.warmup = 12.3;
  cfg.duration = 30.0;
  sim::TraceSink sink(sim::TraceSink::Config{/*capacity=*/Size{1} << 20, /*sample_every=*/1});
  RunOptions options;
  options.trace = &sink;
  const auto m = run_simulation(cfg, options);
  EXPECT_DOUBLE_EQ(m.get("ticks"), 300.0);
  ASSERT_EQ(sink.dropped(), 0u);
  const auto events = sink.snapshot();
  ASSERT_FALSE(events.empty());
  for (const auto& e : events) {
    const long i = std::lround((e.t - cfg.warmup) / cfg.tick);
    ASSERT_GE(i, 1);
    ASSERT_LE(i, 300);
    ASSERT_EQ(e.t, cfg.warmup + static_cast<Time>(i) * cfg.tick) << "tick " << i;
  }

  cfg.duration = 60.0;
  const auto longer = run_simulation(cfg);
  EXPECT_DOUBLE_EQ(longer.get("ticks"), 600.0);
}

TEST(RunSimulation, GroupMobilityRuns) {
  auto cfg = quick_config(160, 24);
  cfg.mobility = MobilityKind::kGroup;
  const auto m = run_simulation(cfg);
  EXPECT_GT(m.get("total_rate"), 0.0);
  EXPECT_GT(m.get("f0"), 0.0);
}

TEST(RunSimulation, StaticMobilityHasNoHandoff) {
  auto cfg = quick_config(150, 8);
  cfg.mobility = MobilityKind::kStatic;
  const auto m = run_simulation(cfg);
  EXPECT_DOUBLE_EQ(m.get("phi_rate"), 0.0);
  EXPECT_DOUBLE_EQ(m.get("gamma_rate"), 0.0);
  EXPECT_DOUBLE_EQ(m.get("f0"), 0.0);
}

TEST(RunSimulation, FasterNodesMoreHandoff) {
  auto slow = quick_config(180, 9);
  slow.mu = 0.5;
  auto fast = quick_config(180, 9);
  fast.mu = 2.0;
  const auto ms = run_simulation(slow);
  const auto mf = run_simulation(fast);
  EXPECT_GT(mf.get("f0"), ms.get("f0"));
  EXPECT_GT(mf.get("total_rate"), ms.get("total_rate"));
}

TEST(RunSimulationDeath, RejectsZeroTick) {
  // The library refuses what the CLI refuses: tick = 0 would otherwise
  // divide the warmup by zero before the first tick.
  auto cfg = quick_config();
  cfg.tick = 0.0;
  EXPECT_DEATH(run_simulation(cfg), "tick must be > 0");
}

TEST(RunSimulationDeath, NamesEveryInvalidField) {
  auto cfg = quick_config();
  cfg.n = 1;
  cfg.density = -1.0;
  EXPECT_DEATH(run_simulation(cfg), "n must be >= 2; density must be > 0");
}

TEST(RunOptions, ValidateCapsThreadsAtShardCeiling) {
  RunOptions options;
  EXPECT_TRUE(options.validate().empty()) << "defaults must be valid";
  options.threads = sim::kMaxShardCount;
  EXPECT_TRUE(options.validate().empty());
  options.threads = sim::kMaxShardCount + 1;
  const auto errors = options.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].field, "threads");
  EXPECT_EQ(errors[0].rule, "must be <= 1024");
}

TEST(RunSimulationDeath, RejectsThreadsAboveShardCeiling) {
  // Checked before any pool exists, so this starts no threads.
  RunOptions options;
  options.threads = sim::kMaxShardCount + 1;
  EXPECT_DEATH(run_simulation(quick_config(), options), "threads must be <= 1024");
}

TEST(RunSimulationDeath, NamesFieldsThePlanesWouldAbortOn) {
  // Each of these used to pass validate() and then abort on an unnamed check
  // inside FaultInjector (common::exponential), SessionWorkload or
  // HandoverManager.
  struct Case {
    const char* pattern;
    void (*set)(ScenarioConfig&);
  };
  const Case cases[] = {
      {"fault\\.mean_downtime must be >= 0",
       [](ScenarioConfig& c) {
         c.fault.crash_rate = 0.05;
         c.fault.mean_downtime = -1.0;
       }},
      {"session\\.mean_duration must be > 0",
       [](ScenarioConfig& c) { c.session.mean_duration = 0.0; }},
      {"session\\.packets_per_sec must be > 0",
       [](ScenarioConfig& c) { c.session.packets_per_sec = -1.0; }},
      {"session\\.sessions_per_node_per_sec must be > 0",
       [](ScenarioConfig& c) { c.session.sessions_per_node_per_sec = 0.0; }},
      {"handover\\.timeout must be > 0", [](ScenarioConfig& c) { c.handover.timeout = 0.0; }},
  };
  for (const auto& c : cases) {
    auto cfg = quick_config();
    cfg.sessions = true;
    c.set(cfg);
    EXPECT_DEATH(run_simulation(cfg), c.pattern);
  }
}

TEST(RunSimulationDeath, NamesInvalidFaultField) {
  // Without the rule the ARQ layer's constructor aborts on an unnamed check.
  auto cfg = quick_config();
  cfg.fault.loss = 0.1;
  cfg.fault.arq_backoff = 0.5;
  EXPECT_DEATH(run_simulation(cfg), "fault\\.arq_backoff must be >= 1");
}

}  // namespace
}  // namespace manet::exp
