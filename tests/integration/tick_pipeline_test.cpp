#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "exp/montecarlo.hpp"
#include "exp/simulation.hpp"

/// Bit-identity contract of the incremental tick pipeline: with
/// RunOptions::incremental_tick the unit-disk graph is maintained as a delta,
/// the hierarchy rebuild is change-gated, and changed ticks either repair
/// the hierarchy (ALCA) or call the plain builder (MaxMin-d, or
/// localized_repair off) — and every produced metric (phi/gamma rates, the
/// full (i)-(vii) event taxonomy, per-level shapes, fault accounting) must
/// equal the full-rebuild path's exactly, value for value and in emission
/// order.

namespace manet::exp {
namespace {

ScenarioConfig base_config(Size n, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.warmup = 5.0;
  cfg.duration = 15.0;
  cfg.radius_policy = RadiusPolicy::kMeanDegree;
  cfg.target_degree = 12.0;
  return cfg;
}

void expect_bit_identical(const RunMetrics& full, const RunMetrics& inc) {
  ASSERT_EQ(full.values.size(), inc.values.size());
  for (Size i = 0; i < full.values.size(); ++i) {
    EXPECT_EQ(full.values[i].first, inc.values[i].first);
    EXPECT_EQ(full.values[i].second, inc.values[i].second) << full.values[i].first;
  }
}

void run_both_and_compare(const ScenarioConfig& cfg, RunOptions opts = RunOptions{}) {
  opts.incremental_tick = false;
  const auto full = run_simulation(cfg, opts);
  // Three-arm identity: the incremental pipeline must match whether changed
  // ticks rebuild hierarchies via localized repair (default) or via the full
  // HierarchyBuilder call (the localized_repair = false reference arm).
  opts.incremental_tick = true;
  opts.localized_repair = true;
  const auto inc = run_simulation(cfg, opts);
  expect_bit_identical(full, inc);
  opts.localized_repair = false;
  const auto inc_builder = run_simulation(cfg, opts);
  expect_bit_identical(full, inc_builder);
}

TEST(TickPipeline, IncrementalMatchesFullRandomWaypoint) {
  run_both_and_compare(base_config(180, 11));
}

TEST(TickPipeline, IncrementalMatchesFullWithTopologicalLinks) {
  // geometric_links off: level-k links come from contraction only, so the
  // change gate also fires on moved-but-topology-stable ticks.
  auto cfg = base_config(180, 12);
  cfg.geometric_links = false;
  run_both_and_compare(cfg);
}

TEST(TickPipeline, IncrementalMatchesFullStatic) {
  // Mostly-gated regime: no node ever moves, every measured tick skips the
  // hierarchy rebuild entirely.
  auto cfg = base_config(180, 13);
  cfg.mobility = MobilityKind::kStatic;
  run_both_and_compare(cfg);
}

TEST(TickPipeline, IncrementalMatchesFullGroupMobility) {
  auto cfg = base_config(160, 14);
  cfg.mobility = MobilityKind::kGroup;
  run_both_and_compare(cfg);
}

TEST(TickPipeline, IncrementalMatchesFullRandomDirectionAndGaussMarkov) {
  for (const auto kind : {MobilityKind::kRandomDirection, MobilityKind::kGaussMarkov}) {
    SCOPED_TRACE(kind == MobilityKind::kRandomDirection ? "random direction" : "Gauss-Markov");
    auto cfg = base_config(160, 15);
    cfg.mobility = kind;
    run_both_and_compare(cfg);
  }
}

TEST(TickPipeline, IncrementalMatchesFullFractionalTick) {
  // tick = 0.25 exercises the integer warmup stepping (cf. the FP drift fix)
  // together with the delta path.
  auto cfg = base_config(150, 15);
  cfg.tick = 0.25;
  run_both_and_compare(cfg);
}

TEST(TickPipeline, IncrementalMatchesFullUnderFaults) {
  // Fault plane on: crash/rejoin churn changes the down-mask, edges are
  // stripped, ARQ retransmissions draw from the channel RNG — all of it must
  // stay in lockstep between the two paths.
  auto cfg = base_config(150, 16);
  cfg.fault.loss = 0.08;
  cfg.fault.crash_rate = 0.005;
  cfg.fault.mean_downtime = 4.0;
  run_both_and_compare(cfg);
}

TEST(TickPipeline, IncrementalMatchesFullUnderHeavyFaultChurn) {
  // Stress the repair fallback machinery: a high crash rate flips the fault
  // down-mask nearly every tick (the level-0 delta is untrustworthy, so the
  // repairer must self-diff), and a regional outage adds mass down/up wave
  // transitions. Contraction links keep some ticks gated even here.
  auto cfg = base_config(140, 19);
  cfg.fault.loss = 0.05;
  cfg.fault.crash_rate = 0.03;
  cfg.fault.mean_downtime = 2.0;
  cfg.fault.outage_radius = 4.0;
  cfg.fault.outage_start = 3.0;
  cfg.fault.outage_duration = 5.0;
  run_both_and_compare(cfg);
}

TEST(TickPipeline, IncrementalMatchesFullOnADeepDeployment) {
  // The other arms run at n <= 180, where HopOracle::prepare() reads a
  // shallow graph and every query passes through to pair BFS. At n = 2048 on
  // the connectivity radius both depth probes arm the landmark table on
  // every measured tick, so the incremental arms price through landmark A*
  // while the full-tick arm prices through pair BFS.
  ScenarioConfig cfg;
  cfg.n = 2048;
  cfg.seed = 23;
  cfg.warmup = 2.0;
  cfg.duration = 3.0;
  run_both_and_compare(cfg);
  SCOPED_TRACE("loss and crashes");
  cfg.fault.loss = 0.05;
  cfg.fault.crash_rate = 0.03;
  cfg.fault.mean_downtime = 2.0;
  run_both_and_compare(cfg);
}

TEST(TickPipeline, IncrementalMatchesFullMaxMin1) {
  // MaxMin-d has no incremental election: every changed tick of the
  // incremental path rebuilds with the builder.
  auto cfg = base_config(160, 20);
  cfg.cluster_algo = ClusterAlgo::kMaxMin1;
  run_both_and_compare(cfg);
}

TEST(TickPipeline, IncrementalMatchesFullMaxMin2) {
  auto cfg = base_config(160, 21);
  cfg.cluster_algo = ClusterAlgo::kMaxMin2;
  run_both_and_compare(cfg);
}

TEST(TickPipeline, IncrementalMatchesFullWithAllTrackersOn) {
  auto cfg = base_config(160, 17);
  RunOptions opts;
  opts.run_gls = true;
  opts.track_registration = true;
  opts.measure_routing = true;
  run_both_and_compare(cfg, opts);
}

TEST(TickPipeline, ReplicationAggregateInvariantAcrossThreadCounts) {
  // The Monte-Carlo driver merges replications in index order, so the
  // aggregate is thread-count invariant; the incremental pipeline must
  // preserve that, and agree with the full-rebuild aggregate.
  const auto cfg = base_config(120, 18);
  const Size reps = 4;

  RunOptions full_opts;
  full_opts.incremental_tick = false;
  const auto reference = run_replications(cfg, reps, full_opts);

  RunOptions inc_opts;
  inc_opts.incremental_tick = true;
  for (const Size threads : {Size{1}, Size{2}, Size{8}}) {
    common::ThreadPool pool(threads);
    const auto agg = run_replications(cfg, reps, inc_opts, &pool);
    ASSERT_EQ(agg.replication_count(), reference.replication_count());
    for (const auto& name : reference.names()) {
      const auto a = reference.summary(name);
      const auto b = agg.summary(name);
      EXPECT_EQ(a.count, b.count) << name;
      EXPECT_EQ(a.mean, b.mean) << name << " @" << threads << " threads";
      EXPECT_EQ(a.ci95, b.ci95) << name << " @" << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace manet::exp
