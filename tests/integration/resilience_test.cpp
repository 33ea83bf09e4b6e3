/// Fault-injection integration contract:
///  1. zero-cost: FaultConfig off leaves run_simulation bit-identical, and
///     even an armed fault plane whose only process never fires reproduces
///     all shared metrics exactly (no hidden RNG draws, no cost drift);
///  2. determinism: faulted runs (loss + churn) aggregate bit-identically
///     across 1 / 2 / 8 worker threads;
///  3. repair: under sustained 10% per-hop loss the ARQ + audit + rejoin
///     repair path keeps the final query-consistency probe >= 0.99 while
///     paying a nonzero retransmission tax.

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "exp/montecarlo.hpp"
#include "exp/simulation.hpp"
#include "sim/trace.hpp"

namespace manet::exp {
namespace {

ScenarioConfig small_scenario() {
  ScenarioConfig cfg;
  cfg.n = 96;
  cfg.seed = 20020415;
  cfg.warmup = 4.0;
  cfg.duration = 16.0;
  return cfg;
}

RunOptions lean_options() {
  RunOptions opts;
  opts.track_events = false;
  opts.track_states = false;
  opts.measure_hops = false;
  return opts;
}

TEST(Resilience, FaultOffIsBitIdenticalAndEmitsNoFaultMetrics) {
  const ScenarioConfig cfg = small_scenario();
  const auto a = run_simulation(cfg, lean_options());
  const auto b = run_simulation(cfg, lean_options());
  ASSERT_EQ(a.values.size(), b.values.size());
  for (Size i = 0; i < a.values.size(); ++i) {
    EXPECT_EQ(a.values[i].first, b.values[i].first);
    EXPECT_EQ(a.values[i].second, b.values[i].second);
  }
  EXPECT_FALSE(a.has("phi_retx"));
  EXPECT_FALSE(a.has("query_success_rate"));
  EXPECT_FALSE(a.has("crashes"));
}

TEST(Resilience, ForcedOnFaultPlaneIsZeroCost) {
  const ScenarioConfig off = small_scenario();
  // Machinery attached, no fault ever firing: an outage that would cover the
  // whole deployment starts only after the horizon.
  ScenarioConfig forced = small_scenario();
  forced.fault.outage_radius = 1e6;
  forced.fault.outage_start = forced.warmup + forced.duration + 1.0;
  forced.fault.outage_duration = 1.0;
  ASSERT_TRUE(forced.fault.enabled());

  const auto bare = run_simulation(off, lean_options());
  const auto armed = run_simulation(forced, lean_options());

  // Every fault-free metric must survive bit-identically: the attached
  // channel/ARQ/injector must draw no RNG and charge no packets at zero
  // loss and zero churn.
  for (const auto& [name, value] : bare.values) {
    ASSERT_TRUE(armed.has(name)) << "metric " << name << " lost under forced fault plane";
    EXPECT_EQ(value, armed.get(name)) << "metric " << name << " perturbed";
  }

  // The armed run reports the fault plane explicitly — and reports it clean.
  EXPECT_EQ(armed.get("packets_dropped"), 0.0);
  EXPECT_EQ(armed.get("phi_retx"), 0.0);
  EXPECT_EQ(armed.get("gamma_retx"), 0.0);
  EXPECT_EQ(armed.get("failed_transfers"), 0.0);
  EXPECT_EQ(armed.get("stale_entries"), 0.0);
  EXPECT_EQ(armed.get("crashes"), 0.0);
  EXPECT_EQ(armed.get("query_success_rate"), 1.0);
}

TEST(Resilience, FaultedRunsAreDeterministicAcrossThreadCounts) {
  ScenarioConfig cfg = small_scenario();
  cfg.fault.loss = 0.08;
  cfg.fault.crash_rate = 0.003;
  cfg.fault.mean_downtime = 4.0;
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

TEST(Resilience, RepairHoldsQueryConsistencyUnderSustainedLoss) {
  ScenarioConfig cfg = small_scenario();
  cfg.duration = 24.0;
  cfg.fault.loss = 0.1;
  const auto m = run_simulation(cfg, lean_options());

  EXPECT_GT(m.get("phi_retx") + m.get("gamma_retx"), 0.0)
      << "10% per-hop loss must force retransmissions";
  EXPECT_GT(m.get("packets_dropped"), 0.0);
  EXPECT_GE(m.get("query_success_rate"), 0.99)
      << "the repair path must restore consistency";
  // Whatever went stale and got repaired took positive time to fix.
  if (m.get("repairs") > 0.0) {
    EXPECT_GT(m.get("mean_time_to_repair"), 0.0);
  }
}

TEST(Resilience, CrashesDropEntriesAndSurvivorsReElect) {
  ScenarioConfig cfg = small_scenario();
  cfg.duration = 24.0;
  cfg.fault.crash_rate = 0.01;  // ~ 96 * 0.01 * 24 = 23 crash events expected
  cfg.fault.mean_downtime = 3.0;
  const auto m = run_simulation(cfg, lean_options());

  EXPECT_GT(m.get("crashes"), 0.0);
  EXPECT_GT(m.get("rejoins"), 0.0);
  EXPECT_GT(m.get("entries_dropped"), 0.0) << "a crashed server loses its store";
  EXPECT_GE(m.get("query_success_rate"), 0.9);
  // The run must stay alive and keep producing the core overhead metrics.
  EXPECT_GT(m.get("total_rate"), 0.0);
}

TEST(Resilience, TraceCarriesTypedFaultEvents) {
  ScenarioConfig cfg = small_scenario();
  cfg.fault.loss = 0.25;
  cfg.fault.crash_rate = 0.01;
  cfg.fault.mean_downtime = 3.0;

  sim::TraceSink sink(sim::TraceSink::Config{16384, 1});
  RunOptions opts = lean_options();
  opts.trace = &sink;
  run_simulation(cfg, opts);

  const auto count = [&](sim::TraceEventType type) {
    return sink.type_counts()[static_cast<Size>(type)];
  };
  EXPECT_GT(count(sim::TraceEventType::kRetransmit), 0u);
  EXPECT_GT(count(sim::TraceEventType::kPacketDropped), 0u);
  EXPECT_GT(count(sim::TraceEventType::kNodeCrash), 0u);
  EXPECT_GT(count(sim::TraceEventType::kRepair), 0u);
}

}  // namespace
}  // namespace manet::exp
