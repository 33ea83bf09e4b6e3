#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cluster/diff.hpp"
#include "cluster/hierarchy_builder.hpp"
#include "common/rng.hpp"
#include "exp/simulation.hpp"
#include "graph/components.hpp"
#include "lm/handoff.hpp"
#include "lm/reliable.hpp"
#include "net/lossy_channel.hpp"
#include "net/unit_disk.hpp"
#include "sim/fault.hpp"

/// Cross-module invariants exercised over a mobile run: every tick of a
/// realistic simulation must preserve the structural properties the
/// analytical machinery assumes. Violations here indicate silent metric
/// corruption that unit tests cannot see.

namespace manet {
namespace {

TEST(Invariants, MobileRunPreservesAllStructuralInvariants) {
  const Size n = 250;
  exp::ScenarioConfig cfg;
  cfg.n = n;
  cfg.seed = 31;
  cfg.radius_policy = exp::RadiusPolicy::kMeanDegree;
  cfg.target_degree = 12.0;
  auto scenario = exp::Scenario::materialize(cfg);

  net::UnitDiskBuilder disk(cfg.tx_radius(), true);
  cluster::HierarchyOptions hopts;
  hopts.geometric_links = true;
  hopts.tx_radius = cfg.tx_radius();
  cluster::HierarchyBuilder builder(hopts);

  lm::HandoffEngine engine;
  graph::Graph g = disk.build(scenario.mobility->positions());
  cluster::Hierarchy h = builder.build(g, scenario.ids, scenario.mobility->positions());
  engine.prime(h, 0.0);

  for (int tick = 1; tick <= 25; ++tick) {
    scenario.mobility->advance_to(static_cast<Time>(tick));
    g = disk.build(scenario.mobility->positions());
    cluster::Hierarchy next =
        builder.build(g, scenario.ids, scenario.mobility->positions());

    // 1. Connectivity enforcement held.
    ASSERT_TRUE(graph::is_connected(g)) << "tick " << tick;

    // 2. Membership is a partition at every level, heads self-consistent.
    for (Level k = 0; k <= next.top_level(); ++k) {
      Size members_total = 0;
      for (NodeId c = 0; c < next.cluster_count(k); ++c) {
        members_total += next.members0(k, c).size();
      }
      ASSERT_EQ(members_total, n) << "tick " << tick << " level " << k;
    }

    // 3. Aggregation is strict below the top.
    for (Level k = 1; k <= next.top_level(); ++k) {
      ASSERT_LT(next.cluster_count(k), next.cluster_count(k - 1))
          << "tick " << tick << " level " << k;
    }

    // 4. Diff is self-consistent: heads gained/lost match level id sets.
    const auto delta = cluster::diff_hierarchies(h, next);
    for (Level k = 1; k < delta.heads_gained.size() && k <= next.top_level(); ++k) {
      for (const NodeId id : delta.heads_gained[k]) {
        const auto& ids = next.level(k).ids;
        ASSERT_NE(std::find(ids.begin(), ids.end(), id), ids.end());
      }
    }

    // 5. Handoff engine's database matches the assignment function.
    engine.update(next, g, static_cast<Time>(tick));
    ASSERT_EQ(engine.database().total_entries(),
              next.top_level() >= 2
                  ? n * (next.top_level() - lm::kFirstServedLevel + 1)
                  : 0)
        << "tick " << tick;

    // 6. No transfer ever crossed a disconnected graph.
    ASSERT_EQ(engine.unreachable_transfers(), 0u) << "tick " << tick;

    h = std::move(next);
  }
}

/// The LM database holds each (owner, k) entry once: a fresh served entry at
/// its current server, a stale one wherever the engine says its copy is, and
/// the per-server counts sum to the held slots.
void check_one_holder_per_entry(const lm::HandoffEngine& engine, const char* after, int tick) {
  constexpr Level kScanLevels = 32;  // far above any top level at n = 250
  const auto& db = engine.database();
  Size held = 0;
  for (NodeId owner = 0; owner < engine.node_count(); ++owner) {
    for (Level k = lm::kFirstServedLevel; k < kScanLevels; ++k) {
      const NodeId holder = db.holder(owner, k);
      if (holder != kInvalidNode) ++held;
      if (engine.is_stale(owner, k)) {
        ASSERT_EQ(holder, engine.stale_holder(owner, k))
            << after << " tick " << tick << " owner " << owner << " k " << k;
      } else if (engine.current_server(owner, k) != kInvalidNode) {
        ASSERT_EQ(holder, engine.current_server(owner, k))
            << after << " tick " << tick << " owner " << owner << " k " << k;
      }
    }
  }
  const auto loads = db.load_vector();
  Size load_sum = 0;
  for (const Size l : loads) load_sum += l;
  ASSERT_EQ(db.total_entries(), held) << after << " tick " << tick;
  ASSERT_EQ(db.total_entries(), load_sum) << after << " tick " << tick;
}

TEST(Invariants, FaultedRunHoldsEachEntryOnce) {
  const Size n = 250;
  const int ticks = 30;
  exp::ScenarioConfig cfg;
  cfg.n = n;
  cfg.seed = 37;
  cfg.radius_policy = exp::RadiusPolicy::kMeanDegree;
  cfg.target_degree = 12.0;
  auto scenario = exp::Scenario::materialize(cfg);

  sim::FaultConfig fault;
  fault.loss = 0.2;
  fault.retry_budget = 2;
  fault.crash_rate = 0.01;
  fault.mean_downtime = 3.0;
  const sim::FaultInjector injector(fault, n, 0.0, static_cast<Time>(ticks), 41);
  net::LossyChannel channel(fault, 43);
  lm::ReliableTransfer arq(channel, fault.retry_budget, fault.arq_timeout, fault.arq_backoff);

  net::UnitDiskBuilder disk(cfg.tx_radius(), true);
  cluster::HierarchyOptions hopts;
  hopts.geometric_links = true;
  hopts.tx_radius = cfg.tx_radius();
  cluster::HierarchyBuilder builder(hopts);

  // As run_simulation does: down nodes neither send nor forward, so their
  // edges are stripped before the hierarchy is built and transfers priced.
  std::vector<std::uint8_t> down(n, 0), prev_down(n, 0);
  const auto effective_graph = [&](Time t) {
    std::swap(prev_down, down);
    for (NodeId v = 0; v < n; ++v) down[v] = injector.crashed(v, t) ? 1 : 0;
    const graph::Graph raw = disk.build(scenario.mobility->positions());
    std::vector<graph::Edge> kept;
    for (const auto& e : raw.edges()) {
      if (down[e.first] == 0 && down[e.second] == 0) kept.push_back(e);
    }
    return graph::Graph(n, kept);
  };

  lm::HandoffEngine engine;
  engine.set_resilience(&arq, &down);
  Size crashes = 0;
  graph::Graph g = effective_graph(0.0);
  engine.prime(builder.build(g, scenario.ids, scenario.mobility->positions()), 0.0);
  for (NodeId v = 0; v < n; ++v) {
    if (down[v] != 0) {
      ++crashes;
      engine.on_node_down(v, 0.0);
    }
  }
  check_one_holder_per_entry(engine, "prime", 0);

  for (int tick = 1; tick <= ticks; ++tick) {
    const auto now = static_cast<Time>(tick);
    scenario.mobility->advance_to(now);
    g = effective_graph(now);
    engine.update(builder.build(g, scenario.ids, scenario.mobility->positions()), g, now);
    check_one_holder_per_entry(engine, "update", tick);
    for (NodeId v = 0; v < n; ++v) {
      if (down[v] != 0 && prev_down[v] == 0) {
        ++crashes;
        engine.on_node_down(v, now);
        check_one_holder_per_entry(engine, "on_node_down", tick);
      } else if (down[v] == 0 && prev_down[v] != 0) {
        engine.on_node_up(g, v, now);
        check_one_holder_per_entry(engine, "on_node_up", tick);
      }
    }
    if (tick % 3 == 0) {
      engine.audit_repair(g, now);
      check_one_holder_per_entry(engine, "audit_repair", tick);
    }
  }
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(engine.resilience().failed_transfers, 0u);
  EXPECT_GT(engine.resilience().repairs, 0u);
}

TEST(Invariants, HandoffTotalsEqualSumOfLevels) {
  exp::ScenarioConfig cfg;
  cfg.n = 200;
  cfg.seed = 33;
  cfg.radius_policy = exp::RadiusPolicy::kMeanDegree;
  auto scenario = exp::Scenario::materialize(cfg);
  net::UnitDiskBuilder disk(cfg.tx_radius(), true);
  cluster::HierarchyBuilder builder;
  lm::HandoffEngine engine;

  graph::Graph g = disk.build(scenario.mobility->positions());
  engine.prime(builder.build(g, scenario.ids), 0.0);
  for (int tick = 1; tick <= 15; ++tick) {
    scenario.mobility->advance_to(static_cast<Time>(tick));
    g = disk.build(scenario.mobility->positions());
    engine.update(builder.build(g, scenario.ids), g, static_cast<Time>(tick));
  }

  PacketCount phi = 0, gamma = 0;
  for (const auto& lvl : engine.per_level()) {
    phi += lvl.phi_packets;
    gamma += lvl.gamma_packets;
  }
  EXPECT_EQ(phi, engine.total_phi());
  EXPECT_EQ(gamma, engine.total_gamma());
}

TEST(Invariants, TickRateRobustness) {
  // Halving the sampling tick must not change measured rates wildly (the
  // Delta-t validation promised in DESIGN.md). Rates are tick-sensitive for
  // fast events, so allow a 2x band.
  exp::ScenarioConfig coarse;
  coarse.n = 200;
  coarse.seed = 35;
  coarse.warmup = 5.0;
  coarse.duration = 20.0;
  coarse.tick = 1.0;
  coarse.radius_policy = exp::RadiusPolicy::kMeanDegree;
  auto fine = coarse;
  fine.tick = 0.5;

  exp::RunOptions opts;
  opts.track_events = false;
  opts.track_states = false;
  opts.measure_hops = false;
  const auto mc = exp::run_simulation(coarse, opts);
  const auto mf = exp::run_simulation(fine, opts);
  const double rc = mc.get("total_rate");
  const double rf = mf.get("total_rate");
  EXPECT_LT(rf / rc, 2.0);
  EXPECT_GT(rf / rc, 0.5);
}

}  // namespace
}  // namespace manet
