/// Bit-identity of the sharded tick (RunOptions::threads, RunOptions::shards).
///
/// The contract (sim/shard.hpp): the tick always runs over one ShardExecutor
/// whose topology is chosen at run start (resolve_shard_count; --shards,
/// 0 = auto from the worker count), every per-shard output is merged in
/// shard index order, and boundary work is owned by exactly one shard — so
/// every run product (flattened RunMetrics, trace stream, metrics registry)
/// must be byte-identical at *any* shard count x *any* thread count. The
/// suite pins shards {1, 4, 16, 64} x threads {1, 2, 8} for the
/// faulted-sessions and query-serving regimes, each cell against the
/// threads = 1 run (one inline shard), and checks one cell against the
/// full-tick oracle (incremental_tick = false: stateless unit-disk rebuild
/// and builder hierarchies every tick). Like the golden fixtures, the config
/// uses a dyadic tick (0.5) so float accumulation is order-exact and
/// byte-identity is a meaningful contract.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "cluster/hierarchy_builder.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "exp/simulation.hpp"
#include "lm/handoff.hpp"
#include "net/link_tracker.hpp"
#include "net/unit_disk.hpp"
#include "sim/shard.hpp"
#include "sim/trace.hpp"

using namespace manet;

namespace {

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

exp::ScenarioConfig base_config() {
  exp::ScenarioConfig cfg;
  cfg.n = 96;
  cfg.density = 1.0;
  cfg.mu = 1.0;
  cfg.radius_policy = exp::RadiusPolicy::kMeanDegree;
  cfg.target_degree = 12.0;
  cfg.tick = 0.5;  // dyadic — see file comment
  cfg.warmup = 2.0;
  cfg.duration = 6.0;
  cfg.seed = 424242;
  return cfg;
}

/// Faults + long-lived sessions: covers the ARQ-attached regime, where batch
/// pricing shards over the executor while the per-transfer RNG stream must
/// still be consumed in loop order.
exp::ScenarioConfig faulted_sessions_config() {
  auto cfg = base_config();
  cfg.fault.loss = 0.05;
  cfg.fault.crash_rate = 0.02;
  cfg.fault.mean_downtime = 3.0;
  cfg.sessions = true;
  return cfg;
}

std::string serialize(const exp::RunMetrics& metrics) {
  std::string out;
  for (const auto& [name, value] : metrics.values) {
    out += name + '=' + fmt(value) + '\n';
  }
  return out;
}

std::string serialize(const sim::TraceSink& sink) {
  std::string out;
  for (const auto& e : sink.snapshot()) {
    out += fmt(e.t);
    out += ' ';
    out += sim::to_string(e.type);
    out += " k=" + std::to_string(e.level);
    out += " a=" + std::to_string(e.a);
    out += " b=" + std::to_string(e.b);
    out += " v=" + fmt(e.value);
    out += '\n';
  }
  out += "seen=" + std::to_string(sink.seen()) + '\n';
  return out;
}

/// alloc.* exists only under MANET_PROFILE_ALLOC.
std::string serialize(const common::MetricsRegistry& registry) {
  std::string out;
  for (const auto& entry : registry.entries()) {
    if (entry.name.rfind("alloc.", 0) == 0) continue;
    switch (entry.kind) {
      case common::MetricsRegistry::Entry::Kind::kCounter:
        out += "C " + entry.name + " " + std::to_string(entry.counter->value());
        break;
      case common::MetricsRegistry::Entry::Kind::kGauge:
        out += "G " + entry.name + " " + fmt(entry.gauge->value());
        break;
      case common::MetricsRegistry::Entry::Kind::kRateMeter:
        out += "R " + entry.name + " " + std::to_string(entry.rate_meter->total());
        break;
      case common::MetricsRegistry::Entry::Kind::kHistogram:
        out += "H " + entry.name + " " + std::to_string(entry.histogram->count()) +
               " " + fmt(entry.histogram->sum()) + " " + fmt(entry.histogram->max_seen());
        break;
    }
    out += '\n';
  }
  return out;
}

struct Products {
  std::string metrics;
  std::string trace;
  std::string registry;
};

Products run_with_threads(const exp::ScenarioConfig& cfg, Size threads,
                          Size query_load = 0, Size shards = 0,
                          bool incremental_tick = true) {
  exp::RunOptions opts;
  opts.run_gls = true;
  opts.track_registration = true;
  opts.measure_routing = true;
  opts.threads = threads;
  opts.shards = shards;
  opts.query_load = query_load;
  opts.incremental_tick = incremental_tick;
  common::MetricsRegistry registry;
  sim::TraceSink trace;
  opts.metrics = &registry;
  opts.trace = &trace;
  const auto metrics = exp::run_simulation(cfg, opts);
  return Products{serialize(metrics), serialize(trace), serialize(registry)};
}

void expect_same_products(const Products& want, const Products& got, const std::string& cell) {
  EXPECT_EQ(want.metrics, got.metrics) << "RunMetrics diverged" << cell;
  EXPECT_EQ(want.trace, got.trace) << "trace stream diverged" << cell;
  EXPECT_EQ(want.registry, got.registry) << "registry diverged" << cell;
}

/// The full topology sweep: shards {1, 4, 16, 64} x threads {1, 2, 8}, every
/// cell compared against the threads = 1 run (auto topology: one inline
/// shard). One cell is also rerun on the full-tick oracle, which must match
/// too.
void expect_shard_count_identity(const exp::ScenarioConfig& cfg,
                                 Size query_load = 0) {
  const auto reference = run_with_threads(cfg, 1, query_load, 0);
  for (const Size shards : {Size{1}, Size{4}, Size{16}, Size{64}}) {
    for (const Size threads : {Size{1}, Size{2}, Size{8}}) {
      const auto cell = run_with_threads(cfg, threads, query_load, shards);
      expect_same_products(reference, cell,
                           " at shards=" + std::to_string(shards) +
                               " threads=" + std::to_string(threads));
    }
  }
  expect_same_products(reference,
                       run_with_threads(cfg, 2, query_load, 4, /*incremental_tick=*/false),
                       " from the full-tick oracle at shards=4 threads=2");
}

void expect_thread_identity(const exp::ScenarioConfig& cfg) {
  const auto reference = run_with_threads(cfg, 1);
  expect_same_products(reference, run_with_threads(cfg, 2), " at threads=2");
  expect_same_products(reference, run_with_threads(cfg, 8), " at threads=8");
}

TEST(ShardedTick, FaultFreeRunIsThreadCountInvariant) {
  expect_thread_identity(base_config());
}

TEST(ShardedTick, FaultedSessionsRunIsThreadCountInvariant) {
  expect_thread_identity(faulted_sessions_config());
}

TEST(ShardedTick, QueryServingRunIsThreadCountInvariant) {
  // The query plane (RunOptions::query_load, lm::QueryEngine) serves its
  // deterministic lookup stream over the run's shard slices and folds them
  // commutatively, so query_lookups / query_hits / query_digest must be
  // byte-identical at every thread count.
  const auto cfg = base_config();
  const auto reference = run_with_threads(cfg, 1, /*query_load=*/512);
  EXPECT_NE(reference.metrics.find("query_digest"), std::string::npos)
      << "query plane was not enabled";
  expect_same_products(reference, run_with_threads(cfg, 2, 512), " at threads=2");
  expect_same_products(reference, run_with_threads(cfg, 8, 512), " at threads=8");
}

TEST(ShardedTick, FaultedSessionsRunIsShardCountInvariant) {
  // The ARQ-attached faulted + sessions regime across the full
  // shards x threads grid.
  expect_shard_count_identity(faulted_sessions_config());
}

TEST(ShardedTick, QueryServingRunIsShardCountInvariant) {
  // The query plane slices its lookup stream over the RESOLVED shard count
  // and folds per-shard digests with a commutative sum, so query_lookups /
  // query_hits / query_digest are invariant to the partitioning too.
  expect_shard_count_identity(base_config(), /*query_load=*/512);
}

TEST(ShardedTick, ExplicitShardsOnOneWorkerMatchesSequential) {
  // threads=1 + shards>0 runs four shards inline on the calling thread; it
  // must match the one-shard run bit-for-bit.
  const auto cfg = base_config();
  expect_same_products(run_with_threads(cfg, 1), run_with_threads(cfg, 1, 0, /*shards=*/4),
                       " at shards=4 threads=1");
}

TEST(ShardedTick, HardwareConcurrencyMatchesSequential) {
  const auto cfg = base_config();
  expect_same_products(run_with_threads(cfg, 1), run_with_threads(cfg, 0),
                       " at threads=0 (hardware concurrency)");
}

/// One tick pipeline driven component by component (the way a caller that
/// never touches the executor drives it): unit-disk delta, link diff,
/// hierarchy build, priced entry moves.
struct TickArm {
  net::UnitDiskBuilder disk;
  cluster::HierarchyBuilder builder;
  lm::HandoffEngine handoff;
  std::unique_ptr<net::LinkTracker> links;
  common::MetricsRegistry registry;
  std::string log;
  Size entries_moved = 0;

  explicit TickArm(double tx_radius) : disk(tx_radius, /*ensure_connected=*/true) {
    handoff.set_metrics(&registry);
    handoff.set_fast_pricing(true);
  }

  void attach(sim::ShardExecutor* executor) {
    disk.set_parallel(executor);
    handoff.set_parallel(executor);
    if (links) links->set_parallel(executor);
  }

  void prime(const exp::Scenario& scenario) {
    const auto& g = disk.update(scenario.mobility->positions());
    handoff.prime(builder.build(g, scenario.ids, scenario.mobility->positions()), 0.0);
    links = std::make_unique<net::LinkTracker>(g, 0.0);
    links->set_metrics(&registry);
  }

  void tick(const exp::Scenario& scenario, Time t) {
    const auto& g = disk.update(scenario.mobility->positions());
    net::LinkDelta delta;
    links->update_into(g, t, delta);
    const auto h = builder.build(g, scenario.ids, scenario.mobility->positions());
    const auto moved = handoff.update(h, g, t);
    entries_moved += moved.entries_moved;
    log += "t=" + fmt(t) + " edges=" + std::to_string(g.edge_count());
    for (const auto& e : disk.links_up()) log += " +" + std::to_string(e.first) + "-" +
                                                 std::to_string(e.second);
    for (const auto& e : disk.links_down()) log += " -" + std::to_string(e.first) + "-" +
                                                   std::to_string(e.second);
    log += " up=" + std::to_string(delta.up.size()) +
           " down=" + std::to_string(delta.down.size()) +
           " phi=" + std::to_string(moved.phi_packets) +
           " gamma=" + std::to_string(moved.gamma_packets) +
           " moved=" + std::to_string(moved.entries_moved) + '\n';
  }
};

TEST(ShardedTick, UnattachedComponentsMatchPoolExecutor) {
  // Components never given set_parallel run on sim::kInlineExecutor; they
  // must match a 16-shard pool executor byte for byte, and set_parallel
  // (nullptr) must restore that default.
  auto cfg = base_config();
  cfg.n = 160;
  auto scenario = exp::Scenario::materialize(cfg);
  common::ThreadPool pool(4);
  sim::ShardExecutor exec(pool, sim::kDefaultShardCount);

  TickArm plain(cfg.tx_radius()), pooled(cfg.tx_radius()), restored(cfg.tx_radius());
  pooled.attach(&exec);
  restored.attach(&exec);
  for (TickArm* arm : {&plain, &pooled, &restored}) arm->prime(scenario);
  pooled.attach(&exec);  // now reaches the link tracker too
  restored.attach(&exec);
  restored.attach(nullptr);
  for (Size i = 1; i <= 12; ++i) {
    const Time t = 0.5 * static_cast<Time>(i);
    scenario.mobility->advance_to(t);
    for (TickArm* arm : {&plain, &pooled, &restored}) arm->tick(scenario, t);
  }
  EXPECT_GT(plain.entries_moved, 0u) << "no entry moved: the pricing path went untested";
  EXPECT_EQ(plain.log, pooled.log);
  EXPECT_EQ(plain.log, restored.log);
  EXPECT_EQ(serialize(plain.registry), serialize(pooled.registry));
  EXPECT_EQ(serialize(plain.registry), serialize(restored.registry));
}

}  // namespace
