#include "exp/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "cluster/diff.hpp"
#include "cluster/hierarchy_builder.hpp"
#include "cluster/repair.hpp"
#include "common/alloc_profile.hpp"
#include "cluster/maxmin.hpp"
#include "cluster/stability.hpp"
#include "cluster/state_chain.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "exp/session_bridge.hpp"
#include "graph/bfs.hpp"
#include "common/hash.hpp"
#include "lm/address.hpp"
#include "lm/gls.hpp"
#include "lm/query_engine.hpp"
#include "lm/registration.hpp"
#include "lm/reliable.hpp"
#include "net/link_tracker.hpp"
#include "net/lossy_channel.hpp"
#include "net/unit_disk.hpp"
#include "routing/table.hpp"
#include "sim/fault.hpp"
#include "sim/shard.hpp"

namespace manet::exp {

void RunMetrics::set(std::string name, double value) {
  index_.emplace(name, values.size());  // first occurrence wins
  values.emplace_back(std::move(name), value);
}

double RunMetrics::get(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) return std::numeric_limits<double>::quiet_NaN();
  return values[it->second].second;
}

bool RunMetrics::has(const std::string& name) const {
  // Single lookup (has() used to call get(), doubling the old linear scan);
  // a metric explicitly set to NaN still reads as absent, as before.
  const auto it = index_.find(name);
  return it != index_.end() && !std::isnan(values[it->second].second);
}

namespace {

std::string keyed(const char* base, Level k) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s.%u", base, k);
  return buf;
}

/// The differ's taxonomy enums map 1:1 onto the trace vocabulary ((i)-(vii)
/// in declaration order on both sides).
sim::TraceEventType trace_type_of(cluster::ReorgEventType type) {
  return static_cast<sim::TraceEventType>(
      static_cast<std::uint8_t>(sim::TraceEventType::kReorgLinkUp) +
      static_cast<std::uint8_t>(type));
}

/// Sampled mean level-0 hop count between nodes sharing a level-k cluster
/// (the paper's h_k, eq. (3)). Each pair is one exact bidirectional query,
/// equal to a full BFS's distance but touching only the pair's surroundings.
double measure_hk(const cluster::Hierarchy& h, const graph::Graph& g, Level k, Size pairs,
                  common::Xoshiro256& rng, graph::BfsPairScratch& bfs) {
  double sum = 0.0;
  Size measured = 0;
  const Size n_clusters = h.cluster_count(k);
  for (Size attempt = 0; attempt < pairs * 4 && measured < pairs; ++attempt) {
    const auto c = static_cast<NodeId>(common::uniform_index(rng, n_clusters));
    const auto& members = h.members0(k, c);
    if (members.size() < 2) continue;
    const NodeId u = members[common::uniform_index(rng, members.size())];
    const NodeId v = members[common::uniform_index(rng, members.size())];
    if (u == v) continue;
    const auto hops = bfs.hops(g, u, v);
    if (hops == graph::kUnreachable) continue;
    sum += hops;
    ++measured;
  }
  return measured > 0 ? sum / static_cast<double>(measured) : 0.0;
}

}  // namespace

std::vector<ScenarioConfig::Error> RunOptions::validate() const {
  std::vector<ScenarioConfig::Error> errors;
  if (threads > sim::kMaxShardCount) {
    errors.push_back({"threads", "must be <= " + std::to_string(sim::kMaxShardCount)});
  }
  return errors;
}

RunMetrics run_simulation(const ScenarioConfig& config, const RunOptions& options) {
  auto errors = config.validate();
  const auto run_errors = options.validate();
  errors.insert(errors.end(), run_errors.begin(), run_errors.end());
  std::string invalid;
  for (const auto& e : errors) invalid += (invalid.empty() ? "" : "; ") + e.field + " " + e.rule;
  MANET_CHECK_MSG(errors.empty(), invalid.c_str());

  // Allocation accounting (MANET_PROFILE_ALLOC builds only): setup covers
  // everything up to the first measured tick — materialization, the initial
  // hierarchy, warmup — and ticks covers the measured window. Published as
  // alloc.* metrics below; a no-op zero in default builds.
  const auto alloc_at_start = common::alloc_profile::totals();

  // Draw a connected initial deployment (the paper assumes G connected);
  // retry with derived seeds, keep the last draw if none connects.
  //
  // The builder augments every returned graph to connectivity, so testing
  // is_connected() on its output can never fail — which silently disabled
  // this retry loop for years of ticks. Raw-draw connectivity is instead
  // judged by whether augmentation had to add bridges.
  ScenarioConfig cfg = config;
  Scenario scenario = Scenario::materialize(cfg);
  net::UnitDiskBuilder disk(cfg.tx_radius(), /*ensure_connected=*/true);
  graph::Graph g0 = disk.build(scenario.mobility->positions());
  bool raw_connected = disk.last_augmented_edges() == 0;
  for (int attempt = 1; attempt < cfg.connect_attempts && !raw_connected; ++attempt) {
    cfg.seed = common::derive_seed(
        config.seed, 0xFACE0000ULL + static_cast<unsigned long long>(attempt));
    scenario = Scenario::materialize(cfg);
    g0 = disk.build(scenario.mobility->positions());
    raw_connected = disk.last_augmented_edges() == 0;
  }

  cluster::HierarchyOptions hopts;
  hopts.geometric_links = cfg.geometric_links;
  hopts.beta = cfg.link_beta;
  hopts.tx_radius = cfg.tx_radius();
  hopts.max_levels = cfg.max_levels;
  std::shared_ptr<const cluster::ElectionAlgorithm> algo;
  switch (cfg.cluster_algo) {
    case ClusterAlgo::kAlca: algo = std::make_shared<cluster::Alca>(); break;
    case ClusterAlgo::kMaxMin1: algo = std::make_shared<cluster::MaxMinDCluster>(1); break;
    case ClusterAlgo::kMaxMin2: algo = std::make_shared<cluster::MaxMinDCluster>(2); break;
  }
  cluster::HierarchyBuilder builder(algo, hopts);

  // Localized repair replaces the per-tick builder call on changed ticks of
  // the incremental path: consume the level-0 link delta, re-elect only in
  // the dirty neighborhoods, splice unaffected levels through. Only ALCA has
  // an incremental election; other algorithms keep the builder.
  const bool repair_enabled = options.incremental_tick && options.localized_repair &&
                              cfg.cluster_algo == ClusterAlgo::kAlca;
  cluster::HierarchyRepairer repairer(hopts);

  lm::HandoffEngine handoff(cfg.handoff);
  handoff.set_metrics(options.metrics);
  handoff.set_trace(options.trace);

  // --- Sharded tick --- The heavy per-tick phases (unit-disk delta, link
  // diffing, pricing, routing tables and session fates, the query plane)
  // run over one executor whose grid is resolved from RunOptions::shards
  // (0 = auto from the worker count; sim::resolve_shard_count).
  // threads == 1 runs it inline on this thread;
  // any other value gives it a per-run pool. Per-shard outputs merge in
  // shard index order, so every artifact of the run is bit-identical
  // regardless of options.threads AND options.shards (see sim/shard.hpp).
  std::unique_ptr<common::ThreadPool> tick_pool;
  if (options.threads != 1) tick_pool = std::make_unique<common::ThreadPool>(options.threads);
  sim::ShardExecutor tick_shards =
      tick_pool != nullptr
          ? sim::ShardExecutor(*tick_pool, sim::resolve_shard_count(options.shards,
                                                                    tick_pool->thread_count()))
          : sim::ShardExecutor(sim::resolve_shard_count(options.shards, 1));
  disk.set_parallel(&tick_shards);
  handoff.set_parallel(&tick_shards);
  cluster::StateChainTracker states;
  cluster::HeadLifetimeTracker tenures;
  common::Xoshiro256 hop_rng(common::derive_seed(cfg.seed, 0xB0F5));

  // GLS rides on a bounding square of the disk region, level-1 cells sized
  // to the radio range (as GLS prescribes).
  std::unique_ptr<lm::GlsHandoffTracker> gls;
  if (options.run_gls) {
    const auto* disk_region = dynamic_cast<const geom::DiskRegion*>(scenario.region.get());
    MANET_CHECK_MSG(disk_region != nullptr, "GLS comparison expects a disk region");
    const double r = disk_region->radius();
    const geom::Vec2 origin = disk_region->center() - geom::Vec2{r, r};
    gls = std::make_unique<lm::GlsHandoffTracker>(
        lm::GridHierarchy::cover(origin, 2.0 * r, cfg.tx_radius()));
  }

  // --- Fault plane (nothing below is constructed on the fault-free path,
  // keeping fault-off runs bit-identical to builds without this block) ---
  const bool faulted = cfg.fault.enabled();
  const Time horizon = cfg.warmup + cfg.duration;
  std::unique_ptr<sim::FaultInjector> injector;
  std::unique_ptr<net::LossyChannel> channel;
  std::unique_ptr<lm::ReliableTransfer> arq;
  std::unique_ptr<common::Xoshiro256> probe_rng;
  std::vector<std::uint8_t> down, prev_down;
  Size crash_events = 0, rejoin_events = 0;
  double probe_sum = 0.0;
  Size probes = 0;
  if (faulted) {
    injector = std::make_unique<sim::FaultInjector>(
        cfg.fault, cfg.n, cfg.warmup, horizon, common::derive_seed(cfg.seed, 0xFA017));
    channel = std::make_unique<net::LossyChannel>(cfg.fault,
                                                  common::derive_seed(cfg.seed, 0xC4A2));
    arq = std::make_unique<lm::ReliableTransfer>(*channel, cfg.fault.retry_budget,
                                                 cfg.fault.arq_timeout,
                                                 cfg.fault.arq_backoff);
    probe_rng = std::make_unique<common::Xoshiro256>(common::derive_seed(cfg.seed, 0x9B0B));
    down.assign(cfg.n, 0);
    prev_down.assign(cfg.n, 0);
    handoff.set_resilience(arq.get(), &down);
  }
  // --- Session/handover plane (experiment E29; constructed only when
  // cfg.sessions, so plain runs stay bit-identical to builds without it) ---
  std::unique_ptr<lm::HandoverManager> handover;
  std::unique_ptr<traffic::SessionWorkload> sessions;
  std::unique_ptr<LmSessionLocator> locator;
  std::unique_ptr<routing::RoutingTables> session_tables;
  if (cfg.sessions) {
    lm::HandoverFsmConfig hocfg = cfg.handover;
    // signal_loss < 0 inherits the fault plane's Bernoulli loss (zero on
    // fault-free runs: procedures then complete within their spawn tick).
    if (hocfg.signal_loss < 0.0) hocfg.signal_loss = faulted ? cfg.fault.loss : 0.0;
    handover = std::make_unique<lm::HandoverManager>(
        hocfg, common::derive_seed(cfg.seed, 0x480F5));
    handover->set_down(faulted ? &down : nullptr);
    handover->set_metrics(options.metrics);
    handover->set_trace(options.trace);
    handoff.set_handover_observer(handover.get());
    sessions = std::make_unique<traffic::SessionWorkload>(
        cfg.session, common::derive_seed(cfg.seed, 0x5E55));
    sessions->set_metrics(options.metrics);
    sessions->set_parallel(&tick_shards);
    locator = std::make_unique<LmSessionLocator>(handoff, handover.get(),
                                                 faulted ? &down : nullptr);
  }

  // --- Query-serving plane (experiment E31; constructed only when
  // options.query_load > 0, keeping plain runs bit-identical to builds
  // without it). Each measured tick publishes one epoch and serves
  // query_load lookups whose targets are a pure function of the global
  // lookup index. Partial hit counts and digest contributions are computed
  // per slice of the run's shard topology and folded with commutative,
  // associative operations (integer sum, wrapping sum), so the query_*
  // metrics are invariant to how the lookup range is partitioned — never a
  // function of options.threads or options.shards.
  std::unique_ptr<lm::QueryEngine> query_engine;
  if (options.query_load > 0) {
    query_engine = std::make_unique<lm::QueryEngine>(cfg.handoff.select);
    query_engine->set_parallel(&tick_shards);
  }
  const Size query_shards = tick_shards.shard_count();
  std::vector<Size> query_shard_hits(query_shards, 0);
  std::vector<std::uint64_t> query_shard_digests(query_shards, 0);
  Size query_lookups = 0, query_hits = 0;
  std::uint64_t query_digest = 0x9E3779B97F4A7C15ULL;

  auto refresh_down = [&](Time t) {
    const auto& pos = scenario.mobility->positions();
    for (NodeId v = 0; v < cfg.n; ++v) {
      down[v] = (injector->crashed(v, t) || injector->in_outage(pos[v].x, pos[v].y, t))
                    ? 1
                    : 0;
    }
  };
  // Crashed nodes neither send nor forward: strip their incident edges so
  // the hierarchy re-elects through the survivors (a down clusterhead loses
  // all members and the normal differ machinery records the re-election).
  // The stripped snapshot is cached: when neither the raw topology nor the
  // down-mask changed (\p dirty false), the previous one is returned as is.
  graph::Graph eff;
  std::vector<graph::Edge> strip_scratch;
  bool eff_valid = false;
  auto strip_down = [&](const graph::Graph& gin, bool dirty) -> const graph::Graph* {
    bool any = false;
    for (const auto f : down) any = any || f != 0;
    if (!any) return &gin;
    if (dirty || !eff_valid) {
      strip_scratch.clear();
      for (const auto& e : gin.edges()) {
        if (down[e.first] == 0 && down[e.second] == 0) strip_scratch.push_back(e);
      }
      eff.assign(gin.vertex_count(), strip_scratch);
      eff_valid = true;
    }
    return &eff;
  };

  // --- Warmup: advance mobility without accounting ---
  // The step count is derived once as an integer: accumulating t += cfg.tick
  // in floating point drifts for ticks without an exact binary representation
  // (0.1 summed ten times is not 1.0) and eventually skips or repeats a
  // warmup step on long horizons.
  const auto warmup_ticks = static_cast<Size>(std::floor(cfg.warmup / cfg.tick + 1e-9));
  for (Size i = 1; i <= warmup_ticks; ++i) {
    scenario.mobility->advance_to(static_cast<Time>(i) * cfg.tick);
  }
  const bool inc = options.incremental_tick;
  const graph::Graph* g;  // effective (post-strip) level-0 graph this tick
  if (inc) {
    g = &disk.update(scenario.mobility->positions());
  } else {
    g0 = disk.build(scenario.mobility->positions());
    g = &g0;
  }
  const Time t0 = cfg.warmup;
  if (faulted) {
    refresh_down(t0);
    g = strip_down(*g, /*dirty=*/true);
  }
  cluster::Hierarchy hier = builder.build(*g, scenario.ids, scenario.mobility->positions());
  handoff.prime(hier, t0);
  // Landmark-guided pricing (exact on any pricing graph, so enabling it
  // never changes a priced value; the full-rebuild arm keeps the historical
  // per-pair BFS engine as the bit-identity reference — see
  // net::HopOracle).
  if (inc) handoff.set_fast_pricing(true);
  if (faulted) {
    prev_down = down;
    for (NodeId v = 0; v < cfg.n; ++v) {
      if (down[v] != 0) handoff.on_node_down(v, t0);
    }
  }
  net::LinkTracker links(*g, t0);
  links.set_metrics(options.metrics);
  links.set_parallel(&tick_shards);
  if (gls) gls->prime(scenario.mobility->positions(), scenario.ids, t0);

  std::unique_ptr<lm::RegistrationTracker> registration;
  if (options.track_registration) {
    lm::RegistrationConfig reg_cfg;
    reg_cfg.tx_radius = cfg.tx_radius();
    registration = std::make_unique<lm::RegistrationTracker>(reg_cfg);
    registration->prime(hier, scenario.mobility->positions(), t0);
    if (faulted) registration->set_resilience(arq.get(), &down);
  }

  // --- Measured window: one tick_fn call per sampling instant ---
  // Accumulators for level-k link dynamics and event taxonomy.
  std::vector<double> ek_time_sum;      // sum over ticks of |E_k|
  std::vector<Size> ek_ticks;           // ticks where level k existed
  std::vector<Size> level_link_events;  // level-k link up+down counts
  std::vector<double> nk_time_sum;      // sum over ticks of |V_k|
  double levels_sum = 0.0;              // sum over ticks of the clustered level count
  Size levels_ticks = 0;                // ticks summed into levels_sum
  std::array<std::vector<Size>, cluster::kReorgEventTypeCount> event_counts;
  Size ticks = 0;
  Size augmented_edges = 0;

  auto accumulate_shape = [&](const cluster::Hierarchy& h) {
    levels_sum += static_cast<double>(h.top_level());
    ++levels_ticks;
    // g_k / gprime_k are reported, zero or not, for every level of every
    // hierarchy the run observed, so the link accumulator spans them all.
    if (options.track_events && level_link_events.size() < h.level_count()) {
      level_link_events.resize(h.level_count(), 0);
    }
    for (Level k = 1; k <= h.top_level(); ++k) {
      if (ek_time_sum.size() <= k) {
        ek_time_sum.resize(k + 1, 0.0);
        ek_ticks.resize(k + 1, 0);
        nk_time_sum.resize(k + 1, 0.0);
      }
      ek_time_sum[k] += static_cast<double>(h.level(k).topo.edge_count());
      nk_time_sum[k] += static_cast<double>(h.level(k).vertex_count());
      ++ek_ticks[k];
    }
  };
  accumulate_shape(hier);
  if (options.track_states) {
    states.observe(hier, cfg.tick);
    tenures.observe(hier, t0);
  }

  const Size audit_every =
      faulted ? std::max<Size>(1, static_cast<Size>(std::lround(cfg.fault.audit_period /
                                                                cfg.tick)))
              : 0;
  // Reused across ticks: the freshly built hierarchy and the diff scratch
  // (their internal buffers survive moves/clears, so changed steady-state
  // ticks stop growing the heap).
  cluster::Hierarchy next;
  cluster::HierarchyDelta delta;
  net::LinkDelta link_delta;
  auto tick_fn = [&](const Time now) {
    scenario.mobility->advance_to(now);

    bool topo_changed = true;  // full-rebuild path treats every tick as changed
    bool pos_moved = true;
    if (inc) {
      g = &disk.update(scenario.mobility->positions());
      topo_changed = disk.changed();
      pos_moved = disk.last_moved_nodes() > 0;
    } else {
      g0 = disk.build(scenario.mobility->positions());
      g = &g0;
    }
    augmented_edges += disk.last_augmented_edges();

    bool mask_changed = false;
    if (faulted) {
      std::swap(prev_down, down);
      refresh_down(now);
      mask_changed = down != prev_down;
      g = strip_down(*g, topo_changed || mask_changed);
    }

    // Change gate (incremental path): the hierarchy rebuild and snapshot
    // diff are skipped when nothing they read changed this tick — no level-0
    // edge delta (augmentation included), same down-mask, and either no node
    // moved or level-k links are purely topological (geometric links, paper
    // eq. (7), re-derive from positions on every build). Two identical
    // snapshots diff to an empty delta, so skipping build+diff outright is
    // bit-identical to the full-rebuild path.
    const bool rebuild =
        !inc || topo_changed || mask_changed || (pos_moved && cfg.geometric_links);
    // Changed tick: diff level 0 once, then repair or build the hierarchy
    // and capture the handoff snapshot. The tracker and hier's level 0 both
    // last saw the effective graph of the previous changed tick, so the
    // tracker's delta is the exact level-0 edge delta from hier to *g:
    // bridges and stripped edges included, whatever the down-mask did.
    // Gated tick: !rebuild proves the level-0 edge set and the hierarchy are
    // both unchanged (see the change-gate derivation above), so the link diff
    // and the handoff snapshot would compare equal everywhere — skip their
    // recomputation outright. Bit-identical by the same argument as the
    // build+diff skip.
    if (rebuild) {
      links.update_into(*g, now, link_delta);
      if (repair_enabled) {
        repairer.repair(*g, link_delta.up, link_delta.down, scenario.ids,
                        scenario.mobility->positions(), hier, next);
      } else {
        next = builder.build(*g, scenario.ids, scenario.mobility->positions());
      }
      handoff.update(next, *g, now);
    } else {
      links.advance_unchanged(now);
      handoff.advance_unchanged(now);
    }
    const cluster::Hierarchy& hnow = rebuild ? next : hier;
    if (faulted) {
      for (NodeId v = 0; v < cfg.n; ++v) {
        if (down[v] != 0 && prev_down[v] == 0) {
          ++crash_events;
          handoff.on_node_down(v, now);
        } else if (down[v] == 0 && prev_down[v] != 0) {
          ++rejoin_events;
          handoff.on_node_up(*g, v, now);
        }
      }
      if ((ticks + 1) % audit_every == 0) {
        handoff.audit_repair(*g, now);
        probe_sum += handoff.query_probe(*probe_rng, cfg.fault.probe_pairs);
        ++probes;
      }
    }
    if (gls) gls->update(scenario.mobility->positions(), *g, scenario.ids, now);
    if (registration) {
      registration->update(hnow, handoff, *g, scenario.mobility->positions(), now);
    }

    if (options.track_events && rebuild) {
      cluster::diff_hierarchies(hier, next, delta);
      if (options.trace != nullptr) {
        for (const auto& m : delta.migrations) {
          options.trace->record(
              sim::TraceEvent{now, sim::TraceEventType::kMigration, m.level, m.node, m.to_head});
        }
        for (const auto& ev : delta.events) {
          options.trace->record(
              sim::TraceEvent{now, trace_type_of(ev.type), ev.level, ev.a, ev.b});
        }
      }
      for (std::size_t type = 0; type < cluster::kReorgEventTypeCount; ++type) {
        auto& acc = event_counts[type];
        const auto& per_level = delta.event_counts[type];
        if (acc.size() < per_level.size()) acc.resize(per_level.size(), 0);
        for (Level k = 0; k < per_level.size(); ++k) acc[k] += per_level[k];
      }
      for (Level k = 1; k < delta.links_up.size(); ++k) {  // links_down has the same size
        if (level_link_events.size() <= k) level_link_events.resize(k + 1, 0);
        level_link_events[k] += delta.links_up[k].size() + delta.links_down[k].size();
      }
    }

    if (rebuild) hier = std::move(next);

    // Session/handover plane: the FSMs advance every tick (pending deadlines
    // fire on gated ticks too), then each live session resolves through the
    // locator and routes once for all its packets, over tables rebuilt only
    // on changed ticks (a gated tick proves the level-0 graph and hierarchy
    // are both unchanged, so the cached tables stay exact). The rebuild and
    // the fates run over the tick's shards.
    if (cfg.sessions) {
      handover->tick(now);
      if (rebuild || session_tables == nullptr) {
        session_tables.reset();  // free the stale set first: two would set the memory peak
        session_tables = std::make_unique<routing::RoutingTables>(*g, hier, tick_shards);
      }
      traffic::SessionWorkload::TickContext sctx;
      sctx.tables = session_tables.get();
      sctx.locator = locator.get();
      sctx.down = faulted ? &down : nullptr;
      sctx.node_count = cfg.n;
      sctx.now = now;
      sctx.dt = cfg.tick;
      sessions->tick_sessions(sctx);
    }
    // Query-serving plane: the tick's write phase is done — publish the new
    // epoch and serve this tick's lookup load against it, sharded over the
    // tick executor (the commutative fold makes every partition identical).
    // Each shard slice holds one Reader, so it pins the epoch once rather
    // than once per lookup.
    if (query_engine) {
      query_engine->publish(hier, handoff.database(), now);
      const std::uint64_t tick_base =
          static_cast<std::uint64_t>(ticks) * static_cast<std::uint64_t>(options.query_load);
      tick_shards.for_each_shard([&](Size shard) {
        const auto [begin, end] =
            sim::ShardExecutor::slice(options.query_load, shard, query_shards);
        const lm::QueryEngine::Reader reader(*query_engine);
        Size hits = 0;
        std::uint64_t digest = 0;
        for (Size q = begin; q < end; ++q) {
          // Weyl-style target mixing: owners sweep the id space evenly, the
          // level cycles over [2, 4] (levels above the current top answer
          // found = false, deterministically).
          const std::uint64_t gq = tick_base + q;
          const auto owner = static_cast<NodeId>((gq * 2654435761ULL) % cfg.n);
          const Level k = lm::kFirstServedLevel + static_cast<Level>(gq % 3);
          const lm::QueryResult r = reader.lookup(owner, k);
          hits += r.found ? 1 : 0;
          // Per-lookup contribution folded with a wrapping sum. Unlike the
          // old chained-FNV-per-slice scheme, a sum of per-lookup mixes is
          // commutative and associative, so the digest is invariant to how
          // [0, query_load) is partitioned: any shard count and any thread
          // count fold to the same word.
          const std::uint64_t answer = (static_cast<std::uint64_t>(r.server) << 32) ^
                                       r.version ^ (r.found ? 1ULL : 0ULL);
          digest += common::mix64(gq ^ common::mix64(answer));
        }
        query_shard_hits[shard] = hits;
        query_shard_digests[shard] = digest;
      });
      Size tick_hits = 0;
      for (Size shard = 0; shard < query_shards; ++shard) {
        tick_hits += query_shard_hits[shard];
        query_digest += query_shard_digests[shard];
      }
      query_hits += tick_hits;
      query_lookups += options.query_load;
      if (options.metrics != nullptr) {
        options.metrics->counter("lm.query_lookups").add(options.query_load);
        options.metrics->counter("lm.query_hits").add(tick_hits);
        options.metrics->gauge("lm.query_epoch")
            .set(static_cast<double>(query_engine->epoch()));
      }
    }
    accumulate_shape(hier);
    if (options.track_states) {
      states.observe(hier, cfg.tick);
      tenures.observe(hier, now);
      if (options.metrics != nullptr) states.publish(*options.metrics);
    }
    ++ticks;
    if (options.metrics != nullptr) {
      options.metrics->counter("sim.ticks").add(1);
      options.metrics->gauge("sim.now").set(now);
    }
  };
  // The i-th measured tick runs at t0 + i * tick (one multiply per tick —
  // no accumulated rounding), and exactly total_ticks of them run, so the
  // measured sample count is a pure function of (duration, tick) on any
  // horizon.
  const auto total_ticks = static_cast<Size>(std::floor(cfg.duration / cfg.tick + 1e-9));
  const auto alloc_at_measure = common::alloc_profile::totals();
  for (Size i = 1; i <= total_ticks; ++i) tick_fn(t0 + static_cast<Time>(i) * cfg.tick);

  // Per-phase allocator traffic. Guarded on enabled() so that default builds
  // publish nothing and every artifact stays byte-identical to an
  // uninstrumented binary.
  if (common::alloc_profile::enabled() && options.metrics != nullptr) {
    const auto setup = common::alloc_profile::delta(alloc_at_measure, alloc_at_start);
    const auto measured =
        common::alloc_profile::delta(common::alloc_profile::totals(), alloc_at_measure);
    options.metrics->counter("alloc.setup.count").add(setup.allocations);
    options.metrics->counter("alloc.setup.bytes").add(setup.bytes);
    options.metrics->counter("alloc.ticks.count").add(measured.allocations);
    options.metrics->counter("alloc.ticks.bytes").add(measured.bytes);
    if (total_ticks > 0) {
      options.metrics->gauge("alloc.per_tick")
          .set(static_cast<double>(measured.allocations) /
               static_cast<double>(total_ticks));
    }
  }

  // --- Flatten metrics ---
  RunMetrics out;
  const double n = static_cast<double>(cfg.n);
  const double window = handoff.elapsed();
  out.set("connected0", raw_connected ? 1.0 : 0.0);
  out.set("augmented_per_tick",
          ticks > 0 ? static_cast<double>(augmented_edges) / static_cast<double>(ticks) : 0.0);
  out.set("ticks", static_cast<double>(ticks));
  out.set("window", window);
  out.set("tx_radius", cfg.tx_radius());

  out.set("phi_rate", handoff.phi_rate());
  out.set("gamma_rate", handoff.gamma_rate());
  out.set("total_rate", handoff.phi_rate() + handoff.gamma_rate());
  out.set("unreachable", static_cast<double>(handoff.unreachable_transfers()));
  out.set("level_churn", static_cast<double>(handoff.level_churn_entries()));
  out.set("f0", links.events_per_node_per_second());

  const Level max_level = static_cast<Level>(
      std::max<std::size_t>(handoff.per_level().size(), ek_time_sum.size()));
  for (Level k = 1; k < max_level; ++k) {
    if (k < handoff.per_level().size()) {
      out.set(keyed("phi_k", k), handoff.phi_rate_at(k));
      out.set(keyed("gamma_k", k), handoff.gamma_rate_at(k));
      out.set(keyed("f_k", k), handoff.migration_rate(k));
    }
    if (k < ek_time_sum.size() && ek_ticks[k] > 0) {
      const double mean_ek = ek_time_sum[k] / static_cast<double>(ek_ticks[k]);
      const double mean_nk = nk_time_sum[k] / static_cast<double>(ek_ticks[k]);
      out.set(keyed("ek_per_v", k), mean_ek / n);
      out.set(keyed("clusters", k), mean_nk);
      if (k >= 1) {
        const double mean_prev = k == 1 ? n : nk_time_sum[k - 1] /
                                                  static_cast<double>(ek_ticks[k - 1]);
        if (mean_nk > 0.0) out.set(keyed("alpha", k), mean_prev / mean_nk);
      }
      if (k < level_link_events.size() && window > 0.0) {
        const double events = static_cast<double>(level_link_events[k]);
        out.set(keyed("g_k", k), events / (n * window));
        if (mean_ek > 0.0) out.set(keyed("gprime_k", k), events / (mean_ek * window));
      }
    }
  }

  if (levels_ticks > 0) out.set("levels", levels_sum / static_cast<double>(levels_ticks));

  if (options.track_events && window > 0.0) {
    static const char* kEventKeys[cluster::kReorgEventTypeCount] = {
        "ev.i", "ev.ii", "ev.iii", "ev.iv", "ev.v", "ev.vi", "ev.vii"};
    for (std::size_t type = 0; type < cluster::kReorgEventTypeCount; ++type) {
      for (Level k = 0; k < event_counts[type].size(); ++k) {
        if (event_counts[type][k] == 0) continue;
        out.set(keyed(kEventKeys[type], k),
                static_cast<double>(event_counts[type][k]) / (n * window));
      }
    }
  }

  if (options.track_states) {
    for (Level k = 1; k <= tenures.level_count(); ++k) {
      const auto tenure = tenures.stats(k);
      if (tenure.completed > 0) {
        out.set(keyed("tenure_k", k), tenure.mean_lifetime);
      } else if (tenure.ongoing > 0) {
        // No completed tenure in the window: report the censored age as a
        // lower bound (deep heads often outlive the whole run).
        out.set(keyed("tenure_min_k", k), tenure.mean_ongoing_age);
      }
    }
    const auto p = states.p_profile();
    for (Level k = 0; k < p.size(); ++k) out.set(keyed("p_state1", k), p[k]);
    // Recursion profile for the deepest level with at least 2 chain links:
    // p_desc = {p_{k-1}, ..., p_1} with k = top level.
    if (p.size() >= 2) {
      std::vector<double> p_desc(p.rbegin(), p.rend() - 1);  // p[k-1] .. p[1]
      const auto profile = cluster::recursion_profile(p_desc);
      out.set("q1", profile.q.empty() ? 0.0 : profile.q[0]);
      out.set("q1_over_Q", profile.q1_over_Q);
      out.set("q_lower_bound", profile.lower_bound);
    }
  }

  if (options.measure_hops) {
    graph::BfsPairScratch bfs;
    for (Level k = 1; k <= hier.top_level(); ++k) {
      out.set(keyed("h_k", k),
              measure_hk(hier, *g, k, options.hop_sample_pairs, hop_rng, bfs));
    }
  }

  // LM database census on the final state.
  const auto loads = handoff.database().load_vector();
  const auto ls = lm::load_stats(loads);
  out.set("entries_per_node",
          static_cast<double>(handoff.database().total_entries()) / n);
  out.set("load_mean", ls.mean);
  out.set("load_max", ls.max);
  out.set("load_gini", ls.gini);

  double map_sum = 0.0;
  for (NodeId v = 0; v < cfg.n; ++v) {
    map_sum += static_cast<double>(lm::hierarchical_map_size(hier, v));
  }
  out.set("map_size", map_sum / n);

  if (gls) {
    out.set("gls_handoff_rate", gls->handoff_rate());
    out.set("gls_update_rate", gls->update_rate());
    out.set("gls_total_rate", gls->combined_rate());
  }

  if (registration) {
    out.set("reg_rate", registration->rate());
    out.set("reg_updates", static_cast<double>(registration->total_updates()));
    for (Level k = lm::kFirstServedLevel; k < registration->levels_tracked(); ++k) {
      const double r = registration->rate_at(k);
      if (r > 0.0) out.set(keyed("reg_k", k), r);
    }
  }

  if (faulted) {
    // Final repair pass + consistency probe: the acceptance bar is that the
    // repair path restores query success after sustained loss.
    handoff.audit_repair(*g, horizon);
    const double query_final = handoff.query_probe(*probe_rng, cfg.fault.probe_pairs);
    const auto& resil = handoff.resilience();
    out.set("crashes", static_cast<double>(crash_events));
    out.set("rejoins", static_cast<double>(rejoin_events));
    out.set("scheduled_crashes", static_cast<double>(injector->scheduled_crashes()));
    out.set("packets_lossy", static_cast<double>(channel->packets_sent()));
    out.set("packets_dropped", static_cast<double>(channel->packets_dropped()));
    out.set("phi_retx", static_cast<double>(resil.phi_retx));
    out.set("gamma_retx", static_cast<double>(resil.gamma_retx));
    out.set("phi_retx_rate", handoff.phi_retx_rate());
    out.set("gamma_retx_rate", handoff.gamma_retx_rate());
    out.set("failed_transfers", static_cast<double>(resil.failed_transfers));
    out.set("entries_dropped", static_cast<double>(resil.entries_dropped));
    out.set("stale_entries", static_cast<double>(handoff.stale_entries()));
    out.set("repairs", static_cast<double>(resil.repairs));
    out.set("repair_packets", static_cast<double>(resil.repair_packets));
    out.set("mean_time_to_repair", handoff.mean_time_to_repair());
    out.set("query_success_rate", query_final);
    out.set("query_success_mean",
            probes > 0 ? probe_sum / static_cast<double>(probes) : query_final);
    if (registration) {
      out.set("reg_retx", static_cast<double>(registration->total_retx()));
      out.set("reg_retx_rate", registration->retx_rate());
      out.set("reg_failed", static_cast<double>(registration->failed_updates()));
    }
  }

  if (cfg.sessions) {
    sessions->finish(horizon);  // close windows still open at run end
    const auto& ss = sessions->stats();
    out.set("sessions", static_cast<double>(ss.sessions));
    out.set("session_rate", ss.rate(cfg.n));
    out.set("session_undeliverable", static_cast<double>(ss.undeliverable));
    out.set("session_recovered", static_cast<double>(ss.recovered));
    out.set("session_skipped_ticks", static_cast<double>(ss.skipped_ticks));
    out.set("session_packets", static_cast<double>(ss.packets_offered));
    out.set("session_delivered", static_cast<double>(ss.packets_delivered));
    out.set("session_misrouted", static_cast<double>(ss.packets_misrouted));
    out.set("session_misroute_rate", ss.misroute_rate());
    out.set("session_misroute_extra", static_cast<double>(ss.misroute_extra));
    out.set("session_lost", static_cast<double>(ss.packets_lost));
    out.set("session_loss_rate", ss.loss_rate());
    out.set("session_interruptions", static_cast<double>(ss.interruptions));
    out.set("session_interruption_time", ss.interruption_time);
    out.set("session_interruption_p99", sessions->interruption_quantile(0.99));
    const auto& hs = handover->stats();
    out.set("handover_started", static_cast<double>(hs.started));
    out.set("handover_completed", static_cast<double>(hs.completed));
    out.set("handover_retries", static_cast<double>(hs.retries));
    out.set("handover_timeouts", static_cast<double>(hs.timeouts));
    out.set("handover_rollbacks", static_cast<double>(hs.rollbacks));
    out.set("handover_rollback_failures", static_cast<double>(hs.rollback_failures));
    out.set("handover_target_crashes", static_cast<double>(hs.target_crashes));
    out.set("handover_superseded", static_cast<double>(hs.superseded));
    out.set("handover_repaired", static_cast<double>(hs.repaired));
    out.set("handover_retired", static_cast<double>(hs.retired));
    out.set("handover_signal_packets", static_cast<double>(hs.signal_packets));
    out.set("handover_mean_completion", hs.mean_completion_time());
    out.set("handover_in_flight", static_cast<double>(handover->in_flight()));
  }

  if (query_engine) {
    out.set("query_lookups", static_cast<double>(query_lookups));
    out.set("query_hits", static_cast<double>(query_hits));
    out.set("query_hit_rate", query_lookups > 0
                                  ? static_cast<double>(query_hits) /
                                        static_cast<double>(query_lookups)
                                  : 0.0);
    out.set("query_epochs", static_cast<double>(query_engine->epoch()));
    // Folded to 32 bits so the double holds it exactly (identity witness for
    // the thread-count bit-identity suite).
    out.set("query_digest", static_cast<double>(query_digest & 0xFFFFFFFFULL));
  }

  if (options.measure_routing) {
    const routing::RoutingTables tables(*g, hier, tick_shards);
    out.set("rt_table_size", tables.mean_table_size());
    const auto stretch =
        routing::measure_stretch(tables, *g, options.stretch_pairs,
                                 common::derive_seed(cfg.seed, 0x57E7));
    out.set("rt_stretch", stretch.mean_stretch);
    out.set("rt_stretch_max", stretch.max_stretch);
    out.set("rt_failures", static_cast<double>(stretch.failures));
    out.set("rt_recoveries", static_cast<double>(stretch.recoveries));
    out.set("rt_hier_hops", stretch.mean_hier_hops);
    out.set("rt_shortest_hops", stretch.mean_shortest_hops);
  }

  return out;
}

}  // namespace manet::exp
