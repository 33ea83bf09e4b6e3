#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "cluster/alca.hpp"
#include "cluster/diff.hpp"
#include "cluster/hierarchy_builder.hpp"
#include "cluster/repair.hpp"
#include "cluster/stability.hpp"
#include "cluster/state_chain.hpp"
#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "exp/session_bridge.hpp"
#include "graph/bfs.hpp"
#include "lm/address.hpp"
#include "lm/query_engine.hpp"
#include "lm/reliable.hpp"
#include "net/link_tracker.hpp"
#include "net/lossy_channel.hpp"
#include "net/unit_disk.hpp"
#include "routing/table.hpp"
#include "sim/fault.hpp"
#include "sim/shard.hpp"

namespace bench {

using namespace manet;

namespace {

/// run_simulation's sampled h_k measurement (same RNG draws, same BFS runs).
double measure_hk(const cluster::Hierarchy& h, const graph::Graph& g, Level k, Size pairs,
                  common::Xoshiro256& rng, graph::BfsScratch& bfs) {
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
    bfs.run(g, u);
    const auto hops = bfs.hops_to(v);
    if (hops == graph::kUnreachable) continue;
    sum += hops;
    ++measured;
  }
  return measured > 0 ? sum / static_cast<double>(measured) : 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const Size mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

}  // namespace

ReplayResult replay_simulation(const exp::ScenarioConfig& config, const exp::RunOptions& options,
                               SpanTrace& trace) {
  const exp::RunOptions defaults;
  MANET_CHECK_MSG(config.cluster_algo == exp::ClusterAlgo::kAlca &&
                      options.incremental_tick == defaults.incremental_tick &&
                      options.localized_repair == defaults.localized_repair &&
                      options.track_states == defaults.track_states &&
                      options.track_events == defaults.track_events &&
                      options.measure_hops == defaults.measure_hops &&
                      options.hop_sample_pairs == defaults.hop_sample_pairs &&
                      !options.run_gls && !options.track_registration &&
                      !options.measure_routing && options.shards == 0,
                  "the replay covers ALCA with the default measurement options only");
  ReplayResult out;
  int sp = -1;

  // --- Setup: everything run_simulation does before the first measured tick.
  const int setup = trace.open("setup", -1);
  sp = trace.open("exp.materialize", setup);
  exp::ScenarioConfig cfg = config;
  exp::Scenario scenario = exp::Scenario::materialize(cfg);
  net::UnitDiskBuilder disk(cfg.tx_radius(), /*ensure_connected=*/true);
  graph::Graph g0 = disk.build(scenario.mobility->positions());
  bool raw_connected = disk.last_augmented_edges() == 0;
  for (int attempt = 1; attempt < cfg.connect_attempts && !raw_connected; ++attempt) {
    cfg.seed = common::derive_seed(
        config.seed, 0xFACE0000ULL + static_cast<unsigned long long>(attempt));
    scenario = exp::Scenario::materialize(cfg);
    g0 = disk.build(scenario.mobility->positions());
    raw_connected = disk.last_augmented_edges() == 0;
  }
  trace.close(sp);
  const auto& positions = scenario.mobility->positions();

  cluster::HierarchyOptions hopts;
  hopts.geometric_links = cfg.geometric_links;
  hopts.beta = cfg.link_beta;
  hopts.tx_radius = cfg.tx_radius();
  hopts.max_levels = cfg.max_levels;
  cluster::HierarchyBuilder builder(std::make_shared<cluster::Alca>(), hopts);
  sp = trace.open("cluster.initial_build", setup);
  cluster::Hierarchy hier = builder.build(g0, scenario.ids, positions);
  trace.close(sp);
  cluster::HierarchyRepairer repairer(hopts);
  lm::HandoffEngine handoff(cfg.handoff);

  std::unique_ptr<common::ThreadPool> tick_pool;
  std::unique_ptr<sim::ShardExecutor> tick_shards;
  if (options.threads != 1) {
    tick_pool = std::make_unique<common::ThreadPool>(options.threads);
    tick_shards = std::make_unique<sim::ShardExecutor>(
        *tick_pool, sim::resolve_shard_count(0, tick_pool->thread_count()));
    disk.set_parallel(tick_shards.get());
    handoff.set_parallel(tick_shards.get());
  }
  cluster::StateChainTracker states;
  cluster::HeadLifetimeTracker tenures;
  common::Xoshiro256 hop_rng(common::derive_seed(cfg.seed, 0xB0F5));

  const bool faulted = cfg.fault.enabled();
  const Time horizon = cfg.warmup + cfg.duration;
  std::unique_ptr<sim::FaultInjector> injector;
  std::unique_ptr<net::LossyChannel> channel;
  std::unique_ptr<lm::ReliableTransfer> arq;
  std::unique_ptr<common::Xoshiro256> probe_rng;
  std::vector<std::uint8_t> down, prev_down;
  Size crash_events = 0, rejoin_events = 0;
  if (faulted) {
    injector = std::make_unique<sim::FaultInjector>(
        cfg.fault, cfg.n, cfg.warmup, horizon, common::derive_seed(cfg.seed, 0xFA017));
    channel = std::make_unique<net::LossyChannel>(cfg.fault,
                                                  common::derive_seed(cfg.seed, 0xC4A2));
    arq = std::make_unique<lm::ReliableTransfer>(*channel, cfg.fault.retry_budget,
                                                 cfg.fault.arq_timeout, cfg.fault.arq_backoff);
    probe_rng = std::make_unique<common::Xoshiro256>(common::derive_seed(cfg.seed, 0x9B0B));
    down.assign(cfg.n, 0);
    prev_down.assign(cfg.n, 0);
    handoff.set_resilience(arq.get(), &down);
  }
  std::unique_ptr<lm::HandoverManager> handover;
  std::unique_ptr<traffic::SessionWorkload> sessions;
  std::unique_ptr<exp::LmSessionLocator> locator;
  std::unique_ptr<routing::RoutingTables> session_tables;
  if (cfg.sessions) {
    lm::HandoverFsmConfig hocfg = cfg.handover;
    if (hocfg.signal_loss < 0.0) hocfg.signal_loss = faulted ? cfg.fault.loss : 0.0;
    handover = std::make_unique<lm::HandoverManager>(hocfg,
                                                     common::derive_seed(cfg.seed, 0x480F5));
    handover->set_down(faulted ? &down : nullptr);
    handoff.set_handover_observer(handover.get());
    sessions = std::make_unique<traffic::SessionWorkload>(cfg.session,
                                                          common::derive_seed(cfg.seed, 0x5E55));
    locator = std::make_unique<exp::LmSessionLocator>(handoff, handover.get(),
                                                      faulted ? &down : nullptr);
  }
  std::unique_ptr<lm::QueryEngine> query_engine;
  const Size query_shards = tick_shards != nullptr ? tick_shards->shard_count() : 1;
  std::vector<Size> query_shard_hits(query_shards, 0);
  std::vector<std::uint64_t> query_shard_digests(query_shards, 0);
  Size query_lookups = 0, query_hits = 0;
  std::uint64_t query_digest = 0x9E3779B97F4A7C15ULL;
  if (options.query_load > 0) query_engine = std::make_unique<lm::QueryEngine>(cfg.handoff.select);

  auto refresh_down = [&](Time t) {
    for (NodeId v = 0; v < cfg.n; ++v) {
      down[v] = (injector->crashed(v, t) || injector->in_outage(positions[v].x, positions[v].y, t))
                    ? 1
                    : 0;
    }
  };
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

  sp = trace.open("mobility.warmup", setup);
  const auto warmup_ticks = static_cast<Size>(std::floor(cfg.warmup / cfg.tick + 1e-9));
  for (Size i = 1; i <= warmup_ticks; ++i) {
    scenario.mobility->advance_to(static_cast<Time>(i) * cfg.tick);
  }
  trace.close(sp);
  const Time t0 = cfg.warmup;
  sp = trace.open("net.initial_update", setup);
  const graph::Graph* g = &disk.update(positions);
  if (faulted) {
    refresh_down(t0);
    g = strip_down(*g, /*dirty=*/true);
  }
  trace.close(sp);
  sp = trace.open("cluster.initial_build", setup);
  hier = builder.build(*g, scenario.ids, positions);
  trace.close(sp);
  sp = trace.open("lm.prime", setup);
  handoff.prime(hier, t0);
  handoff.set_fast_pricing(true);
  trace.close(sp);
  bool prev_bridged = disk.last_augmented_edges() > 0;
  if (faulted) {
    prev_down = down;
    for (NodeId v = 0; v < cfg.n; ++v) {
      if (down[v] != 0) handoff.on_node_down(v, t0);
    }
  }
  net::LinkTracker links(*g, t0);
  if (tick_shards) links.set_parallel(tick_shards.get());
  sp = trace.open("cluster.initial_observe", setup);
  states.observe(hier, cfg.tick);
  tenures.observe(hier, t0);
  trace.close(sp);
  const Size audit_every =
      faulted ? std::max<Size>(1, static_cast<Size>(std::lround(cfg.fault.audit_period / cfg.tick)))
              : 0;
  cluster::Hierarchy next;
  cluster::HierarchyDelta delta;
  net::LinkDelta link_delta;
  trace.close(setup);

  // --- Measured window: one "tick" root per tick, one child per phase, in
  // run_simulation's order. Every phase span is opened on every tick (also
  // when the phase has nothing to do), so each phase has one sample per tick.
  Size moved = 0, full_rescans = 0, link_events = 0, entries_moved = 0;
  Size elections = 0, spliced = 0, retx = 0;
  const Size reseeds_before = repairer.stats().reseeds;
  const auto total_ticks = static_cast<Size>(std::floor(cfg.duration / cfg.tick + 1e-9));
  Size ticks = 0;
  for (Size i = 1; i <= total_ticks; ++i) {
    const Time now = t0 + static_cast<Time>(i) * cfg.tick;
    const int tick = trace.open("tick", -1);

    sp = trace.open("mobility.advance", tick);
    scenario.mobility->advance_to(now);
    trace.close(sp);

    sp = trace.open("net.unit_disk", tick);
    g = &disk.update(positions);
    const bool topo_changed = disk.changed();
    const bool pos_moved = disk.last_moved_nodes() > 0;
    const bool bridged = disk.last_augmented_edges() > 0;
    trace.close(sp);
    moved += disk.last_moved_nodes();
    if (disk.last_full_rescan()) ++full_rescans;

    sp = trace.open("sim.fault_mask", tick);
    bool mask_changed = false;
    if (faulted) {
      std::swap(prev_down, down);
      refresh_down(now);
      mask_changed = down != prev_down;
      g = strip_down(*g, topo_changed || mask_changed);
    }
    trace.close(sp);

    const bool rebuild = topo_changed || mask_changed || (pos_moved && cfg.geometric_links);
    sp = trace.open("cluster.repair", tick);
    if (rebuild) {
      bool any_down = false;
      if (faulted) {
        for (const auto f : down) any_down = any_down || f != 0;
      }
      const bool delta_exact = !mask_changed && !bridged && !prev_bridged && !any_down;
      repairer.repair(*g, disk.links_up(), disk.links_down(), scenario.ids, positions, hier,
                      next, delta_exact);
    }
    trace.close(sp);
    if (rebuild) {
      for (const auto& level : repairer.stats().levels) {
        ++elections;
        if (level.spliced) ++spliced;
      }
    }
    prev_bridged = bridged;
    const cluster::Hierarchy& hnow = rebuild ? next : hier;

    sp = trace.open("net.link_diff", tick);
    if (rebuild) {
      links.update_into(*g, now, link_delta);
    } else {
      links.advance_unchanged(now);
    }
    trace.close(sp);
    if (rebuild) link_events += link_delta.event_count();

    const auto retx_before = handoff.resilience().phi_retx + handoff.resilience().gamma_retx;
    sp = trace.open("lm.handoff", tick);
    if (rebuild) {
      entries_moved += handoff.update(hnow, *g, now).entries_moved;
    } else {
      handoff.advance_unchanged(now);
    }
    trace.close(sp);

    sp = trace.open("lm.fault", tick);
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
        handoff.query_probe(*probe_rng, cfg.fault.probe_pairs);
      }
    }
    trace.close(sp);
    retx += handoff.resilience().phi_retx + handoff.resilience().gamma_retx - retx_before;

    sp = trace.open("cluster.diff", tick);
    if (rebuild) {
      cluster::diff_hierarchies(hier, next, delta);
      hier = std::move(next);
    }
    trace.close(sp);

    sp = trace.open("lm.handover", tick);
    if (handover) handover->tick(now);
    trace.close(sp);

    sp = trace.open("routing.tables", tick);
    if (sessions && (rebuild || session_tables == nullptr)) {
      session_tables = std::make_unique<routing::RoutingTables>(*g, hier);
    }
    trace.close(sp);

    sp = trace.open("traffic.sessions", tick);
    if (sessions) {
      traffic::SessionWorkload::TickContext sctx;
      sctx.tables = session_tables.get();
      sctx.locator = locator.get();
      sctx.down = faulted ? &down : nullptr;
      sctx.node_count = cfg.n;
      sctx.now = now;
      sctx.dt = cfg.tick;
      sessions->tick_sessions(sctx);
    }
    trace.close(sp);

    sp = trace.open("lm.query_publish", tick);
    if (query_engine) query_engine->publish(hier, handoff.database(), now);
    trace.close(sp);

    sp = trace.open("lm.query_lookup", tick);
    if (query_engine) {
      const std::uint64_t tick_base =
          static_cast<std::uint64_t>(ticks) * static_cast<std::uint64_t>(options.query_load);
      auto serve_shard = [&](Size shard) {
        const auto [begin, end] = sim::ShardExecutor::slice(options.query_load, shard, query_shards);
        Size hits = 0;
        std::uint64_t digest = 0;
        for (Size q = begin; q < end; ++q) {
          const std::uint64_t gq = tick_base + q;
          const auto owner = static_cast<NodeId>((gq * 2654435761ULL) % cfg.n);
          const Level k = lm::kFirstServedLevel + static_cast<Level>(gq % 3);
          const lm::QueryResult r = query_engine->lookup(owner, k);
          hits += r.found ? 1 : 0;
          const std::uint64_t answer = (static_cast<std::uint64_t>(r.server) << 32) ^
                                       r.version ^ (r.found ? 1ULL : 0ULL);
          digest += common::mix64(gq ^ common::mix64(answer));
        }
        query_shard_hits[shard] = hits;
        query_shard_digests[shard] = digest;
      };
      if (tick_shards) {
        tick_shards->for_each_shard(serve_shard);
      } else {
        serve_shard(0);
      }
      for (Size shard = 0; shard < query_shards; ++shard) {
        query_hits += query_shard_hits[shard];
        query_digest += query_shard_digests[shard];
      }
      query_lookups += options.query_load;
    }
    trace.close(sp);

    sp = trace.open("cluster.observe", tick);
    states.observe(hier, cfg.tick);
    tenures.observe(hier, now);
    trace.close(sp);

    ++ticks;
    trace.close(tick);
  }

  // --- Final accounting, in run_simulation's order.
  out.ledgers.emplace_back("ticks", static_cast<double>(ticks));
  out.ledgers.emplace_back("phi_rate", handoff.phi_rate());
  out.ledgers.emplace_back("gamma_rate", handoff.gamma_rate());
  out.ledgers.emplace_back("f0", links.events_per_node_per_second());
  const int fin = trace.open("final", -1);
  sp = trace.open("graph.hk_bfs", fin);
  graph::BfsScratch bfs;
  for (Level k = 1; k <= hier.top_level(); ++k) {
    measure_hk(hier, *g, k, options.hop_sample_pairs, hop_rng, bfs);
  }
  trace.close(sp);
  sp = trace.open("lm.census", fin);
  const auto load = lm::load_stats(handoff.database().load_vector());
  out.ledgers.emplace_back("entries_per_node",
                           static_cast<double>(handoff.database().total_entries()) /
                               static_cast<double>(cfg.n));
  Size map_sum = 0;
  for (NodeId v = 0; v < cfg.n; ++v) map_sum += lm::hierarchical_map_size(hier, v);
  trace.close(sp);
  sp = trace.open("lm.final_audit", fin);
  if (faulted) {
    handoff.audit_repair(*g, horizon);
    handoff.query_probe(*probe_rng, cfg.fault.probe_pairs);
  }
  trace.close(sp);
  sp = trace.open("traffic.finish", fin);
  if (sessions) sessions->finish(horizon);
  trace.close(sp);
  trace.close(fin);
  MANET_CHECK(load.max >= load.mean && map_sum > 0);

  if (faulted) {
    const auto& resil = handoff.resilience();
    out.ledgers.emplace_back("crashes", static_cast<double>(crash_events));
    out.ledgers.emplace_back("rejoins", static_cast<double>(rejoin_events));
    out.ledgers.emplace_back("phi_retx", static_cast<double>(resil.phi_retx));
    out.ledgers.emplace_back("gamma_retx", static_cast<double>(resil.gamma_retx));
    out.ledgers.emplace_back("failed_transfers", static_cast<double>(resil.failed_transfers));
  }
  if (sessions) {
    out.ledgers.emplace_back("session_packets",
                             static_cast<double>(sessions->stats().packets_offered));
    out.ledgers.emplace_back("session_delivered",
                             static_cast<double>(sessions->stats().packets_delivered));
    out.ledgers.emplace_back("handover_completed",
                             static_cast<double>(handover->stats().completed));
  }
  if (query_engine) {
    out.ledgers.emplace_back("query_hits", static_cast<double>(query_hits));
    out.ledgers.emplace_back("query_digest", static_cast<double>(query_digest & 0xFFFFFFFFULL));
  }

  // --- Summaries. Every span name belongs to one kind of root, so one map
  // keyed by name collects tick phases (one sample per tick) and the setup
  // and final phases (summed once per run).
  const auto& spans = trace.spans();
  const auto self = trace.self_ms();
  std::map<std::string, std::vector<double>> per_tick;
  std::map<std::string, double> once;
  std::vector<double> tick_ms, tick_self_ms;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    if (s.parent < 0) {
      if (std::string(s.name) == "tick") {
        tick_ms.push_back(s.ms());
        tick_self_ms.push_back(self[i]);
      }
      continue;
    }
    if (std::string(spans[static_cast<std::size_t>(s.parent)].name) == "tick") {
      per_tick[s.name].push_back(s.ms());
    } else {
      once[s.name] += s.ms();
    }
  }
  auto sum = [](const std::vector<double>& v) {
    double total = 0.0;
    for (const double x : v) total += x;
    return total;
  };
  const double t = static_cast<double>(std::max<Size>(ticks, 1));
  for (const auto& [name, v] : per_tick) out.layers.emplace_back(name + "_ms", median(v));
  for (const auto& [name, ms] : once) out.layers.emplace_back(name + "_ms", ms);
  out.layers.emplace_back("net.moved_nodes", static_cast<double>(moved) / t);
  out.layers.emplace_back("net.link_events", static_cast<double>(link_events) / t);
  out.layers.emplace_back("net.full_rescan_share", static_cast<double>(full_rescans) / t);
  out.layers.emplace_back("cluster.reseeds",
                          static_cast<double>(repairer.stats().reseeds - reseeds_before) / t);
  out.layers.emplace_back("cluster.spliced_share",
                          static_cast<double>(spliced) /
                              static_cast<double>(std::max<Size>(elections, 1)));
  out.layers.emplace_back("lm.entries_moved", static_cast<double>(entries_moved) / t);
  out.layers.emplace_back("lm.handoff_us_per_move",
                          sum(per_tick["lm.handoff"]) * 1e3 /
                              static_cast<double>(std::max<Size>(entries_moved, 1)));
  out.layers.emplace_back("lm.retx", static_cast<double>(retx) / t);
  out.layers.emplace_back("lm.failed_transfers",
                          static_cast<double>(handoff.resilience().failed_transfers));
  out.layers.emplace_back("lm.handover_retries",
                          handover ? static_cast<double>(handover->stats().retries) : 0.0);
  out.layers.emplace_back("lm.query_lookup_ns",
                          sum(per_tick["lm.query_lookup"]) * 1e6 /
                              static_cast<double>(std::max<Size>(query_lookups, 1)));
  const Size packets = sessions ? sessions->stats().packets_offered : 0;
  out.layers.emplace_back("traffic.packets", static_cast<double>(packets) / t);
  out.layers.emplace_back("traffic.us_per_packet",
                          sum(per_tick["traffic.sessions"]) * 1e3 /
                              static_cast<double>(std::max<Size>(packets, 1)));
  out.layers.emplace_back("tick.ms", median(tick_ms));
  out.layers.emplace_back("tick.mean_ms", sum(tick_ms) / t);
  out.layers.emplace_back("tick.count", static_cast<double>(ticks));
  out.layers.emplace_back("tick.unattributed_ms", median(tick_self_ms));
  return out;
}

}  // namespace bench
