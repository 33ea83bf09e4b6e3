#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.hpp"
#include "exp/scenario.hpp"
#include "sim/trace.hpp"

/// \file simulation.hpp
/// Single-replication simulation runner: ties the mobility model, unit-disk
/// sampler, recursive ALCA hierarchy, LM handoff engine, link tracker,
/// hierarchy differ and ALCA state tracker together over one scenario, and
/// flattens everything the experiments need into a named metric list.
///
/// Metric names (per-level metrics use a ".k" suffix, k = level):
///   phi_rate / gamma_rate / total_rate   packets per node per second
///   phi_k.k / gamma_k.k                  per-level rates
///   f0                                   level-0 link events /node/s (E4)
///   f_k.k                                level-k membership changes /node/s (E5)
///   gprime_k.k                           level-k link events per level-k link /s (E6)
///   g_k.k                                level-k link events /node/s
///   ev.<i..vii>.k                        reorg event rates /node/s (E10)
///   levels                               mean clustered levels (L)
///   alpha.k / clusters.k / ek_per_v.k    hierarchy shape (E1, E3)
///   h_k.k                                measured mean intra-cluster hops (E2)
///   p_state1.k                           ALCA critical-state probability (E11)
///   q1, q1_over_Q, q_lower_bound         eq. (15)-(22) quantities (E11)
///   entries_per_node / load_mean / load_max / load_gini / map_size  (E7)
///   gls_handoff_rate / gls_update_rate / gls_total_rate  (E12, when enabled)
///   reg_rate / reg_updates / reg_k.k         registration overhead (E18)
///   rt_table_size / rt_stretch / rt_stretch_max / rt_failures  routing (E16/E17)
///   connected0                           1 if the *raw* initial deployment
///                                        draw was connected (augmentation
///                                        bridges don't count; retries use
///                                        derived seeds until a raw draw
///                                        connects or attempts run out)
///   ticks                                number of measured samples
///
/// Fault-plane metrics (emitted only when ScenarioConfig::fault.enabled()):
///   crashes / rejoins / scheduled_crashes      node-churn event counts
///   packets_lossy / packets_dropped            lossy-channel totals
///   phi_retx / gamma_retx (+ _rate)            retransmission ledgers
///   reg_retx / reg_retx_rate / reg_failed      registration ARQ (E18 + faults)
///   failed_transfers / entries_dropped         budget exhaustion, crash wipes
///   stale_entries / repairs / repair_packets   repair-path accounting
///   mean_time_to_repair                        mean stale -> repaired latency
///   query_success_rate / query_success_mean    consistency probe (final / mean)
///
/// Query-serving metrics (emitted only when RunOptions::query_load > 0):
///   query_lookups / query_hits / query_hit_rate   lookup totals over the run
///   query_epochs                                  epochs published (one per tick)
///   query_digest                                  32-bit fold of every answer
///                                                 (shard/thread identity witness)

namespace manet::exp {

struct RunMetrics {
  /// Insertion-ordered (name, value) list — downstream CSV/JSON writers rely
  /// on the order, so it is never resorted. Lookups go through a name index
  /// (campaign aggregation probes ~40 metrics per run; a linear scan here
  /// made that quadratic).
  std::vector<std::pair<std::string, double>> values;

  void set(std::string name, double value);
  /// NaN when the metric is absent.
  double get(const std::string& name) const;
  bool has(const std::string& name) const;

 private:
  /// name -> index into values (first occurrence wins, matching the old
  /// first-match linear-scan semantics).
  std::unordered_map<std::string, Size> index_;
};

struct RunOptions {
  bool track_states = true;        ///< ALCA state occupancy (E11)
  bool track_events = true;        ///< reorg event taxonomy (E10)
  bool run_gls = false;            ///< GLS tracker side-by-side (E12)
  bool measure_hops = true;        ///< sampled h_k measurement (E2)
  Size hop_sample_pairs = 64;      ///< pairs sampled per level for h_k
  bool track_registration = false; ///< owner-driven update overhead (E18)
  bool measure_routing = false;    ///< table size + path stretch on the final snapshot (E16/E17)
  Size stretch_pairs = 100;        ///< sampled pairs for the stretch measurement

  /// Incremental tick pipeline (default). The unit-disk graph is change-gated
  /// (no work on ticks where no node moved, an exact link delta otherwise),
  /// the hierarchy rebuild is skipped entirely on ticks where nothing it
  /// depends on changed, and changed ticks of ALCA scenarios repair the
  /// hierarchy in place (localized_repair).
  /// Bit-identical to the full-rebuild path (enforced by
  /// tests/integration/tick_pipeline_test); set false to force the
  /// historical rebuild-everything tick, which is what bench_tick_pipeline
  /// compares against.
  bool incremental_tick = true;

  /// Localized hierarchy repair (incremental path only). Changed ticks feed
  /// net::LinkTracker's level-0 link delta to cluster::HierarchyRepairer,
  /// which re-runs ALCA election only in the dirty neighborhoods of each
  /// level and keeps the election state of unaffected levels, instead of
  /// re-electing every level from scratch. Both share the builder's level
  /// promotion, so the output is bit-identical (same golden artifacts,
  /// enforced by tests/integration/tick_pipeline_test and
  /// tests/cluster/repair_test).
  /// Set false to call the plain HierarchyBuilder::build() on changed ticks
  /// instead. ALCA scenarios only: other election algorithms always take the
  /// builder path.
  bool localized_repair = true;

  /// Intra-run worker threads for the sharded tick (docs/ARCHITECTURE.md
  /// "Sharded parallel tick"). The tick always runs over one
  /// sim::ShardExecutor: 1 (the default) runs its shards inline on the
  /// calling thread with no pool; 0 means one worker per hardware thread;
  /// any other value sizes the per-run pool explicitly. Work is split over a
  /// shard grid whose per-shard outputs are merged in shard index order, so
  /// metrics, traces and run artifacts never depend on this knob (enforced
  /// by tests/integration/sharded_tick_test).
  Size threads = 1;

  /// Shard topology for the sharded tick: the number of contiguous slices
  /// the per-tick index spaces are decomposed into (sim::resolve_shard_count
  /// rounds it up to a power of two and clamps to sim::kMaxShardCount).
  /// 0 (the default) derives the count from the worker count: one shard at
  /// threads == 1, otherwise max(sim::kDefaultShardCount, 4 x workers). A
  /// non-zero value with threads == 1 runs that many shards inline, which is
  /// how the identity suite pins shards x threads = {S} x {1}. Outputs are
  /// bit-identical at every shard count — this knob only moves throughput
  /// (enforced by tests/integration/sharded_tick_test).
  Size shards = 0;

  /// Query-serving plane (docs/QUERY_ENGINE.md, experiment E31): when > 0,
  /// each measured tick publishes the fresh (hierarchy, database) state as a
  /// lm::QueryEngine epoch and serves this many location lookups against it.
  /// Lookup targets are a pure function of the global lookup index and the
  /// per-lookup digest contributions fold with a commutative, associative
  /// wrapping sum, so the query_* metrics are bit-identical at every
  /// RunOptions::threads AND RunOptions::shards value (the fold is invariant
  /// to how [0, query_load) is partitioned). 0 (the default) constructs
  /// nothing and changes nothing.
  Size query_load = 0;

  /// Observability hooks (not owned; nullptr = off, zero cost). With a
  /// registry attached, every producer publishes live lm.* / net.* / alca.*
  /// instruments during the run; with a trace sink attached, the tick loop
  /// and producers emit typed TraceEvents (handoff transfers, migrations, the
  /// (i)-(vii) reorg taxonomy). See docs/ARCHITECTURE.md "Observability".
  common::MetricsRegistry* metrics = nullptr;
  sim::TraceSink* trace = nullptr;

  /// Every violated run rule (empty = valid): threads <= sim::kMaxShardCount,
  /// as a tick has no more shards to give a worker. This is the only place a
  /// run rule is written: run_simulation() refuses invalid options, and the
  /// CLI reports each error under the flag that sets its field.
  std::vector<ScenarioConfig::Error> validate() const;
};

/// Run one replication of \p config and return the flattened metrics.
RunMetrics run_simulation(const ScenarioConfig& config, const RunOptions& options = RunOptions{});

}  // namespace manet::exp
