#pragma once

#include <iosfwd>
#include <string>

#include "analysis/json.hpp"
#include "common/metrics.hpp"
#include "exp/montecarlo.hpp"
#include "sim/trace.hpp"

/// \file artifacts.hpp
/// Machine-readable run artifacts. Every bench binary (and manet_sim
/// --metrics-json) writes a JSON artifact next to its text tables so results
/// can be re-audited, diffed across PRs and fed to tooling without parsing
/// prose. An artifact always embeds a RunManifest — enough provenance to
/// re-run the exact configuration that produced it.
///
/// Artifact schema (BENCH_<name>.json, validated by tests):
///   { "schema": "manet-bench-artifact/1",
///     "manifest": { "name", "git_sha", "seed", "n", "replications",
///                   "thread_count", "wall_seconds", "scenario", ... },
///     "series":  { "<metric>": [ {"n", "mean", "ci95", "count"}, ... ] },
///     "scalars": { "<key>": number, ... } }

namespace manet::exp {

/// Provenance record for one run or bench invocation.
struct RunManifest {
  std::string name;          ///< artifact name (bench binary / run label)
  std::string git_sha;       ///< build-time commit (unknown outside git)
  std::uint64_t seed = 0;
  Size n = 0;                ///< node count (0 for sweeps; see series)
  Size replications = 0;
  Size thread_count = 1;
  /// std::thread::hardware_concurrency() on the machine that produced the
  /// artifact (0 in manifests written before the field existed). Speedup
  /// scalars are only interpretable relative to this; check_bench.py skips
  /// the min_parallel_speedup gate when it is < 2 (single-core runner).
  Size hardware_concurrency = 0;
  double wall_seconds = 0.0; ///< measured by the artifact writer
  std::string scenario;      ///< ScenarioConfig::describe() of the base config
  std::string fault = "off"; ///< FaultConfig::describe(); "off" when disabled

  /// Capture everything derivable from the config; wall_seconds is filled in
  /// by the caller (or the bench Artifact helper) at write time.
  static RunManifest capture(std::string name, const ScenarioConfig& config,
                             Size replications, Size thread_count = 1);

  void write_json(analysis::JsonWriter& w) const;
};

/// Git SHA baked in at configure time (-DMANET_GIT_SHA=...); "unknown"
/// when the build tree was not a git checkout.
std::string build_git_sha();

/// Dump a registry: counters as integers, gauges as numbers, rate meters as
/// {total, rate} (rate evaluated at \p now), histograms as {count, sum, mean,
/// p50, p99, buckets}.
void write_registry_json(analysis::JsonWriter& w, const common::MetricsRegistry& registry,
                         Time now = 0.0);

/// Dump a trace sink: header (seen/stored/dropped + per-type counts) and the
/// retained ring contents oldest-to-newest.
void write_trace_json(analysis::JsonWriter& w, const sim::TraceSink& sink);

/// Aggregated resilience measurements for one fault scenario (one point of a
/// bench_resilience sweep). Schema "manet-resilience/1".
struct ResilienceReport {
  double loss = 0.0;             ///< configured per-hop Bernoulli loss
  double crash_rate = 0.0;       ///< configured crash hazard
  double phi_retx_rate = 0.0;    ///< retransmissions /node/s on phi moves
  double gamma_retx_rate = 0.0;  ///< retransmissions /node/s on gamma moves
  double failed_transfers = 0.0;
  double stale_entries = 0.0;    ///< left unrepaired at run end
  double repairs = 0.0;
  double mean_time_to_repair = 0.0;
  double query_success_rate = 0.0;  ///< final consistency probe
  double query_success_mean = 0.0;  ///< mean over per-audit probes
  double crashes = 0.0;
  double rejoins = 0.0;
};

void write_resilience_json(analysis::JsonWriter& w, const ResilienceReport& report);

/// Aggregated session-continuity + handover-FSM measurements for one
/// scenario (one point of a bench_sessions sweep). Schema "manet-sessions/1".
struct SessionReport {
  double mu = 0.0;                  ///< configured node speed, m/s
  double loss = 0.0;                ///< configured per-hop Bernoulli loss
  double crash_rate = 0.0;          ///< configured crash hazard
  double packets_offered = 0.0;
  double delivered = 0.0;
  double misrouted = 0.0;           ///< resolved via a stale / rolled-back copy
  double lost = 0.0;
  double misroute_rate = 0.0;       ///< misrouted / offered
  double loss_rate = 0.0;           ///< lost / offered
  double interruptions = 0.0;       ///< interruption windows opened
  double interruption_time = 0.0;   ///< summed window lengths, s
  double interruption_p99 = 0.0;    ///< p99 closed-window length, s (NaN =
                                    ///< no windows closed; JSON null)
  double handover_started = 0.0;
  double handover_completed = 0.0;
  double handover_retries = 0.0;
  double handover_rollbacks = 0.0;
  double handover_rollback_failures = 0.0;
  double handover_mean_completion = 0.0;  ///< mean start -> complete, s
};

void write_sessions_json(analysis::JsonWriter& w, const SessionReport& report);

/// RunMetrics <-> JSON: an object whose member order is the metric emission
/// order (duplicate names preserved — first occurrence wins on lookup, but
/// every entry re-enters aggregation exactly as it would in-process).
/// Values render as %.17g so doubles round-trip bit-exactly; NaN renders as
/// null and reads back as NaN. This is the payload of campaign unit
/// checkpoints (exp/campaign_runner.hpp).
void write_run_metrics_json(analysis::JsonWriter& w, const RunMetrics& metrics);
bool run_metrics_from_json(const analysis::JsonValue& v, RunMetrics& out);

/// One aggregated sweep point for artifact series.
struct SeriesPoint {
  double n = 0.0;
  double mean = 0.0;
  double ci95 = 0.0;
  Size count = 0;
};

void write_series_point_json(analysis::JsonWriter& w, const SeriesPoint& point);

}  // namespace manet::exp
