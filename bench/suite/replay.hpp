#pragma once

#include <string>
#include <utility>
#include <vector>

#include "exp/simulation.hpp"
#include "span_trace.hpp"

/// \file replay.hpp
/// Benchmark-side replay of exp::run_simulation's tick for the traced run.
///
/// run_simulation records no timings of its own, so the traced run calls each
/// layer's public function in run_simulation's order and wraps every call in
/// a span: setup (materialize, warmup, initial build, prime), one "tick" root
/// per measured tick with one child per phase, and the final accounting. The
/// replay covers the options the benchmark workloads use (ALCA, incremental
/// tick with localized repair, default measurement options, any thread count,
/// optional faults, sessions and query load) and returns the run's ledgers so
/// the caller can check them against a same-seed run_simulation call: a
/// mismatch means the replay no longer is the program.

namespace bench {

using Named = std::vector<std::pair<std::string, double>>;

struct ReplayResult {
  /// Per-layer metrics: tick phases as the median over ticks (<span>_ms),
  /// setup and final-accounting phases once per run, plus per-tick counts,
  /// ratios and the tick totals.
  Named layers;
  /// Ledgers under their exp::RunMetrics names (phi_rate, gamma_rate, f0,
  /// entries_per_node, and the fault, session and query ledgers when those
  /// planes are on).
  Named ledgers;
};

ReplayResult replay_simulation(const manet::exp::ScenarioConfig& config,
                               const manet::exp::RunOptions& options, SpanTrace& trace);

}  // namespace bench
