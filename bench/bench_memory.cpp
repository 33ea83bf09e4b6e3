/// E27: allocator traffic in the tick loop — throughput + allocs-per-tick.
///
/// A gated tick (no node moved, no link changed) is supposed to allocate
/// nothing: every per-tick structure is a dense table or a reused scratch
/// vector that keeps its capacity. Changed ticks still allocate a bounded
/// amount (the hierarchy's per-level rows and the unit-disk rescan's
/// adjacency lists), so each row has its own cap. This bench measures both
/// halves:
///
///   throughput — ticks/sec on the paper scenario at n in {1024, 4096} under
///     low (static, gated) and high (random waypoint, mu = 1) mobility. The
///     committed baseline (tools/baselines/BENCH_memory.json) was produced by
///     the kernel before per-tick scratch reuse, and its `min_speedup` scalar
///     makes tools/check_bench.py require >= that factor on every series.
///
///   allocator traffic — with -DMANET_PROFILE_ALLOC=ON, run_simulation
///     publishes alloc.* metrics from the interposed global new/delete
///     (common/alloc_profile.hpp); the low-mobility n=4096 run's
///     allocations-per-measured-tick lands in the `allocs_per_tick` scalar,
///     capped by the baseline's `max_allocs_per_tick`, and the high-mobility
///     n=4096 run's in `allocs_per_changed_tick` (every tick of that run
///     moves every node and changes links), capped by
///     `max_allocs_per_changed_tick`. Default builds skip this half (scalar
///     `alloc_profile` = 0) since nothing is interposed.

#include "bench_util.hpp"
#include "common/alloc_profile.hpp"
#include "common/metrics.hpp"

using namespace manet;

namespace {

exp::RunOptions bench_options() {
  exp::RunOptions opts;
  // Per-tick cost only: the sampled end-of-run measurements (h_k BFS, state
  // chains) would dilute both the throughput and the alloc counts.
  opts.measure_hops = false;
  opts.track_states = false;
  return opts;
}

struct TimedRun {
  exp::RunMetrics metrics;
  double ticks_per_sec = 0.0;  // best of `reps` runs (min wall time)
};

TimedRun run_timed(const exp::ScenarioConfig& cfg, Size reps) {
  TimedRun out;
  double best_wall = std::numeric_limits<double>::infinity();
  for (Size r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    auto metrics = exp::run_simulation(cfg, bench_options());
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
    best_wall = std::min(best_wall, wall.count());
    if (r == 0) out.metrics = std::move(metrics);
  }
  out.ticks_per_sec = out.metrics.get("ticks") / best_wall;
  return out;
}

/// One extra run with a registry attached, returning allocations per
/// measured tick from the interposed counters. Only called in
/// MANET_PROFILE_ALLOC builds (the registry itself perturbs throughput, so
/// the timed runs above never attach one).
double measure_allocs_per_tick(const exp::ScenarioConfig& cfg) {
  common::MetricsRegistry registry;
  auto opts = bench_options();
  opts.metrics = &registry;
  exp::run_simulation(cfg, opts);
  const auto* per_tick = registry.find_gauge("alloc.per_tick");
  return per_tick != nullptr ? per_tick->value() : -1.0;
}

}  // namespace

int main() {
  bench::print_header(
      "E27  bench_memory — allocator traffic and steady-state tick throughput",
      "dense tables + reused scratch: >=1.3x the baseline ticks/sec, "
      "<=8 allocations per gated tick, a capped count per changed tick");

  auto base = bench::paper_scenario();
  base.warmup = 5.0;
  base.duration = 20.0;

  const std::vector<Size> nodes{1024, 4096};
  const Size reps = 2;
  const bool profiled = common::alloc_profile::enabled();
  bench::Artifact artifact("memory", base, reps);

  double gated_allocs_per_tick = -1.0;
  double changed_allocs_per_tick = -1.0;
  for (const bool high_mobility : {false, true}) {
    const char* regime = high_mobility ? "high" : "low";
    auto cfg = base;
    cfg.mobility = high_mobility ? exp::MobilityKind::kRandomWaypoint
                                 : exp::MobilityKind::kStatic;

    analysis::TextTable table({"|V|", "ticks/s", "allocs/tick"});
    for (const Size n : nodes) {
      cfg.n = n;
      const auto timed = run_timed(cfg, reps);

      double allocs_per_tick = -1.0;
      if (profiled && n == nodes.back()) {
        allocs_per_tick = measure_allocs_per_tick(cfg);
        (high_mobility ? changed_allocs_per_tick : gated_allocs_per_tick) = allocs_per_tick;
      }
      table.add_row({std::to_string(n), bench::fixed(timed.ticks_per_sec, 5),
                     allocs_per_tick < 0.0 ? "-" : bench::fixed(allocs_per_tick, 5)});

      artifact.add_point(
          std::string("ticks_per_sec_") + regime,
          exp::SeriesPoint{static_cast<double>(n), timed.ticks_per_sec, 0.0, reps});
    }
    std::printf("%s", table.to_string(high_mobility
                                          ? "high mobility (random waypoint, mu=1)"
                                          : "low mobility (static, gated ticks)")
                          .c_str());
  }

  artifact.set_scalar("alloc_profile", profiled ? 1.0 : 0.0);
  if (gated_allocs_per_tick >= 0.0) {
    artifact.set_scalar("allocs_per_tick", gated_allocs_per_tick);
  }
  if (changed_allocs_per_tick >= 0.0) {
    artifact.set_scalar("allocs_per_changed_tick", changed_allocs_per_tick);
  }

  std::printf(
      "\nreading: the low-mobility rows are the gated steady state the paper's\n"
      "large-|V| sweeps live in; allocs/tick there must stay near zero (the\n"
      "baseline caps it). Every high-mobility tick is a changed tick; its\n"
      "n=4096 allocs/tick has a cap of its own. %s\n",
      profiled ? "alloc profiling: ON (MANET_PROFILE_ALLOC)."
               : "alloc profiling: OFF — rebuild with -DMANET_PROFILE_ALLOC=ON "
                 "for the allocs/tick column.");
  artifact.write();
  return 0;
}
