/// E25: incremental tick pipeline — full-rebuild vs delta-maintained ticks.
///
/// The incremental path (RunOptions::incremental_tick, the default) skips the
/// unit-disk rescan on ticks where no node moved, gates the hierarchy rebuild
/// on actual change and repairs changed ALCA hierarchies in place. This bench
/// measures the resulting ticks/sec against the historical
/// rebuild-everything tick at n in {256, 1024, 4096} under three mobility
/// regimes:
///   low  — static nodes, every measured tick gated (the steady-state win);
///   high — random waypoint at vehicular speed (mu = 0.2, about 0.1 radio
///          radii per tick), the paper's operating regime: links churn every
///          tick but locally, so localized repair plus landmark pricing must
///          deliver a real speedup (>= 1.3x at n = 4096, gated by
///          tools/check_bench.py);
///   sat  — random waypoint at mu = 1 (half a radio radius per tick), a
///          torture regime past any physical mobility model: nearly every
///          neighborhood rewires at once, so the claim degrades to the
///          no-regression bound (repair caps its bill at rebuild cost
///          instead of paying delta overhead on top).
/// Both runs of each pair are also checked metric-for-metric: the incremental
/// pipeline is bit-identical to the full rebuild by contract, and the bench
/// exits non-zero if any value diverges.

#include "bench_util.hpp"

using namespace manet;

namespace {

struct TimedRun {
  exp::RunMetrics metrics;
  double ticks_per_sec = 0.0;  // best of `reps` runs (min wall time)
};

TimedRun run_timed(const exp::ScenarioConfig& cfg, bool incremental, Size reps) {
  exp::RunOptions opts;
  opts.incremental_tick = incremental;
  // Per-tick cost only: the sampled end-of-run measurements (h_k BFS, state
  // chains) would dilute the number being compared.
  opts.measure_hops = false;
  opts.track_states = false;

  TimedRun out;
  double best_wall = std::numeric_limits<double>::infinity();
  for (Size r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    auto metrics = exp::run_simulation(cfg, opts);
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
    best_wall = std::min(best_wall, wall.count());
    if (r == 0) out.metrics = std::move(metrics);
  }
  out.ticks_per_sec = out.metrics.get("ticks") / best_wall;
  return out;
}

/// Exact comparison of the two metric vectors; prints every divergence.
Size count_divergences(const exp::RunMetrics& full, const exp::RunMetrics& inc) {
  Size bad = 0;
  if (full.values.size() != inc.values.size()) {
    std::printf("  IDENTITY VIOLATION: %zu metrics (full) vs %zu (incremental)\n",
                full.values.size(), inc.values.size());
    ++bad;
  }
  const Size limit = std::min(full.values.size(), inc.values.size());
  for (Size i = 0; i < limit; ++i) {
    const auto& [fname, fval] = full.values[i];
    const auto& [iname, ival] = inc.values[i];
    if (fname != iname || fval != ival) {
      std::printf("  IDENTITY VIOLATION at %s: full=%.17g inc=%.17g (%s)\n",
                  fname.c_str(), fval, ival, iname.c_str());
      ++bad;
    }
  }
  return bad;
}

}  // namespace

int main() {
  bench::print_header(
      "E25  bench_tick_pipeline — incremental vs full-rebuild tick throughput",
      "gated ticks skip graph+hierarchy rebuilds bit-identically; >=3x at "
      "n=4096 low-mobility, >=1.3x at n=4096 high mobility (vehicular), no "
      "regression at saturation (mu=1)");

  auto base = bench::paper_scenario();
  base.warmup = 5.0;
  base.duration = 20.0;

  const std::vector<Size> nodes{256, 1024, 4096};
  const Size reps = 2;
  bench::Artifact artifact("tick_pipeline", base, reps);

  struct Regime {
    const char* key;
    const char* title;
    double mu;  // 0 = static
  };
  const Regime regimes[] = {
      {"low", "low mobility (static)", 0.0},
      {"high", "high mobility (random waypoint, vehicular mu=0.2)", 0.2},
      {"sat", "saturation (random waypoint, mu=1)", 1.0},
  };

  Size violations = 0;
  for (const Regime& regime_cfg : regimes) {
    const char* regime = regime_cfg.key;
    auto cfg = base;
    if (regime_cfg.mu > 0.0) {
      cfg.mobility = exp::MobilityKind::kRandomWaypoint;
      cfg.mu = regime_cfg.mu;
    } else {
      cfg.mobility = exp::MobilityKind::kStatic;
    }

    analysis::TextTable table(
        {"|V|", "full (ticks/s)", "incremental (ticks/s)", "speedup"});
    for (const Size n : nodes) {
      cfg.n = n;
      const auto full = run_timed(cfg, /*incremental=*/false, reps);
      const auto inc = run_timed(cfg, /*incremental=*/true, reps);
      violations += count_divergences(full.metrics, inc.metrics);

      const double speedup = inc.ticks_per_sec / full.ticks_per_sec;
      table.add_row({std::to_string(n), bench::fixed(full.ticks_per_sec, 5),
                     bench::fixed(inc.ticks_per_sec, 5), bench::fixed(speedup, 3)});

      const auto point = [n](double v, Size count) {
        return exp::SeriesPoint{static_cast<double>(n), v, 0.0, count};
      };
      artifact.add_point(std::string("ticks_per_sec_full_") + regime,
                         point(full.ticks_per_sec, reps));
      artifact.add_point(std::string("ticks_per_sec_inc_") + regime,
                         point(inc.ticks_per_sec, reps));
      artifact.add_point(std::string("speedup_") + regime, point(speedup, reps));
    }
    std::printf("%s", table.to_string(regime_cfg.title).c_str());
  }

  artifact.set_scalar("identity_violations", static_cast<double>(violations));
  std::printf(
      "\nreading: the low-mobility rows are the gated steady state (update()\n"
      "returns unchanged, the hierarchy rebuild is skipped outright); the\n"
      "high-mobility rows show churn-proportional repair plus oracle pricing\n"
      "under realistic vehicular churn; the saturation rows bound the delta\n"
      "machinery's overhead when nearly every tick rewires everywhere.\n"
      "identity violations: %zu (must be 0).\n",
      violations);
  artifact.write();
  return violations == 0 ? 0 : 1;
}
