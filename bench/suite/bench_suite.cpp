/// bench_suite — one process of the repository benchmark (see README.md).
///
///   bench_suite --workload W --seed S --mode {e2e,setup,traced}
///               [--reps R] [--seconds T] [--scale D] [--ticks K]
///               [--trace-out PATH]
///
/// e2e     exp::run_simulation with default RunOptions plus the workload's
///         settings, timed around each call, tracing off;
/// setup   the same call with duration = 0 (materialize, connectivity
///         retries, initial build, warmup, final accounting);
/// traced  the span-wrapped replay of replication 0 (replay.hpp); writes the
///         spans as a Chrome trace to --trace-out when given.
///
/// e2e and setup run replications 0, 1, ... until at least R have run and at
/// least T seconds of calls were timed (defaults 1 and 0). --scale D divides
/// n and the query load by D and --ticks K measures K ticks instead of the
/// workload's duration (the runner's smoke mode). Prints one JSON object on
/// stdout. Exit codes: 0 ok, 1 trace file not written, 2 usage error.

#include <malloc.h>

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "analysis/json.hpp"
#include "common/rng.hpp"
#include "exp/simulation.hpp"
#include "replay.hpp"

namespace {

using namespace manet;

/// The benchmark's workloads. Why each exists is recorded in README.md and
/// BENCHMARK.json: a high-churn parallel run, a low-churn large sequential
/// run, a faulted run with sessions, and a static query-serving run. Each
/// replication is kept to a few seconds so that one measured window holds
/// several replications and reports their median.
struct Workload {
  const char* name;
  Size n;
  double mu;
  exp::MobilityKind mobility;
  Time warmup;
  Time duration;
  Size threads;
  bool faults_and_sessions;  ///< loss 0.05, crash rate 0.002, downtime 5, sessions
  Size query_load;
};

constexpr Workload kWorkloads[] = {
    {"mobile", 16384, 1.0, exp::MobilityKind::kRandomWaypoint, 5.0, 5.0, 4, false, 0},
    {"pedestrian", 16384, 0.05, exp::MobilityKind::kRandomWaypoint, 5.0, 5.0, 1, false, 0},
    {"faulted-sessions", 4096, 0.2, exp::MobilityKind::kRandomWaypoint, 5.0, 5.0, 4, true, 0},
    {"static-query", 32768, 1.0, exp::MobilityKind::kStatic, 0.0, 10.0, 4, false, 4194304},
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "bench_suite: " << error
            << "\nusage: bench_suite --workload W --seed S --mode {e2e,setup,traced}"
               " [--reps R] [--seconds T] [--scale D] [--ticks K] [--trace-out PATH]\n";
  std::exit(2);
}

std::uint64_t parse_count(const std::string& flag, const std::string& text) {
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc{} || end != text.data() + text.size()) {
    usage(flag + " expects a 64-bit non-negative integer, got '" + text + "'");
  }
  return value;
}

/// Return freed heap memory to the system, then reset the process's peak
/// resident set size to its current size (Linux clear_refs "5"), so that the
/// next peak_rss_mb() covers one replication and not what earlier ones left.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  if (!(clear_refs << "5" << std::flush)) {
    std::cerr << "bench_suite: cannot reset the peak RSS through /proc/self/clear_refs\n";
    std::exit(1);
  }
}

/// Peak resident set size since the last reset_peak_rss() (VmHWM), MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // in kB
  }
  std::cerr << "bench_suite: no VmHWM in /proc/self/status\n";
  std::exit(1);
}

void write_named(analysis::JsonWriter& w, std::string_view key, const bench::Named& values) {
  w.key(key).begin_object();
  for (const auto& [name, value] : values) w.field(name, value);
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, mode, trace_out;
  std::uint64_t seed = 0, scale = 1, ticks = 0, reps = 1;
  double seconds = 0.0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = parse_count(flag, value);
      have_seed = true;
    } else if (flag == "--mode") {
      mode = value;
    } else if (flag == "--scale") {
      scale = parse_count(flag, value);
    } else if (flag == "--ticks") {
      ticks = parse_count(flag, value);
    } else if (flag == "--reps") {
      reps = parse_count(flag, value);
    } else if (flag == "--seconds") {
      seconds = static_cast<double>(parse_count(flag, value));
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  const Workload* workload = nullptr;
  for (const auto& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr) usage("unknown workload '" + workload_name + "'");
  if (!have_seed) usage("--seed is required");
  if (mode != "e2e" && mode != "setup" && mode != "traced") usage("unknown mode '" + mode + "'");
  if (scale == 0 || scale > workload->n / 2) usage("--scale out of range");

  exp::ScenarioConfig cfg;
  cfg.n = workload->n / scale;
  cfg.mu = workload->mu;
  cfg.mobility = workload->mobility;
  cfg.warmup = workload->warmup;
  cfg.duration = ticks > 0 ? static_cast<Time>(ticks) * cfg.tick : workload->duration;
  cfg.seed = seed;
  if (workload->faults_and_sessions) {
    cfg.fault.loss = 0.05;
    cfg.fault.crash_rate = 0.002;
    cfg.fault.mean_downtime = 5.0;
    cfg.sessions = true;
  }
  if (mode == "setup") cfg.duration = 0.0;
  exp::RunOptions options;
  options.threads = workload->threads;
  options.query_load = workload->query_load / scale;

  std::ostringstream body;
  analysis::JsonWriter w(body);
  w.begin_object()
      .field("mode", mode)
      .field("workload", workload->name)
      .field("seed", seed)
      .key("config")
      .begin_object()
      .field("n", static_cast<std::uint64_t>(cfg.n))
      .field("tick", cfg.tick)
      .field("warmup", cfg.warmup)
      .field("duration", cfg.duration)
      .field("threads", static_cast<std::uint64_t>(options.threads))
      .field("faulted", cfg.fault.enabled())
      .field("sessions", cfg.sessions)
      .field("query_load", static_cast<std::uint64_t>(options.query_load))
      .end_object()
      .key("host")
      .begin_object()
      .field("hardware_concurrency", static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .field("compiler", BENCH_COMPILER)
      .field("build_type", BENCH_BUILD_TYPE)
      .end_object();

  if (mode == "traced") {
    const auto start = std::chrono::steady_clock::now();
    bench::SpanTrace trace;
    const auto result = bench::replay_simulation(cfg, options, trace);
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
    w.field("wall_s", wall.count());
    write_named(w, "layers", result.layers);
    write_named(w, "ledgers", result.ledgers);
    const std::string run_id = std::string(workload->name) + "/" + std::to_string(seed);
    if (!trace_out.empty() && !trace.write_chrome(trace_out, run_id)) {
      std::cerr << "bench_suite: cannot write " << trace_out << "\n";
      return 1;
    }
  } else {
    // Replication r runs seed r == 0 ? S : derive_seed(S, r), as a Monte-Carlo
    // campaign does, until both --reps and --seconds are satisfied.
    w.key("runs").begin_array();
    double measured = 0.0;
    for (std::uint64_t r = 0; r < reps || measured < seconds; ++r) {
      cfg.seed = r == 0 ? seed : common::derive_seed(seed, r);
      reset_peak_rss();
      const auto call = std::chrono::steady_clock::now();
      const auto metrics = exp::run_simulation(cfg, options);
      const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - call;
      measured += wall.count();
      w.begin_object()
          .field("seed", cfg.seed)
          .field("wall_s", wall.count())
          .field("peak_rss_mb", peak_rss_mb());
      write_named(w, "metrics", metrics.values);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  std::cout << body.str() << std::endl;
  return 0;
}
