/// manet_sim — the command-line front end to the whole library.
///
/// Single run:   manet_sim --n 512 --mu 2 --duration 120 --registration
/// Scaling sweep: manet_sim --sweep 128,256,512,1024 --reps 3 --csv out.csv
/// Campaign:      manet_sim campaign --spec spec.json --out dir   (+ --plan /
///                --resume dir / --shard i/k / --merge — docs/CAMPAIGNS.md)
///
/// Run with --help for the full flag list (exp/cli.hpp).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "analysis/csv.hpp"
#include "analysis/json.hpp"
#include "analysis/model_fit.hpp"
#include "analysis/table.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "exp/artifacts.hpp"
#include "exp/campaign.hpp"
#include "exp/campaign_runner.hpp"
#include "exp/cli.hpp"
#include "sim/trace.hpp"

namespace {

using namespace manet;

void print_ledger(const exp::CampaignRunner& runner, const std::vector<bool>* done) {
  analysis::TextTable table(done != nullptr
                                ? std::vector<std::string>{"unit", "n", "block", "reps",
                                                           "status"}
                                : std::vector<std::string>{"unit", "n", "block", "reps"});
  for (const auto& unit : runner.plan()) {
    // Appended piecewise: GCC 12 misreads a chained "[" + std::string + ...
    // as an overlapping copy (-Wrestrict) at -O3.
    std::string reps = "[";
    reps.append(std::to_string(unit.rep_begin)).append(",");
    reps.append(std::to_string(unit.rep_end)).append(")");
    std::vector<std::string> row{unit.id(), std::to_string(unit.n),
                                 std::to_string(unit.block), reps};
    if (done != nullptr) row.push_back((*done)[unit.index] ? "done" : "pending");
    table.add_row(row);
  }
  const auto& spec = runner.spec();
  std::printf("%s", table
                        .to_string("campaign '" + spec.name + "' — " +
                                   std::to_string(runner.plan().size()) + " unit(s), " +
                                   std::to_string(spec.replications) +
                                   " replication(s)/point, fingerprint " +
                                   spec.fingerprint())
                        .c_str());
}

int run_campaign_command(int argc, char** argv) {
  const auto parsed = exp::parse_campaign_cli(argc - 1, argv + 1);
  if (parsed.options.show_help) {
    std::printf("%s", exp::campaign_cli_usage(argv[0]).c_str());
    return 0;
  }
  if (!parsed.ok) {
    std::fprintf(stderr, "error: %s\n\n%s", parsed.error.c_str(),
                 exp::campaign_cli_usage(argv[0]).c_str());
    return 2;
  }
  const auto& opt = parsed.options;

  // Spec source: --spec file, else the campaign.json of the directory.
  exp::CampaignSpec spec;
  std::string error;
  if (!opt.spec_path.empty()) {
    if (!exp::CampaignSpec::load(opt.spec_path, spec, error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
  } else if (!exp::read_campaign_manifest(opt.dir, spec, error)) {
    std::fprintf(stderr, "error: %s (pass --spec for a campaign not yet started)\n",
                 error.c_str());
    return 1;
  }

  exp::CampaignRunner runner(spec, opt.dir);

  if (opt.plan) {
    if (opt.dir.empty()) {
      print_ledger(runner, nullptr);
    } else {
      const auto done = runner.completed_units();
      print_ledger(runner, &done);
    }
    return 0;
  }

  if (opt.merge) {
    const auto started = std::chrono::steady_clock::now();
    auto merged = runner.merge();
    if (!merged.ok) {
      std::fprintf(stderr, "error: %s\n", merged.error.c_str());
      for (const Size index : merged.missing) {
        std::fprintf(stderr, "  missing: %s\n", runner.plan()[index].id().c_str());
      }
      return 1;
    }
    analysis::TextTable table({"n", "phi", "gamma", "total", "levels"});
    for (const auto& point : merged.campaign.points) {
      table.add_row({std::to_string(point.n),
                     analysis::TextTable::fmt(point.metrics.mean("phi_rate")),
                     analysis::TextTable::fmt(point.metrics.mean("gamma_rate")),
                     analysis::TextTable::fmt(point.metrics.mean("total_rate")),
                     analysis::TextTable::fmt(point.metrics.mean("levels"), 3)});
    }
    std::printf("%s", table
                          .to_string("campaign '" + spec.name + "' merged (" +
                                     std::to_string(merged.units) + " units)")
                          .c_str());

    std::vector<double> ns, totals;
    merged.campaign.series("total_rate", ns, totals);
    if (ns.size() >= 3) {
      const auto sel = analysis::select_model(ns, totals);
      std::printf("\n%s", sel.to_text().c_str());
    }

    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - started;
    const std::string artifact = opt.dir + "/CAMPAIGN_" + spec.name + ".json";
    if (!exp::write_campaign_artifact(artifact, spec, merged.campaign, wall.count(),
                                      /*thread_count=*/1, error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    std::printf("wrote merged artifact %s\n", artifact.c_str());
    return 0;
  }

  // Execute this shard's pending units.
  common::ThreadPool pool(opt.threads);
  exp::CampaignRunner::RunConfig config;
  config.shard_index = opt.shard_index;
  config.shard_count = opt.shard_count;
  config.resume = opt.resume;
  config.max_units = opt.max_units;
  config.pool = &pool;
  config.progress = [](const exp::WorkUnit& unit, Size done, Size total) {
    std::printf("  [%zu/%zu] %s reps [%zu,%zu) done\n", done, total, unit.id().c_str(),
                unit.rep_begin, unit.rep_end);
    std::fflush(stdout);
  };

  std::printf("campaign '%s': %zu unit(s), shard %zu/%zu, %zu thread(s)\n",
              spec.name.c_str(), runner.plan().size(), opt.shard_index, opt.shard_count,
              pool.thread_count());
  const auto report = runner.run(config);
  if (!report.ok) {
    std::fprintf(stderr, "error: %s\n", report.error.c_str());
    return 1;
  }
  std::printf("executed %zu unit(s), skipped %zu already-checkpointed, of %zu owned\n",
              report.executed, report.skipped, report.total);
  if (report.executed + report.skipped < report.total) {
    std::printf("stopped early (--max-units); resume with: %s campaign --resume %s\n",
                argv[0], opt.dir.c_str());
  } else if (opt.shard_count > 1) {
    std::printf("shard complete; after all shards: %s campaign --resume %s --merge\n",
                argv[0], opt.dir.c_str());
  } else {
    std::printf("all units checkpointed; merge with: %s campaign --resume %s --merge\n",
                argv[0], opt.dir.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace manet;

  if (argc > 1 && std::strcmp(argv[1], "campaign") == 0) {
    return run_campaign_command(argc, argv);
  }

  const auto parsed = exp::parse_cli(argc, argv);
  if (parsed.options.show_help) {
    std::printf("%s", exp::cli_usage(argv[0]).c_str());
    return 0;
  }
  if (!parsed.ok) {
    std::fprintf(stderr, "error: %s\n\n%s", parsed.error.c_str(),
                 exp::cli_usage(argv[0]).c_str());
    return 2;
  }
  const auto& opt = parsed.options;

  if (opt.sweep.empty()) {
    // Single scenario (possibly replicated).
    std::printf("scenario: %s\n", opt.scenario.describe().c_str());
    const auto agg = exp::run_replications(opt.scenario, opt.replications, opt.run);
    analysis::TextTable table({"metric", "mean", "ci95", "min", "max"});
    for (const auto& name : agg.names()) {
      const auto s = agg.summary(name);
      table.add_row({name, analysis::TextTable::fmt(s.mean), analysis::TextTable::fmt(s.ci95, 3),
                     analysis::TextTable::fmt(s.min), analysis::TextTable::fmt(s.max)});
    }
    std::printf("%s", table.to_string("metrics over " + std::to_string(opt.replications) +
                                      " replication(s)")
                          .c_str());
    if (!opt.json_path.empty() || opt.trace || !opt.metrics_json_path.empty()) {
      // --json, --trace and --metrics-json all describe one canonical
      // replication (the base seed), not an aggregate. It runs once with the
      // observers the flags ask for; attached observers never change its
      // RunMetrics.
      common::MetricsRegistry registry;
      sim::TraceSink sink(sim::TraceSink::Config{opt.trace_capacity, opt.trace_sample});
      exp::RunOptions observed = opt.run;
      if (!opt.metrics_json_path.empty()) observed.metrics = &registry;
      if (opt.trace) observed.trace = &sink;
      const auto metrics = exp::run_simulation(opt.scenario, observed);

      if (!opt.json_path.empty()) {
        std::ofstream json_file(opt.json_path);
        if (!json_file) {
          std::fprintf(stderr, "error: cannot write %s\n", opt.json_path.c_str());
          return 1;
        }
        analysis::JsonWriter w(json_file);
        exp::write_run_metrics_json(w, metrics);
        json_file << '\n';
        std::printf("wrote metrics JSON to %s\n", opt.json_path.c_str());
      }

      if (opt.trace) {
        std::printf("\ntrace: %zu events seen, %zu retained, %zu dropped "
                    "(capacity %zu, sample 1/%zu)\n",
                    sink.seen(), sink.size(), sink.dropped(), sink.capacity(),
                    opt.trace_sample);
        analysis::TextTable trace_table({"event", "count"});
        const auto& counts = sink.type_counts();
        for (Size i = 0; i < sim::kTraceEventTypeCount; ++i) {
          if (counts[i] == 0) continue;
          trace_table.add_row({sim::to_string(static_cast<sim::TraceEventType>(i)),
                               std::to_string(counts[i])});
        }
        std::printf("%s", trace_table.to_string("trace event counts").c_str());
      }

      if (!opt.metrics_json_path.empty()) {
        std::ofstream file(opt.metrics_json_path);
        if (!file) {
          std::fprintf(stderr, "error: cannot write %s\n", opt.metrics_json_path.c_str());
          return 1;
        }
        auto manifest = exp::RunManifest::capture("manet_sim", opt.scenario,
                                                  /*replications=*/1);
        analysis::JsonWriter w(file, /*pretty=*/true);
        w.begin_object();
        w.field("schema", "manet-sim-run/1");
        w.key("manifest");
        manifest.write_json(w);
        w.key("metrics");
        const Time end = opt.scenario.warmup + opt.scenario.duration;
        exp::write_registry_json(w, registry, end);
        if (opt.trace) {
          w.key("trace");
          exp::write_trace_json(w, sink);
        }
        w.end_object();
        file << '\n';
        std::printf("wrote metrics registry JSON to %s\n", opt.metrics_json_path.c_str());
      }
    }
    return 0;
  }

  if (opt.trace || !opt.metrics_json_path.empty()) {
    std::fprintf(stderr,
                 "warning: --trace/--metrics-json apply to single runs; ignored "
                 "during a sweep\n");
  }

  // Node-count sweep.
  common::ThreadPool pool;
  const auto campaign =
      exp::sweep_node_count(opt.scenario, opt.sweep, opt.replications, opt.run, &pool);

  analysis::TextTable table({"n", "phi", "gamma", "total", "levels"});
  for (const auto& point : campaign.points) {
    table.add_row({std::to_string(point.n),
                   analysis::TextTable::fmt(point.metrics.mean("phi_rate")),
                   analysis::TextTable::fmt(point.metrics.mean("gamma_rate")),
                   analysis::TextTable::fmt(point.metrics.mean("total_rate")),
                   analysis::TextTable::fmt(point.metrics.mean("levels"), 3)});
  }
  std::printf("%s", table.to_string("scaling sweep").c_str());

  std::vector<double> ns, totals;
  campaign.series("total_rate", ns, totals);
  if (ns.size() >= 3) {
    const auto sel = analysis::select_model(ns, totals);
    std::printf("\n%s", sel.to_text().c_str());
  }

  if (!opt.csv_path.empty()) {
    std::ofstream file(opt.csv_path);
    if (!file) {
      std::fprintf(stderr, "error: cannot write %s\n", opt.csv_path.c_str());
      return 1;
    }
    analysis::CsvWriter csv(file, {"n", "metric", "mean", "ci95", "reps"});
    for (const auto& point : campaign.points) {
      for (const auto& name : point.metrics.names()) {
        const auto s = point.metrics.summary(name);
        csv.write_row({std::to_string(point.n), name, std::to_string(s.mean),
                       std::to_string(s.ci95), std::to_string(s.count)});
      }
    }
    std::printf("wrote %zu CSV rows to %s\n", csv.rows_written(), opt.csv_path.c_str());
  }
  return 0;
}
