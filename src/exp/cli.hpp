#pragma once

#include <string>
#include <vector>

#include "exp/simulation.hpp"

/// \file cli.hpp
/// Command-line configuration for scenario-driven binaries (the manet_sim
/// tool and any user-written driver). Flags map 1:1 onto ScenarioConfig /
/// RunOptions fields; unknown flags produce an error with the usage text so
/// typos never silently run the default scenario.

namespace manet::exp {

struct CliOptions {
  ScenarioConfig scenario;
  RunOptions run;
  Size replications = 1;
  std::vector<Size> sweep;   ///< non-empty => sweep node counts
  std::string csv_path;      ///< non-empty => write sweep CSV here
  std::string json_path;     ///< non-empty => write single-run metrics JSON
  std::string metrics_json_path;  ///< non-empty => write registry+manifest JSON
  bool trace = false;        ///< attach a TraceSink and print an event summary
  Size trace_capacity = 4096;     ///< ring-buffer slots for --trace
  Size trace_sample = 1;          ///< keep every Nth event for --trace
  bool show_help = false;
};

struct CliParseResult {
  CliOptions options;
  bool ok = false;
  std::string error;  ///< set when !ok and !options.show_help
};

/// Options for the `manet_sim campaign` subcommand (see exp/campaign_runner.hpp
/// and docs/CAMPAIGNS.md). Exactly one of three modes runs: --plan (print the
/// unit ledger), --merge (validate coverage + write the merged artifact), or
/// execute (the default: run this shard's pending units).
struct CampaignCliOptions {
  std::string spec_path;  ///< --spec FILE (optional when the dir has campaign.json)
  std::string dir;        ///< --out DIR for a fresh run, --resume DIR to continue
  bool plan = false;      ///< --plan: print the unit ledger and exit
  bool resume = false;    ///< set by --resume DIR
  bool merge = false;     ///< --merge: coverage-validated index-ordered merge
  Size shard_index = 0;   ///< --shard i/k: own units with index % k == i
  Size shard_count = 1;
  Size threads = 0;       ///< --threads N replication workers (0 = hardware)
  Size max_units = 0;     ///< --max-units N: stop after N units (time-boxing)
  bool show_help = false;
};

struct CampaignCliParseResult {
  CampaignCliOptions options;
  bool ok = false;
  std::string error;  ///< set when !ok and !options.show_help
};

/// Parse the argv of `manet_sim campaign ...` (argv[0] is the subcommand
/// itself and is skipped). Accepted flags: --spec FILE, --out DIR,
/// --resume DIR, --plan, --merge, --shard i/k, --threads N, --max-units N,
/// --help.
CampaignCliParseResult parse_campaign_cli(int argc, const char* const* argv);

/// Usage text for the campaign subcommand.
std::string campaign_cli_usage(const std::string& program);

/// Parse argv (argv[0] skipped). Parsing checks syntax only (digits, a
/// finite number, an enum word); every range rule is ScenarioConfig::
/// validate()'s or RunOptions::validate()'s, reported as "<flag> <rule>",
/// and each --sweep point is validated with its own n. Accepted flags:
///   --n N            --density D        --mu V          --seed S
///   --tick T         --warmup T         --duration T    --reps R
///   --mobility {rwp|rd|gm|rpgm|static}
///   --radius {connectivity|degree}      --degree D      --margin C
///   --algo {alca|maxmin1|maxmin2}
///   --strategy {successor|weighted|unweighted}
///   --links {geometric|contraction}     --beta B
///   --gls  --registration  --routing  --no-events  --no-states  --no-hops
///   --threads N (sharded tick)          --query-load N (E31 query serving)
///   --sweep N1,N2,...                   --csv PATH
///   --json PATH (single-run metrics as JSON)
///   --trace  --trace-capacity N  --trace-sample N
///   --metrics-json PATH (live registry + manifest + trace as JSON)
///   --help
CliParseResult parse_cli(int argc, const char* const* argv);

/// Usage text for --help / errors.
std::string cli_usage(const std::string& program);

}  // namespace manet::exp
