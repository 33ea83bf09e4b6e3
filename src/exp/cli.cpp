#include "exp/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <span>
#include <sstream>
#include <type_traits>
#include <utility>

namespace manet::exp {

namespace {

bool parse_size(const std::string& text, Size& out) {
  // Digits only: strtoull on its own would silently *wrap* a negative input
  // ("-3" -> 18446744073709551613) and accept "+3" / " 3" / "0x10"; a
  // malformed count must be rejected, not reinterpreted.
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || errno == ERANGE ||
      value > std::numeric_limits<Size>::max()) {
    return false;
  }
  out = static_cast<Size>(value);
  return true;
}

bool parse_double(const std::string& text, double& out) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  // Reject "nan"/"inf" (strtod accepts them): every numeric flag feeds a
  // rate, duration or threshold where a non-finite value silently corrupts
  // the whole run instead of failing here.
  if (end == nullptr || *end != '\0' || text.empty() || !std::isfinite(value)) {
    return false;
  }
  out = value;
  return true;
}

/// Split a "--flag=value" token. Returns true (and truncates \p flag at the
/// '=') when an inline value is present; scan_flags accepts the form for
/// every value-taking flag and rejects it on boolean flags.
bool split_inline_value(std::string& flag, std::string& value) {
  if (flag.size() < 3 || flag[0] != '-' || flag[1] != '-') return false;
  const auto eq = flag.find('=');
  if (eq == std::string::npos) return false;
  value = flag.substr(eq + 1);
  flag.resize(eq);
  return true;
}

/// How a value flag reads its text: the syntax a well-formed value has (for
/// the error message) and a setter that stores the value, false when the
/// text is malformed. Syntax only: a value's range is validate()'s rule.
struct ValueSyntax {
  std::string needs;
  std::function<bool(const std::string&)> set;
};

template <typename T>
ValueSyntax count(T& target) {
  return {"an unsigned integer", [&target](const std::string& text) {
            Size value = 0;
            if (!parse_size(text, value)) return false;
            target = static_cast<T>(value);
            return true;
          }};
}

ValueSyntax number(double& target) {
  return {"a number", [&target](const std::string& text) { return parse_double(text, target); }};
}

ValueSyntax path(std::string& target, std::string needs = "a path") {
  return {std::move(needs), [&target](const std::string& text) {
            target = text;
            return true;
          }};
}

ValueSyntax shard(Size& index, Size& count) {
  return {"i/k with 0 <= i < k", [&index, &count](const std::string& text) {
            const auto slash = text.find('/');
            Size i = 0;
            Size k = 0;
            if (slash == std::string::npos || !parse_size(text.substr(0, slash), i) ||
                !parse_size(text.substr(slash + 1), k) || k < 1 || i >= k) {
              return false;
            }
            index = i;
            count = k;
            return true;
          }};
}

ValueSyntax node_counts(std::vector<Size>& target) {
  return {"a comma-separated list of node counts", [&target](const std::string& text) {
            std::stringstream ss(text);
            std::string item;
            std::vector<Size> counts;
            while (std::getline(ss, item, ',')) {
              Size value = 0;
              if (!parse_size(item, value)) return false;
              counts.push_back(value);
            }
            if (counts.empty()) return false;
            target = std::move(counts);  // a repeated --sweep keeps its last list
            return true;
          }};
}

template <typename T>
ValueSyntax word(T& target,
                 std::initializer_list<std::pair<const char*, std::type_identity_t<T>>> words) {
  std::string needs;
  for (const auto& w : words) needs += (needs.empty() ? "one of " : "|") + std::string(w.first);
  return {needs, [&target, table = std::vector(words)](const std::string& text) {
            for (const auto& [w, value] : table) {
              if (text == w) {
                target = value;
                return true;
              }
            }
            return false;
          }};
}

/// One value flag: its name, the field name validate() reports for the field
/// it sets, and how it reads its text.
struct ValueFlag {
  const char* flag;
  const char* field;
  ValueSyntax syntax;
  bool* also = nullptr;  ///< set true with the value (a session flag's plane)
};

/// One boolean flag and the value it stores.
struct Switch {
  const char* flag;
  bool& target;
  bool value;
};

/// The one flag loop of both parsers: reads argv[1..] against a parser's
/// tables. A switch stores its value and refuses an inline value; a value
/// flag reads its inline value or the next token through its syntax;
/// "--help" / "-h" sets \p help and ends the scan. Returns the first error
/// ("<unknown> '<flag>'" for a flag in neither table), empty when none.
std::string scan_flags(int argc, const char* const* argv, std::span<const Switch> switches,
                       std::span<const ValueFlag> values, const char* unknown, bool& help) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string inline_value;
    const bool has_inline = split_inline_value(flag, inline_value);
    if (flag == "--help" || flag == "-h") {
      help = true;
      return {};
    }
    const auto named = [&flag](const auto& row) { return flag == row.flag; };
    if (const auto sw = std::find_if(switches.begin(), switches.end(), named);
        sw != switches.end()) {
      if (has_inline) return "'" + flag + "' does not take a value";
      sw->target = sw->value;
      continue;
    }
    const auto row = std::find_if(values.begin(), values.end(), named);
    if (row == values.end()) return std::string(unknown) + " '" + flag + "'";
    const char* value =
        has_inline ? inline_value.c_str() : (i + 1 < argc ? argv[++i] : nullptr);
    if (value == nullptr || !row->syntax.set(value)) return flag + " needs " + row->syntax.needs;
    if (row->also != nullptr) *row->also = true;
  }
  return {};
}

/// The flag that sets \p field, or the field name when no flag does.
std::string flag_of(std::span<const ValueFlag> values, const std::string& field) {
  for (const auto& row : values) {
    if (field == row.field) return row.flag;
  }
  return field;
}

}  // namespace

std::string campaign_cli_usage(const std::string& program) {
  return "usage: " + program +
         " campaign [flags]\n"
         "modes (default: execute pending units):\n"
         "  --plan             print the unit ledger (with status when a dir is known)\n"
         "  --merge            validate coverage (no gaps, no strays) and write the\n"
         "                     merged CAMPAIGN_<name>.json artifact\n"
         "campaign identity:\n"
         "  --spec FILE        campaign spec (schema manet-campaign-spec/1); optional\n"
         "                     when the campaign dir already has a campaign.json\n"
         "  --out DIR          campaign directory for a fresh run (refuses to rerun\n"
         "                     checkpointed units)\n"
         "  --resume DIR       continue a campaign: skip units with valid checkpoints\n"
         "execution:\n"
         "  --shard i/k        own only units with index mod k == i (k independent\n"
         "                     processes split one campaign; merge afterwards)\n"
         "  --threads N        replication worker threads per unit (0 = hardware)\n"
         "  --max-units N      stop after executing N units (time-boxed slices)\n"
         "  --help             this text\n"
         "\n"
         "Spec format, checkpoint schema and worked examples: docs/CAMPAIGNS.md\n";
}

CampaignCliParseResult parse_campaign_cli(int argc, const char* const* argv) {
  CampaignCliParseResult result;
  CampaignCliOptions& opt = result.options;

  auto fail = [&](const std::string& message) {
    result.ok = false;
    result.error = message;
    return result;
  };

  std::string out_dir;
  std::string resume_dir;
  const Switch switches[] = {
      {"--plan", opt.plan, true},
      {"--merge", opt.merge, true},
  };
  const ValueFlag values[] = {
      {"--spec", "spec_path", path(opt.spec_path, "a file path")},
      {"--out", "dir", path(out_dir, "a directory")},
      {"--resume", "dir", path(resume_dir, "a campaign directory")},
      {"--shard", "shard", shard(opt.shard_index, opt.shard_count)},
      {"--threads", "threads", count(opt.threads)},
      {"--max-units", "max_units", count(opt.max_units)},
  };
  result.error = scan_flags(argc, argv, switches, values, "unknown campaign flag", opt.show_help);
  if (!result.error.empty() || opt.show_help) {
    result.ok = opt.show_help;  // the scan stops at --help or at an error, never both
    return result;
  }
  // The replication pool keeps the run's worker ceiling.
  RunOptions workers;
  workers.threads = opt.threads;
  if (const auto errors = workers.validate(); !errors.empty()) {
    return fail(flag_of(values, errors.front().field) + " " + errors.front().rule);
  }

  if (!out_dir.empty() && !resume_dir.empty()) {
    return fail("use either --out (fresh campaign) or --resume (continue), not both");
  }
  opt.dir = out_dir.empty() ? resume_dir : out_dir;
  opt.resume = !resume_dir.empty();

  if (opt.plan && opt.merge) return fail("--plan and --merge are mutually exclusive");
  if (opt.merge && opt.shard_count > 1) {
    return fail("--merge is a single-process step; run it after all shards complete");
  }
  if (opt.spec_path.empty() && opt.dir.empty()) {
    return fail("campaign needs --spec FILE and/or a campaign directory "
                "(--out/--resume DIR)");
  }
  if (!opt.plan && opt.dir.empty()) {
    return fail("--out DIR (or --resume DIR) is required to execute or merge; "
                "--plan previews without a directory");
  }
  result.ok = true;
  return result;
}

std::string cli_usage(const std::string& program) {
  return "usage: " + program +
         " [flags]\n"
         "scenario:\n"
         "  --n N              node count (default 256)\n"
         "  --density D        nodes per m^2 (default 1.0)\n"
         "  --mu V             node speed m/s (default 1.0)\n"
         "  --seed S           RNG seed\n"
         "  --tick T           sampling interval s (default 1)\n"
         "  --warmup T         settle time s (default 20)\n"
         "  --duration T       measured window s (default 80)\n"
         "  --mobility M       rwp | rd | gm | rpgm | static (default rwp)\n"
         "  --radius R         connectivity | degree (default connectivity)\n"
         "  --degree D         target mean degree for --radius degree\n"
         "  --margin C         connectivity margin constant\n"
         "  --algo A           alca | maxmin1 | maxmin2 (default alca)\n"
         "  --strategy S       successor | weighted | unweighted\n"
         "  --links L          geometric | contraction (default geometric)\n"
         "  --beta B           geometric link range multiplier\n"
         "fault injection (any fault flag activates ARQ + repair):\n"
         "  --loss P           per-hop Bernoulli control-packet loss\n"
         "  --burst-loss P     Gilbert-Elliott bad-state per-hop loss\n"
         "  --burst-on P       per-packet P(chain enters bad state)\n"
         "  --burst-len N      mean bad-state sojourn in packets\n"
         "  --crash-rate R     node crash hazard (crashes /node/s)\n"
         "  --downtime T       mean rejoin delay after a crash, s\n"
         "  --retry-budget N   ARQ retransmissions after the first try\n"
         "  --arq-timeout T    first retransmission timeout, s\n"
         "  --audit T          server-audit / repair period, s\n"
         "  --outage-radius R  regional-outage disk radius, m\n"
         "  --outage-start T   outage onset (run time), s\n"
         "  --outage-duration T  outage length, s\n"
         "sessions + handover FSM (E29; session flags activate the plane):\n"
         "  --sessions         run long-lived sessions over the handover FSM plane\n"
         "  --session-rate R   session arrivals /node/s (default 0.2)\n"
         "  --session-duration T  mean session lifetime, s (default 4)\n"
         "  --session-pps R    per-session offered packet rate /s (default 4)\n"
         "  --handover-timeout T  first signalling-attempt timeout, s (default 0.2)\n"
         "  --handover-retries N  signalling reattempts per stage (default 3)\n"
         "  --handover-backoff B  timeout multiplier per retry, >= 1 (default 2)\n"
         "measurement:\n"
         "  --gls              run the GLS baseline side by side\n"
         "  --registration     track owner-driven registration updates\n"
         "  --routing          measure routing table size + path stretch\n"
         "  --no-events        skip the reorg event taxonomy\n"
         "  --no-states        skip ALCA state occupancy\n"
         "  --no-hops          skip the h_k measurement\n"
         "tick pipeline (both default on; see docs/ARCHITECTURE.md):\n"
         "  --full-tick        rebuild everything every tick (reference arm;\n"
         "                     disables the incremental pipeline)\n"
         "  --no-repair        incremental ticks rebuild changed hierarchies\n"
         "                     with HierarchyBuilder instead of localized repair\n"
         "  --threads N        sharded-tick worker threads (default 1 = inline on\n"
         "                     the calling thread, 0 = hardware); output is\n"
         "                     identical at any N\n"
         "  --shards N         sharded-tick shard count (rounded up to a power of\n"
         "                     two, max 1024; default 0 = auto: 1 at one thread,\n"
         "                     else max(16, 4 x workers)); output is identical\n"
         "                     at any N\n"
         "query serving (E31; see docs/QUERY_ENGINE.md):\n"
         "  --query-load N     serve N location lookups per measured tick through\n"
         "                     the epoch-gated lm::QueryEngine (default 0 = off);\n"
         "                     emits the query_* metrics, identical at any --threads\n"
         "campaign (in-process; `campaign` subcommand adds checkpoint/resume/shard):\n"
         "  --reps R           Monte-Carlo replications (default 1)\n"
         "  --sweep N1,N2,...  sweep node counts instead of a single run\n"
         "  --csv PATH         write sweep results as CSV\n"
         "  --json PATH        write single-run metrics as JSON\n"
         "observability:\n"
         "  --trace            record handoff/reorg events, print a summary\n"
         "  --trace-capacity N ring-buffer slots for --trace (default 4096)\n"
         "  --trace-sample N   keep every Nth trace event (default 1)\n"
         "  --metrics-json P   write live metrics registry + manifest (+ trace\n"
         "                     when --trace is on) as JSON to path P\n"
         "  --help             this text\n";
}

CliParseResult parse_cli(int argc, const char* const* argv) {
  CliParseResult result;
  CliOptions& opt = result.options;
  ScenarioConfig& scenario = opt.scenario;
  RunOptions& run = opt.run;

  auto fail = [&](const std::string& message) {
    result.ok = false;
    result.error = message;
    return result;
  };

  const Switch switches[] = {
      {"--gls", run.run_gls, true},
      {"--registration", run.track_registration, true},
      {"--routing", run.measure_routing, true},
      {"--no-events", run.track_events, false},
      {"--no-states", run.track_states, false},
      {"--no-hops", run.measure_hops, false},
      {"--full-tick", run.incremental_tick, false},
      {"--no-repair", run.localized_repair, false},
      {"--sessions", scenario.sessions, true},
      {"--trace", opt.trace, true},
  };
  bool* const kSessions = &scenario.sessions;
  const ValueFlag values[] = {
      {"--n", "n", count(scenario.n)},
      {"--density", "density", number(scenario.density)},
      {"--mu", "mu", number(scenario.mu)},
      {"--seed", "seed", count(scenario.seed)},
      {"--tick", "tick", number(scenario.tick)},
      {"--warmup", "warmup", number(scenario.warmup)},
      {"--duration", "duration", number(scenario.duration)},
      {"--mobility", "mobility",
       word(scenario.mobility, {{"rwp", MobilityKind::kRandomWaypoint},
                                {"rd", MobilityKind::kRandomDirection},
                                {"gm", MobilityKind::kGaussMarkov},
                                {"rpgm", MobilityKind::kGroup},
                                {"static", MobilityKind::kStatic}})},
      {"--radius", "radius_policy",
       word(scenario.radius_policy, {{"connectivity", RadiusPolicy::kConnectivity},
                                     {"degree", RadiusPolicy::kMeanDegree}})},
      {"--degree", "target_degree", number(scenario.target_degree)},
      {"--margin", "connectivity_margin", number(scenario.connectivity_margin)},
      {"--algo", "cluster_algo",
       word(scenario.cluster_algo, {{"alca", ClusterAlgo::kAlca},
                                    {"maxmin1", ClusterAlgo::kMaxMin1},
                                    {"maxmin2", ClusterAlgo::kMaxMin2}})},
      {"--strategy", "handoff.select.strategy",
       word(scenario.handoff.select.strategy,
            {{"successor", lm::SelectStrategy::kFlatSuccessor},
             {"weighted", lm::SelectStrategy::kWeightedDescent},
             {"unweighted", lm::SelectStrategy::kUnweightedDescent}})},
      {"--links", "geometric_links",
       word(scenario.geometric_links, {{"geometric", true}, {"contraction", false}})},
      {"--beta", "link_beta", number(scenario.link_beta)},
      {"--loss", "fault.loss", number(scenario.fault.loss)},
      {"--burst-loss", "fault.burst_loss", number(scenario.fault.burst_loss)},
      {"--burst-on", "fault.burst_on", number(scenario.fault.burst_on)},
      {"--burst-len", "fault.burst_len", number(scenario.fault.burst_len)},
      {"--crash-rate", "fault.crash_rate", number(scenario.fault.crash_rate)},
      {"--downtime", "fault.mean_downtime", number(scenario.fault.mean_downtime)},
      {"--retry-budget", "fault.retry_budget", count(scenario.fault.retry_budget)},
      {"--arq-timeout", "fault.arq_timeout", number(scenario.fault.arq_timeout)},
      {"--audit", "fault.audit_period", number(scenario.fault.audit_period)},
      {"--outage-radius", "fault.outage_radius", number(scenario.fault.outage_radius)},
      {"--outage-start", "fault.outage_start", number(scenario.fault.outage_start)},
      {"--outage-duration", "fault.outage_duration", number(scenario.fault.outage_duration)},
      {"--session-rate", "session.sessions_per_node_per_sec",
       number(scenario.session.sessions_per_node_per_sec), kSessions},
      {"--session-duration", "session.mean_duration", number(scenario.session.mean_duration),
       kSessions},
      {"--session-pps", "session.packets_per_sec", number(scenario.session.packets_per_sec),
       kSessions},
      {"--handover-timeout", "handover.timeout", number(scenario.handover.timeout), kSessions},
      {"--handover-retries", "handover.max_retries", count(scenario.handover.max_retries),
       kSessions},
      {"--handover-backoff", "handover.backoff", number(scenario.handover.backoff), kSessions},
      {"--threads", "threads", count(run.threads)},
      {"--shards", "shards", count(run.shards)},
      {"--query-load", "query_load", count(run.query_load)},
      {"--reps", "replications", count(opt.replications)},
      {"--sweep", "sweep", node_counts(opt.sweep)},
      {"--csv", "csv_path", path(opt.csv_path)},
      {"--json", "json_path", path(opt.json_path)},
      {"--metrics-json", "metrics_json_path", path(opt.metrics_json_path)},
      {"--trace-capacity", "trace_capacity", count(opt.trace_capacity)},
      {"--trace-sample", "trace_sample", count(opt.trace_sample)},
  };

  result.error = scan_flags(argc, argv, switches, values, "unknown flag", opt.show_help);
  if (!result.error.empty() || opt.show_help) {
    result.ok = opt.show_help;  // the scan stops at --help or at an error, never both
    return result;
  }

  // Every range rule is validate()'s; the first error is reported under the
  // flag that sets its field. A sweep point is validated with its own n.
  auto errors = scenario.validate();
  if (errors.empty()) errors = run.validate();
  if (!errors.empty()) {
    return fail(flag_of(values, errors.front().field) + " " + errors.front().rule);
  }
  for (const Size n : opt.sweep) {
    ScenarioConfig point = scenario;
    point.n = n;
    const auto point_errors = point.validate();
    if (point_errors.empty()) continue;
    const auto& e = point_errors.front();
    return fail("--sweep point n=" + std::to_string(n) + ": " +
                (e.field == "n" ? e.field : flag_of(values, e.field)) + " " + e.rule);
  }
  // The CLI's own counts.
  if (opt.replications < 1) return fail("--reps must be >= 1");
  if (opt.trace_capacity < 1) return fail("--trace-capacity must be >= 1");
  if (opt.trace_sample < 1) return fail("--trace-sample must be >= 1");
  result.ok = true;
  return result;
}

}  // namespace manet::exp
