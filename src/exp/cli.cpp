#include "exp/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>

#include "sim/shard.hpp"

namespace manet::exp {

namespace {

// A tick never has more than sim::kMaxShardCount shards, so a worker beyond
// that could never receive one.
static_assert(sim::kMaxShardCount == 1024);
constexpr const char* kThreadsCeiling = "--threads must be <= 1024";

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
/// '=') when an inline value is present; both CLI parsers accept the form
/// for every value-taking flag and reject it on boolean flags.
bool split_inline_value(std::string& flag, std::string& value) {
  if (flag.size() < 3 || flag[0] != '-' || flag[1] != '-') return false;
  const auto eq = flag.find('=');
  if (eq == std::string::npos) return false;
  value = flag.substr(eq + 1);
  flag.resize(eq);
  return true;
}

bool parse_size_list(const std::string& text, std::vector<Size>& out) {
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    Size value = 0;
    if (!parse_size(item, value) || value == 0) return false;
    out.push_back(value);
  }
  return !out.empty();
}

bool parse_shard(const std::string& text, Size& index, Size& count) {
  const auto slash = text.find('/');
  if (slash == std::string::npos) return false;
  Size i = 0;
  Size k = 0;
  if (!parse_size(text.substr(0, slash), i) || !parse_size(text.substr(slash + 1), k)) {
    return false;
  }
  if (k < 1 || i >= k) return false;
  index = i;
  count = k;
  return true;
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
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string inline_value;
    const bool has_inline = split_inline_value(flag, inline_value);
    bool inline_used = false;
    auto next = [&]() -> const char* {
      if (has_inline) {
        inline_used = true;
        return inline_value.c_str();
      }
      return i + 1 < argc ? argv[++i] : nullptr;
    };

    if (flag == "--help" || flag == "-h") {
      opt.show_help = true;
      result.ok = true;
      return result;
    } else if (flag == "--plan") {
      opt.plan = true;
    } else if (flag == "--merge") {
      opt.merge = true;
    } else if (flag == "--spec") {
      const char* value = next();
      if (value == nullptr) return fail("--spec needs a file path");
      opt.spec_path = value;
    } else if (flag == "--out") {
      const char* value = next();
      if (value == nullptr) return fail("--out needs a directory");
      out_dir = value;
    } else if (flag == "--resume") {
      const char* value = next();
      if (value == nullptr) return fail("--resume needs a campaign directory");
      resume_dir = value;
    } else if (flag == "--shard") {
      const char* value = next();
      if (value == nullptr || !parse_shard(value, opt.shard_index, opt.shard_count)) {
        return fail("--shard needs i/k with 0 <= i < k");
      }
    } else if (flag == "--threads" || flag == "--max-units") {
      const char* value = next();
      Size parsed = 0;
      if (value == nullptr || !parse_size(value, parsed)) {
        return fail(flag + " needs an unsigned integer");
      }
      if (flag == "--threads" && parsed > sim::kMaxShardCount) return fail(kThreadsCeiling);
      if (flag == "--threads") opt.threads = parsed;
      else opt.max_units = parsed;
    } else {
      return fail("unknown campaign flag '" + flag + "'");
    }
    if (has_inline && !inline_used) {
      return fail("'" + flag + "' does not take a value");
    }
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

  auto fail = [&](const std::string& message) {
    result.ok = false;
    result.error = message;
    return result;
  };

  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string inline_value;
    const bool has_inline = split_inline_value(flag, inline_value);
    bool inline_used = false;
    auto next = [&]() -> const char* {
      if (has_inline) {
        inline_used = true;
        return inline_value.c_str();
      }
      return i + 1 < argc ? argv[++i] : nullptr;
    };

    if (flag == "--help" || flag == "-h") {
      opt.show_help = true;
      result.ok = true;
      return result;
    } else if (flag == "--gls") {
      opt.run.run_gls = true;
    } else if (flag == "--registration") {
      opt.run.track_registration = true;
    } else if (flag == "--routing") {
      opt.run.measure_routing = true;
    } else if (flag == "--no-events") {
      opt.run.track_events = false;
    } else if (flag == "--no-states") {
      opt.run.track_states = false;
    } else if (flag == "--no-hops") {
      opt.run.measure_hops = false;
    } else if (flag == "--full-tick") {
      opt.run.incremental_tick = false;
    } else if (flag == "--no-repair") {
      opt.run.localized_repair = false;
    } else if (flag == "--mobility") {
      const char* value = next();
      if (value == nullptr) return fail("--mobility needs a value");
      const std::string v = value;
      if (v == "rwp") opt.scenario.mobility = MobilityKind::kRandomWaypoint;
      else if (v == "rd") opt.scenario.mobility = MobilityKind::kRandomDirection;
      else if (v == "gm") opt.scenario.mobility = MobilityKind::kGaussMarkov;
      else if (v == "rpgm") opt.scenario.mobility = MobilityKind::kGroup;
      else if (v == "static") opt.scenario.mobility = MobilityKind::kStatic;
      else return fail("unknown mobility '" + v + "'");
    } else if (flag == "--radius") {
      const char* value = next();
      if (value == nullptr) return fail("--radius needs a value");
      const std::string v = value;
      if (v == "connectivity") opt.scenario.radius_policy = RadiusPolicy::kConnectivity;
      else if (v == "degree") opt.scenario.radius_policy = RadiusPolicy::kMeanDegree;
      else return fail("unknown radius policy '" + v + "'");
    } else if (flag == "--algo") {
      const char* value = next();
      if (value == nullptr) return fail("--algo needs a value");
      const std::string v = value;
      if (v == "alca") opt.scenario.cluster_algo = ClusterAlgo::kAlca;
      else if (v == "maxmin1") opt.scenario.cluster_algo = ClusterAlgo::kMaxMin1;
      else if (v == "maxmin2") opt.scenario.cluster_algo = ClusterAlgo::kMaxMin2;
      else return fail("unknown clustering algorithm '" + v + "'");
    } else if (flag == "--strategy") {
      const char* value = next();
      if (value == nullptr) return fail("--strategy needs a value");
      const std::string v = value;
      if (v == "successor") {
        opt.scenario.handoff.select.strategy = lm::SelectStrategy::kFlatSuccessor;
      } else if (v == "weighted") {
        opt.scenario.handoff.select.strategy = lm::SelectStrategy::kWeightedDescent;
      } else if (v == "unweighted") {
        opt.scenario.handoff.select.strategy = lm::SelectStrategy::kUnweightedDescent;
      } else {
        return fail("unknown strategy '" + v + "'");
      }
    } else if (flag == "--links") {
      const char* value = next();
      if (value == nullptr) return fail("--links needs a value");
      const std::string v = value;
      if (v == "geometric") opt.scenario.geometric_links = true;
      else if (v == "contraction") opt.scenario.geometric_links = false;
      else return fail("unknown link model '" + v + "'");
    } else if (flag == "--csv") {
      const char* value = next();
      if (value == nullptr) return fail("--csv needs a path");
      opt.csv_path = value;
    } else if (flag == "--json") {
      const char* value = next();
      if (value == nullptr) return fail("--json needs a path");
      opt.json_path = value;
    } else if (flag == "--metrics-json") {
      const char* value = next();
      if (value == nullptr) return fail("--metrics-json needs a path");
      opt.metrics_json_path = value;
    } else if (flag == "--trace") {
      opt.trace = true;
    } else if (flag == "--trace-capacity" || flag == "--trace-sample") {
      const char* value = next();
      Size parsed = 0;
      if (value == nullptr || !parse_size(value, parsed) || parsed == 0) {
        return fail(flag + " needs a positive integer");
      }
      if (flag == "--trace-capacity") opt.trace_capacity = parsed;
      else opt.trace_sample = parsed;
    } else if (flag == "--sweep") {
      const char* value = next();
      if (value == nullptr || !parse_size_list(value, opt.sweep)) {
        return fail("--sweep needs a comma-separated list of node counts");
      }
    } else if (flag == "--n" || flag == "--seed" || flag == "--reps" ||
               flag == "--threads" || flag == "--shards" || flag == "--query-load") {
      const char* value = next();
      Size parsed = 0;
      if (value == nullptr || !parse_size(value, parsed)) {
        return fail(flag + " needs an unsigned integer");
      }
      if (flag == "--threads" && parsed > sim::kMaxShardCount) return fail(kThreadsCeiling);
      if (flag == "--n") opt.scenario.n = parsed;
      else if (flag == "--seed") opt.scenario.seed = parsed;
      else if (flag == "--threads") opt.run.threads = parsed;
      else if (flag == "--shards") opt.run.shards = parsed;
      else if (flag == "--query-load") opt.run.query_load = parsed;
      else opt.replications = parsed;
    } else if (flag == "--retry-budget") {
      const char* value = next();
      Size parsed = 0;
      if (value == nullptr || !parse_size(value, parsed)) {
        return fail(flag + " needs an unsigned integer");
      }
      opt.scenario.fault.retry_budget = parsed;
    } else if (flag == "--sessions") {
      opt.scenario.sessions = true;
    } else if (flag == "--handover-retries") {
      const char* value = next();
      Size parsed = 0;
      if (value == nullptr || !parse_size(value, parsed)) {
        return fail(flag + " needs an unsigned integer");
      }
      opt.scenario.handover.max_retries = parsed;
      opt.scenario.sessions = true;
    } else if (flag == "--session-rate" || flag == "--session-duration" ||
               flag == "--session-pps" || flag == "--handover-timeout" ||
               flag == "--handover-backoff") {
      const char* value = next();
      double parsed = 0.0;
      if (value == nullptr || !parse_double(value, parsed) || parsed <= 0.0) {
        return fail(flag + " needs a positive number");
      }
      opt.scenario.sessions = true;
      if (flag == "--session-rate") opt.scenario.session.sessions_per_node_per_sec = parsed;
      else if (flag == "--session-duration") opt.scenario.session.mean_duration = parsed;
      else if (flag == "--session-pps") opt.scenario.session.packets_per_sec = parsed;
      else if (flag == "--handover-timeout") opt.scenario.handover.timeout = parsed;
      else opt.scenario.handover.backoff = parsed;
    } else if (flag == "--density" || flag == "--mu" || flag == "--tick" ||
               flag == "--warmup" || flag == "--duration" || flag == "--degree" ||
               flag == "--margin" || flag == "--beta") {
      const char* value = next();
      double parsed = 0.0;
      if (value == nullptr || !parse_double(value, parsed)) {
        return fail(flag + " needs a number");
      }
      if (flag == "--density") opt.scenario.density = parsed;
      else if (flag == "--mu") opt.scenario.mu = parsed;
      else if (flag == "--tick") opt.scenario.tick = parsed;
      else if (flag == "--warmup") opt.scenario.warmup = parsed;
      else if (flag == "--duration") opt.scenario.duration = parsed;
      else if (flag == "--degree") opt.scenario.target_degree = parsed;
      else if (flag == "--margin") opt.scenario.connectivity_margin = parsed;
      else opt.scenario.link_beta = parsed;
    } else if (flag == "--loss" || flag == "--burst-loss" || flag == "--burst-on" ||
               flag == "--burst-len" || flag == "--crash-rate" || flag == "--downtime" ||
               flag == "--arq-timeout" || flag == "--audit" ||
               flag == "--outage-radius" || flag == "--outage-start" ||
               flag == "--outage-duration") {
      const char* value = next();
      double parsed = 0.0;
      if (value == nullptr || !parse_double(value, parsed) || parsed < 0.0) {
        return fail(flag + " needs a non-negative number");
      }
      sim::FaultConfig& fault = opt.scenario.fault;
      if (flag == "--loss") fault.loss = parsed;
      else if (flag == "--burst-loss") fault.burst_loss = parsed;
      else if (flag == "--burst-on") fault.burst_on = parsed;
      else if (flag == "--burst-len") fault.burst_len = parsed;
      else if (flag == "--crash-rate") fault.crash_rate = parsed;
      else if (flag == "--downtime") fault.mean_downtime = parsed;
      else if (flag == "--arq-timeout") fault.arq_timeout = parsed;
      else if (flag == "--audit") fault.audit_period = parsed;
      else if (flag == "--outage-radius") fault.outage_radius = parsed;
      else if (flag == "--outage-start") fault.outage_start = parsed;
      else fault.outage_duration = parsed;
    } else {
      return fail("unknown flag '" + flag + "'");
    }
    if (has_inline && !inline_used) {
      return fail("'" + flag + "' does not take a value");
    }
  }

  // Scenario constraints live in ScenarioConfig::validate(); each field maps
  // to its flag ("handover.backoff" -> "--handover-backoff"). The radius
  // knobs and fault fields have their own flag names; a fault field without
  // a flag keeps its field name.
  const auto errors = opt.scenario.validate();
  if (!errors.empty()) {
    static const std::map<std::string, std::string> kFlags = {
        {"target_degree", "--degree"},
        {"connectivity_margin", "--margin"},
        {"fault.loss", "--loss"},
        {"fault.burst_loss", "--burst-loss"},
        {"fault.burst_on", "--burst-on"},
        {"fault.arq_timeout", "--arq-timeout"},
        {"fault.audit_period", "--audit"}};
    const std::string& field = errors.front().field;
    std::string flag;
    if (const auto it = kFlags.find(field); it != kFlags.end()) {
      flag = it->second;
    } else if (field.rfind("fault.", 0) == 0) {
      flag = field;
    } else {
      flag = "--" + field;
      std::replace(flag.begin(), flag.end(), '.', '-');
    }
    return fail(flag + " " + errors.front().rule);
  }
  if (opt.replications < 1) return fail("--reps must be >= 1");
  result.ok = true;
  return result;
}

}  // namespace manet::exp
