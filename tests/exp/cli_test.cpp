#include "exp/cli.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace manet::exp {
namespace {

CliParseResult parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"manet_sim"};
  argv.insert(argv.end(), args.begin(), args.end());
  return parse_cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, DefaultsParseCleanly) {
  const auto result = parse({});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.options.scenario.n, 256u);
  EXPECT_EQ(result.options.replications, 1u);
  EXPECT_TRUE(result.options.sweep.empty());
}

TEST(Cli, ScenarioNumbers) {
  const auto result = parse({"--n", "512", "--mu", "2.5", "--density", "0.5", "--seed",
                             "99", "--tick", "0.5", "--warmup", "5", "--duration", "30"});
  ASSERT_TRUE(result.ok) << result.error;
  const auto& s = result.options.scenario;
  EXPECT_EQ(s.n, 512u);
  EXPECT_DOUBLE_EQ(s.mu, 2.5);
  EXPECT_DOUBLE_EQ(s.density, 0.5);
  EXPECT_EQ(s.seed, 99u);
  EXPECT_DOUBLE_EQ(s.tick, 0.5);
  EXPECT_DOUBLE_EQ(s.warmup, 5.0);
  EXPECT_DOUBLE_EQ(s.duration, 30.0);
}

TEST(Cli, EnumFlags) {
  const auto result = parse({"--mobility", "gm", "--radius", "degree", "--algo", "maxmin2",
                             "--strategy", "weighted", "--links", "contraction"});
  ASSERT_TRUE(result.ok) << result.error;
  const auto& s = result.options.scenario;
  EXPECT_EQ(s.mobility, MobilityKind::kGaussMarkov);
  EXPECT_EQ(s.radius_policy, RadiusPolicy::kMeanDegree);
  EXPECT_EQ(s.cluster_algo, ClusterAlgo::kMaxMin2);
  EXPECT_EQ(s.handoff.select.strategy, lm::SelectStrategy::kWeightedDescent);
  EXPECT_FALSE(s.geometric_links);
}

TEST(Cli, MeasurementToggles) {
  const auto result =
      parse({"--gls", "--registration", "--routing", "--no-events", "--no-states"});
  ASSERT_TRUE(result.ok) << result.error;
  const auto& run = result.options.run;
  EXPECT_TRUE(run.run_gls);
  EXPECT_TRUE(run.track_registration);
  EXPECT_TRUE(run.measure_routing);
  EXPECT_FALSE(run.track_events);
  EXPECT_FALSE(run.track_states);
  EXPECT_TRUE(run.measure_hops);  // untouched
}

TEST(Cli, SweepList) {
  const auto result = parse({"--sweep", "128,256,512", "--reps", "4", "--csv", "out.csv"});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.options.sweep, (std::vector<Size>{128, 256, 512}));
  EXPECT_EQ(result.options.replications, 4u);
  EXPECT_EQ(result.options.csv_path, "out.csv");
}

TEST(Cli, RepeatedSweepKeepsTheLastList) {
  // Like every other value flag, the last --sweep wins; it does not append.
  const auto result = parse({"--sweep", "64", "--sweep", "128"});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.options.sweep, (std::vector<Size>{128}));
  EXPECT_EQ(parse({"--sweep", "64,256", "--sweep", "128,512"}).options.sweep,
            (std::vector<Size>{128, 512}));
}

TEST(Cli, JsonPathAndRpgm) {
  const auto result = parse({"--json", "m.json", "--mobility", "rpgm"});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.options.json_path, "m.json");
  EXPECT_EQ(result.options.scenario.mobility, MobilityKind::kGroup);
  EXPECT_FALSE(parse({"--json"}).ok);
}

TEST(Cli, HelpShortCircuits) {
  const auto result = parse({"--help"});
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.options.show_help);
  EXPECT_FALSE(cli_usage("manet_sim").empty());
}

TEST(Cli, UnknownFlagFails) {
  const auto result = parse({"--bogus"});
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("bogus"), std::string::npos);
}

TEST(Cli, MissingValueFails) {
  EXPECT_FALSE(parse({"--n"}).ok);
  EXPECT_FALSE(parse({"--mobility"}).ok);
  EXPECT_FALSE(parse({"--sweep"}).ok);
}

TEST(Cli, MalformedNumbersFail) {
  EXPECT_FALSE(parse({"--n", "abc"}).ok);
  EXPECT_FALSE(parse({"--mu", "fast"}).ok);
  EXPECT_FALSE(parse({"--sweep", "128,abc"}).ok);
}

TEST(Cli, InvalidEnumValuesFail) {
  EXPECT_FALSE(parse({"--mobility", "teleport"}).ok);
  EXPECT_FALSE(parse({"--radius", "infinite"}).ok);
  EXPECT_FALSE(parse({"--algo", "kmeans"}).ok);
  EXPECT_FALSE(parse({"--strategy", "random"}).ok);
}

TEST(Cli, SemanticValidation) {
  EXPECT_FALSE(parse({"--n", "1"}).ok);
  EXPECT_FALSE(parse({"--reps", "0"}).ok);
  EXPECT_FALSE(parse({"--tick", "0"}).ok);
  EXPECT_FALSE(parse({"--tick", "-0.5"}).ok);
  EXPECT_FALSE(parse({"--warmup", "-1"}).ok);
  EXPECT_FALSE(parse({"--duration", "-2"}).ok);
  EXPECT_FALSE(parse({"--density", "0"}).ok);
}

TEST(Cli, ScenarioValidationErrorsNameTheFlag) {
  // ScenarioConfig::validate() owns the rules; the CLI maps each field to
  // its flag.
  EXPECT_EQ(parse({"--n", "1"}).error, "--n must be >= 2");
  EXPECT_EQ(parse({"--tick", "0"}).error, "--tick must be > 0");
  EXPECT_EQ(parse({"--warmup", "-1"}).error, "--warmup must be >= 0");
  EXPECT_EQ(parse({"--duration", "-2"}).error, "--duration must be >= 0");
  EXPECT_EQ(parse({"--density", "0"}).error, "--density must be > 0");
  EXPECT_EQ(parse({"--handover-backoff", "0.5"}).error, "--handover-backoff must be >= 1");
  EXPECT_EQ(parse({"--mu", "0"}).error, "--mu must be > 0");
  EXPECT_TRUE(parse({"--mobility", "static", "--mu", "0"}).ok) << "static ignores the speed";
  EXPECT_EQ(parse({"--radius", "degree", "--degree", "0"}).error, "--degree must be > 0");
  EXPECT_EQ(parse({"--margin", "-10"}).error, "--margin must be > -ln(n)");
}

TEST(Cli, FaultProbabilitiesAboveOneNameTheFlag) {
  // Any finite number parses; ScenarioConfig::validate() refuses one outside
  // [0, 1] under the flag's own name.
  EXPECT_EQ(parse({"--loss", "1.5"}).error, "--loss must be in [0, 1]");
  EXPECT_EQ(parse({"--loss", "-0.1"}).error, "--loss must be in [0, 1]");
  EXPECT_EQ(parse({"--burst-loss", "1.5"}).error, "--burst-loss must be in [0, 1]");
  EXPECT_EQ(parse({"--burst-on", "2"}).error, "--burst-on must be in [0, 1]");
  EXPECT_TRUE(parse({"--loss", "1"}).ok);
}

TEST(Cli, RangeRulesAreValidateRulesUnderTheFlag) {
  // Parsing checks syntax only; each range error is a validate() rule,
  // printed as "<flag> <rule>".
  const std::pair<std::vector<const char*>, const char*> cases[] = {
      {{"--burst-len", "-1"}, "--burst-len must be >= 0"},
      {{"--crash-rate", "-1"}, "--crash-rate must be >= 0"},
      {{"--downtime", "-1"}, "--downtime must be >= 0"},
      {{"--arq-timeout", "-1"}, "--arq-timeout must be >= 0"},
      {{"--audit", "-1"}, "--audit must be >= 0"},
      {{"--outage-radius", "-1"}, "--outage-radius must be >= 0"},
      {{"--outage-start", "-1"}, "--outage-start must be >= 0"},
      {{"--outage-duration", "-1"}, "--outage-duration must be >= 0"},
      {{"--burst-loss", "-1"}, "--burst-loss must be in [0, 1]"},
      {{"--burst-on", "-1"}, "--burst-on must be in [0, 1]"},
      {{"--session-rate", "0"}, "--session-rate must be > 0"},
      {{"--session-duration", "0"}, "--session-duration must be > 0"},
      {{"--session-pps", "-4"}, "--session-pps must be > 0"},
      {{"--handover-timeout", "0"}, "--handover-timeout must be > 0"},
      {{"--handover-backoff", "0"}, "--handover-backoff must be >= 1"},
      {{"--beta", "0"}, "--beta must be > 0"},
      {{"--beta", "-1"}, "--beta must be > 0"},
      {{"--threads", "1025"}, "--threads must be <= 1024"},
      {{"--trace-capacity", "0"}, "--trace-capacity must be >= 1"},
      {{"--trace-sample", "0"}, "--trace-sample must be >= 1"},
  };
  for (const auto& [args, error] : cases) {
    std::vector<const char*> argv{"manet_sim"};
    argv.insert(argv.end(), args.begin(), args.end());
    const auto result = parse_cli(static_cast<int>(argv.size()), argv.data());
    EXPECT_FALSE(result.ok) << error;
    EXPECT_EQ(result.error, error);
  }
  // The edge values parse.
  EXPECT_TRUE(parse({"--crash-rate", "0", "--downtime", "0", "--outage-radius", "0"}).ok);
  EXPECT_TRUE(parse({"--handover-backoff", "1", "--trace-sample", "1"}).ok);
}

TEST(Cli, SyntaxErrorsNameTheFlag) {
  EXPECT_EQ(parse({"--n", "abc"}).error, "--n needs an unsigned integer");
  EXPECT_EQ(parse({"--mu", "fast"}).error, "--mu needs a number");
  EXPECT_EQ(parse({"--loss", "nan"}).error, "--loss needs a number");
  EXPECT_EQ(parse({"--mobility", "teleport"}).error,
            "--mobility needs one of rwp|rd|gm|rpgm|static");
  EXPECT_EQ(parse({"--links"}).error, "--links needs one of geometric|contraction");
  EXPECT_EQ(parse({"--csv"}).error, "--csv needs a path");
  EXPECT_EQ(parse({"--sweep", "64,x"}).error,
            "--sweep needs a comma-separated list of node counts");
}

TEST(Cli, SweepPointsValidateWithTheirOwnN) {
  // The base n (256) is valid here; each sweep point is checked with its
  // own n, so a run never aborts at a bad point.
  EXPECT_EQ(parse({"--sweep", "1,64"}).error, "--sweep point n=1: n must be >= 2");
  EXPECT_EQ(parse({"--sweep", "0"}).error, "--sweep point n=0: n must be >= 2");
  EXPECT_EQ(parse({"--sweep", "2,64", "--margin", "-1"}).error,
            "--sweep point n=2: --margin must be > -ln(n)");
  EXPECT_TRUE(parse({"--sweep", "3,64", "--margin", "-1"}).ok);
  EXPECT_TRUE(parse({"--sweep", "2,64", "--radius", "degree", "--margin", "-1"}).ok)
      << "the mean-degree policy ignores the margin";
}

TEST(Cli, InlineEqualsValuesParse) {
  const auto result = parse({"--n=512", "--mu=2.5", "--session-pps=8", "--threads=4"});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.options.scenario.n, 512u);
  EXPECT_DOUBLE_EQ(result.options.scenario.mu, 2.5);
  EXPECT_DOUBLE_EQ(result.options.scenario.session.packets_per_sec, 8.0);
  EXPECT_EQ(result.options.run.threads, 4u);
}

TEST(Cli, MalformedInlineValuesFailWithFlagName) {
  // The one-line diagnostic must name the offending flag, not crash or
  // silently swallow the junk value.
  const auto bad = parse({"--session-pps=abc"});
  ASSERT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("--session-pps"), std::string::npos) << bad.error;
  EXPECT_FALSE(parse({"--n=12abc"}).ok);
  EXPECT_FALSE(parse({"--n="}).ok);
  EXPECT_FALSE(parse({"--mu=1.2.3"}).ok);
}

TEST(Cli, NegativeAndNonFiniteNumbersFail) {
  // strtoull would silently wrap "-3" to a huge unsigned; the parser must
  // reject the sign outright. Same for non-finite doubles.
  EXPECT_FALSE(parse({"--n", "-3"}).ok);
  EXPECT_FALSE(parse({"--reps", "-1"}).ok);
  EXPECT_FALSE(parse({"--threads", "-2"}).ok);
  EXPECT_FALSE(parse({"--handover-timeout", "-0.2"}).ok);
  EXPECT_FALSE(parse({"--arq-timeout", "-1"}).ok);
  EXPECT_FALSE(parse({"--session-pps", "-4"}).ok);
  EXPECT_FALSE(parse({"--mu", "nan"}).ok);
  EXPECT_FALSE(parse({"--mu", "inf"}).ok);
  EXPECT_FALSE(parse({"--loss", "nan"}).ok);
}

TEST(Cli, BooleanFlagsRejectInlineValues) {
  const auto result = parse({"--trace=1"});
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.error.find("--trace"), std::string::npos) << result.error;
  EXPECT_FALSE(parse({"--sessions=true"}).ok);
  EXPECT_FALSE(parse({"--gls=on"}).ok);
}

TEST(Cli, ThreadsFlagParses) {
  EXPECT_EQ(parse({}).options.run.threads, 1u);  // default: sequential
  const auto hw = parse({"--threads", "0"});     // 0 = hardware concurrency
  ASSERT_TRUE(hw.ok) << hw.error;
  EXPECT_EQ(hw.options.run.threads, 0u);
  const auto eight = parse({"--threads", "8"});
  ASSERT_TRUE(eight.ok) << eight.error;
  EXPECT_EQ(eight.options.run.threads, 8u);
  EXPECT_FALSE(parse({"--threads", "abc"}).ok);
  EXPECT_FALSE(parse({"--threads"}).ok);
  // No tick has more than sim::kMaxShardCount shards to give a worker.
  const auto ceiling = parse({"--threads", "1024"});
  ASSERT_TRUE(ceiling.ok) << ceiling.error;
  EXPECT_EQ(ceiling.options.run.threads, 1024u);
  const auto above = parse({"--threads", "1025"});
  EXPECT_FALSE(above.ok);
  EXPECT_NE(above.error.find("--threads must be <= 1024"), std::string::npos) << above.error;
}

TEST(Cli, ShardsFlagParses) {
  EXPECT_EQ(parse({}).options.run.shards, 0u);  // default: auto topology
  const auto result = parse({"--shards", "64"});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.options.run.shards, 64u);
  const auto inline_form = parse({"--shards=4", "--threads=2"});
  ASSERT_TRUE(inline_form.ok) << inline_form.error;
  EXPECT_EQ(inline_form.options.run.shards, 4u);
  EXPECT_EQ(inline_form.options.run.threads, 2u);
  EXPECT_FALSE(parse({"--shards", "abc"}).ok);
  EXPECT_FALSE(parse({"--shards", "-1"}).ok);
  EXPECT_FALSE(parse({"--shards"}).ok);
}

TEST(Cli, QueryLoadFlagParses) {
  EXPECT_EQ(parse({}).options.run.query_load, 0u);  // default: query plane off
  const auto result = parse({"--query-load", "5000"});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.options.run.query_load, 5000u);
  const auto inline_eq = parse({"--query-load=250"});
  ASSERT_TRUE(inline_eq.ok) << inline_eq.error;
  EXPECT_EQ(inline_eq.options.run.query_load, 250u);
  EXPECT_FALSE(parse({"--query-load", "abc"}).ok);
  EXPECT_FALSE(parse({"--query-load", "-5"}).ok);
  EXPECT_FALSE(parse({"--query-load"}).ok);
}

CampaignCliParseResult parse_campaign(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"campaign"};
  argv.insert(argv.end(), args.begin(), args.end());
  return parse_campaign_cli(static_cast<int>(argv.size()), argv.data());
}

TEST(CampaignCli, ExecuteModeParses) {
  const auto result = parse_campaign(
      {"--spec", "spec.json", "--out", "runs/c1", "--threads", "4", "--max-units", "3"});
  ASSERT_TRUE(result.ok) << result.error;
  const auto& o = result.options;
  EXPECT_EQ(o.spec_path, "spec.json");
  EXPECT_EQ(o.dir, "runs/c1");
  EXPECT_FALSE(o.resume);
  EXPECT_FALSE(o.plan);
  EXPECT_FALSE(o.merge);
  EXPECT_EQ(o.threads, 4u);
  EXPECT_EQ(o.max_units, 3u);
  EXPECT_EQ(o.shard_count, 1u);

  // No tick has more than sim::kMaxShardCount shards to give a worker;
  // --max-units shares the flag branch but not the ceiling.
  const auto ceiling = parse_campaign({"--spec", "s.json", "--out", "d", "--threads", "1024"});
  ASSERT_TRUE(ceiling.ok) << ceiling.error;
  EXPECT_EQ(ceiling.options.threads, 1024u);
  const auto above = parse_campaign({"--spec", "s.json", "--out", "d", "--threads", "1025"});
  EXPECT_FALSE(above.ok);
  EXPECT_NE(above.error.find("--threads must be <= 1024"), std::string::npos) << above.error;
  EXPECT_TRUE(parse_campaign({"--spec", "s.json", "--out", "d", "--max-units", "5000"}).ok);
}

TEST(CampaignCli, ShardSyntax) {
  const auto result = parse_campaign({"--spec", "s.json", "--out", "d", "--shard", "2/4"});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.options.shard_index, 2u);
  EXPECT_EQ(result.options.shard_count, 4u);
  EXPECT_FALSE(parse_campaign({"--spec", "s.json", "--out", "d", "--shard", "4/4"}).ok);
  EXPECT_FALSE(parse_campaign({"--spec", "s.json", "--out", "d", "--shard", "0"}).ok);
  EXPECT_FALSE(parse_campaign({"--spec", "s.json", "--out", "d", "--shard", "a/b"}).ok);
  EXPECT_FALSE(parse_campaign({"--spec", "s.json", "--out", "d", "--shard", "0/0"}).ok);
}

TEST(CampaignCli, ResumeAndMergeModes) {
  auto result = parse_campaign({"--resume", "runs/c1"});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.options.resume);
  EXPECT_EQ(result.options.dir, "runs/c1");

  result = parse_campaign({"--resume", "runs/c1", "--merge"});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.options.merge);

  // Plan needs a spec or a dir, not necessarily both.
  EXPECT_TRUE(parse_campaign({"--spec", "s.json", "--plan"}).ok);
  EXPECT_TRUE(parse_campaign({"--resume", "runs/c1", "--plan"}).ok);
}

TEST(CampaignCli, ModeConflictsFail) {
  // --out and --resume are mutually exclusive ways to name the directory.
  EXPECT_FALSE(parse_campaign({"--spec", "s.json", "--out", "d", "--resume", "d"}).ok);
  // --plan and --merge are exclusive modes.
  EXPECT_FALSE(parse_campaign({"--spec", "s.json", "--out", "d", "--plan", "--merge"}).ok);
  // --merge is single-process: sharding it makes no sense.
  EXPECT_FALSE(
      parse_campaign({"--spec", "s.json", "--out", "d", "--merge", "--shard", "0/2"}).ok);
  // Execute mode needs a directory.
  EXPECT_FALSE(parse_campaign({"--spec", "s.json"}).ok);
  // Something must identify the campaign.
  EXPECT_FALSE(parse_campaign({"--plan"}).ok);
  EXPECT_FALSE(parse_campaign({}).ok);
}

TEST(CampaignCli, HelpAndUnknownFlags) {
  const auto help = parse_campaign({"--help"});
  EXPECT_TRUE(help.ok);
  EXPECT_TRUE(help.options.show_help);
  EXPECT_FALSE(campaign_cli_usage("manet_sim").empty());
  const auto bad = parse_campaign({"--bogus"});
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("bogus"), std::string::npos);
}

}  // namespace
}  // namespace manet::exp
