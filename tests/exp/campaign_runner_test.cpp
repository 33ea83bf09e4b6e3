#include "exp/campaign_runner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/thread_pool.hpp"

namespace manet::exp {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test campaign directory under the gtest temp root.
std::string fresh_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "campaign_runner_" + tag;
  fs::remove_all(dir);
  return dir;
}

CampaignSpec tiny_spec() {
  CampaignSpec spec;
  spec.name = "tiny";
  spec.args = {"--seed",   "7",  "--warmup", "2",         "--duration", "6",
               "--radius", "degree", "--degree", "12",
               "--no-events", "--no-states", "--no-hops"};
  spec.sweep = {40, 56};
  spec.replications = 3;
  spec.block = 2;

  // Resolve scenario/options the same way from_json does: round-trip the
  // args through the spec parser so tests exercise the production path.
  std::ostringstream json;
  analysis::JsonWriter w(json);
  spec.write_json(w);
  const auto parsed = analysis::parse_json(json.str());
  EXPECT_TRUE(parsed.ok) << parsed.error;
  CampaignSpec out;
  std::string error;
  EXPECT_TRUE(CampaignSpec::from_json(parsed.value, out, error)) << error;
  return out;
}

TEST(CampaignSpec, LedgerDecomposition) {
  const auto spec = tiny_spec();
  EXPECT_EQ(spec.blocks_per_point(), 2u);  // ceil(3/2)
  EXPECT_EQ(spec.unit_count(), 4u);

  CampaignRunner runner(spec, "");
  const auto& ledger = runner.plan();
  ASSERT_EQ(ledger.size(), 4u);
  EXPECT_EQ(ledger[0].n, 40u);
  EXPECT_EQ(ledger[0].rep_begin, 0u);
  EXPECT_EQ(ledger[0].rep_end, 2u);
  EXPECT_EQ(ledger[1].n, 40u);
  EXPECT_EQ(ledger[1].rep_begin, 2u);
  EXPECT_EQ(ledger[1].rep_end, 3u);  // short tail block
  EXPECT_EQ(ledger[2].point, 1u);
  EXPECT_EQ(ledger[2].n, 56u);
  for (Size i = 0; i < ledger.size(); ++i) EXPECT_EQ(ledger[i].index, i);
  EXPECT_EQ(ledger[0].id(), "u0000-n40-b00");
}

TEST(CampaignSpec, FromJsonValidates) {
  auto parse_spec = [](const std::string& text, CampaignSpec& out, std::string& error) {
    const auto parsed = analysis::parse_json(text);
    EXPECT_TRUE(parsed.ok) << parsed.error;
    return CampaignSpec::from_json(parsed.value, out, error);
  };

  CampaignSpec spec;
  std::string error;
  EXPECT_FALSE(parse_spec(R"({"schema":"nope","name":"x","sweep":[64]})", spec, error));
  EXPECT_NE(error.find("schema"), std::string::npos);

  EXPECT_FALSE(parse_spec(R"({"schema":"manet-campaign-spec/1","sweep":[64]})", spec,
                          error));  // missing name
  EXPECT_FALSE(parse_spec(
      R"({"schema":"manet-campaign-spec/1","name":"a/b","sweep":[64]})", spec, error));
  EXPECT_FALSE(parse_spec(R"({"schema":"manet-campaign-spec/1","name":"x"})", spec,
                          error));  // missing sweep
  EXPECT_FALSE(parse_spec(
      R"({"schema":"manet-campaign-spec/1","name":"x","sweep":[1]})", spec, error));
  EXPECT_FALSE(parse_spec(
      R"({"schema":"manet-campaign-spec/1","name":"x","sweep":[64],"replications":0})",
      spec, error));
  // Counts too large for a Size are refused before any cast.
  EXPECT_FALSE(parse_spec(
      R"({"schema":"manet-campaign-spec/1","name":"x","sweep":[64],"replications":1e30})",
      spec, error));
  EXPECT_FALSE(parse_spec(
      R"({"schema":"manet-campaign-spec/1","name":"x","sweep":[1e30]})", spec, error));
  EXPECT_FALSE(parse_spec(
      R"({"schema":"manet-campaign-spec/1","name":"x","sweep":[64.5]})", spec, error));

  // Campaign-level flags are rejected inside args.
  EXPECT_FALSE(parse_spec(
      R"({"schema":"manet-campaign-spec/1","name":"x","sweep":[64],"args":["--reps","3"]})",
      spec, error));
  EXPECT_NE(error.find("--reps"), std::string::npos);

  // Unknown flags fail exactly as on the command line.
  EXPECT_FALSE(parse_spec(
      R"({"schema":"manet-campaign-spec/1","name":"x","sweep":[64],"args":["--bogus"]})",
      spec, error));

  EXPECT_TRUE(parse_spec(
      R"({"schema":"manet-campaign-spec/1","name":"ok","sweep":[64,128],
          "replications":2,"block":1,"args":["--mu","2.0","--registration"]})",
      spec, error))
      << error;
  EXPECT_DOUBLE_EQ(spec.scenario.mu, 2.0);
  EXPECT_TRUE(spec.options.track_registration);
  EXPECT_EQ(spec.unit_count(), 4u);
}

TEST(CampaignSpec, FromJsonValidatesEverySweepPoint) {
  // --n is banned in spec args, so the base config always has n = 256; the
  // margin rule depends on n and must be checked at every sweep point, or
  // the campaign aborts mid-run at the bad one.
  const auto parsed = analysis::parse_json(
      R"({"schema":"manet-campaign-spec/1","name":"x","sweep":[2,64],
          "args":["--margin","-1"]})");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  CampaignSpec spec;
  std::string error;
  EXPECT_FALSE(CampaignSpec::from_json(parsed.value, spec, error));
  EXPECT_NE(error.find("--sweep point n=2: --margin must be > -ln(n)"), std::string::npos)
      << error;

  // The node-count rule itself is validate()'s too.
  const auto one = analysis::parse_json(
      R"({"schema":"manet-campaign-spec/1","name":"x","sweep":[64,1]})");
  ASSERT_TRUE(one.ok) << one.error;
  EXPECT_FALSE(CampaignSpec::from_json(one.value, spec, error));
  EXPECT_NE(error.find("--sweep point n=1: n must be >= 2"), std::string::npos) << error;
}

TEST(CampaignSpec, FingerprintTracksContent) {
  const auto base = tiny_spec();
  auto changed = base;
  EXPECT_EQ(base.fingerprint(), changed.fingerprint());
  changed.replications = 4;
  EXPECT_NE(base.fingerprint(), changed.fingerprint());
  changed = base;
  changed.sweep.push_back(72);
  EXPECT_NE(base.fingerprint(), changed.fingerprint());
  changed = base;
  changed.args.push_back("--registration");
  EXPECT_NE(base.fingerprint(), changed.fingerprint());
  changed = base;
  changed.block = 1;
  EXPECT_NE(base.fingerprint(), changed.fingerprint());
}

TEST(CampaignSpec, SpecFileRoundTrip) {
  const auto spec = tiny_spec();
  const std::string dir = fresh_dir("spec_roundtrip");
  fs::create_directories(dir);
  const std::string path = dir + "/spec.json";
  {
    std::ofstream file(path);
    analysis::JsonWriter w(file, /*pretty=*/true);
    spec.write_json(w);
  }
  CampaignSpec loaded;
  std::string error;
  ASSERT_TRUE(CampaignSpec::load(path, loaded, error)) << error;
  EXPECT_EQ(loaded.name, spec.name);
  EXPECT_EQ(loaded.args, spec.args);
  EXPECT_EQ(loaded.sweep, spec.sweep);
  EXPECT_EQ(loaded.fingerprint(), spec.fingerprint());
}

TEST(CampaignCheckpoint, RoundTripIsExact) {
  const auto spec = tiny_spec();
  CampaignRunner runner(spec, fresh_dir("ckpt_roundtrip"));
  const auto& unit = runner.plan()[1];  // the short tail block

  const UnitRecord record = run_unit(spec, unit);
  ASSERT_EQ(record.replications.size(), 1u);

  std::string error;
  ASSERT_TRUE(write_unit_checkpoint(runner.dir(), spec, record, error)) << error;

  UnitRecord loaded;
  ASSERT_TRUE(read_unit_checkpoint(unit_checkpoint_path(runner.dir(), unit), spec,
                                   loaded, error))
      << error;
  ASSERT_EQ(loaded.replications.size(), record.replications.size());
  for (Size r = 0; r < record.replications.size(); ++r) {
    const auto& expect = record.replications[r].values;
    const auto& got = loaded.replications[r].values;
    ASSERT_EQ(got.size(), expect.size());
    for (Size i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(got[i].first, expect[i].first);
      if (std::isnan(expect[i].second)) {
        EXPECT_TRUE(std::isnan(got[i].second));
      } else {
        // %.17g round-trips IEEE doubles exactly: bit-identical values.
        EXPECT_EQ(got[i].second, expect[i].second) << got[i].first;
      }
    }
  }
}

TEST(CampaignCheckpoint, ForeignFingerprintRejected) {
  const auto spec = tiny_spec();
  const std::string dir = fresh_dir("ckpt_foreign");
  CampaignRunner runner(spec, dir);
  const auto& unit = runner.plan()[0];
  const UnitRecord record = run_unit(spec, unit);
  std::string error;
  ASSERT_TRUE(write_unit_checkpoint(dir, spec, record, error)) << error;

  auto other = spec;
  other.replications = 5;
  UnitRecord loaded;
  EXPECT_FALSE(
      read_unit_checkpoint(unit_checkpoint_path(dir, unit), other, loaded, error));
  EXPECT_NE(error.find("fingerprint"), std::string::npos);
}

TEST(CampaignCheckpoint, InvalidUnitCoordinatesAreRefused) {
  // Each coordinate is checked before its cast to Size: a value out of
  // range, negative, fractional or missing refuses the file and names the
  // field, so completed_units() counts the unit as incomplete and merge()
  // fails on it.
  const auto spec = tiny_spec();
  const std::string dir = fresh_dir("ckpt_coords");
  CampaignRunner runner(spec, dir);
  ASSERT_TRUE(runner.run(CampaignRunner::RunConfig{}).ok);
  ASSERT_TRUE(runner.merge().ok);

  const auto& unit = runner.plan()[0];
  const std::string path = unit_checkpoint_path(dir, unit);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  in.close();
  const std::string original = buffer.str();

  struct Case {
    std::string from, to, field;
  };
  const std::string rep_end = "\"rep_end\": " + std::to_string(unit.rep_end);
  const Case cases[] = {
      {rep_end, "\"rep_end\": 1e30", "rep_end"},
      {rep_end, "\"rep_end\": -1", "rep_end"},
      {rep_end, "\"rep_end\": 2.5", "rep_end"},
      {"\"unit\": " + std::to_string(unit.index) + ",", "", "unit"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.from + " -> " + c.to);
    std::string text = original;
    const auto pos = text.find(c.from);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, c.from.size(), c.to);
    std::ofstream(path) << text;

    UnitRecord loaded;
    std::string error;
    EXPECT_FALSE(read_unit_checkpoint(path, spec, loaded, error));
    EXPECT_NE(error.find("'" + c.field + "'"), std::string::npos) << error;
    EXPECT_FALSE(runner.completed_units()[unit.index]);
    const auto merged = runner.merge();
    EXPECT_FALSE(merged.ok);
    EXPECT_NE(merged.error.find("'" + c.field + "'"), std::string::npos) << merged.error;
  }

  std::ofstream(path) << original;
  EXPECT_TRUE(runner.completed_units()[unit.index]);
  EXPECT_TRUE(runner.merge().ok);
}

TEST(CampaignManifest, RoundTripAndTamperDetection) {
  const auto spec = tiny_spec();
  const std::string dir = fresh_dir("manifest");
  std::string error;
  ASSERT_TRUE(write_campaign_manifest(dir, spec, error)) << error;

  CampaignSpec loaded;
  ASSERT_TRUE(read_campaign_manifest(dir, loaded, error)) << error;
  EXPECT_EQ(loaded.fingerprint(), spec.fingerprint());
  EXPECT_EQ(loaded.sweep, spec.sweep);
  EXPECT_EQ(loaded.replications, spec.replications);

  // A manifest whose fingerprint no longer matches its embedded spec fails.
  const std::string path = dir + "/campaign.json";
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  in.close();
  std::string text = buffer.str();
  const auto pos = text.find(spec.fingerprint());
  ASSERT_NE(pos, std::string::npos);
  text[pos] = text[pos] == '0' ? '1' : '0';  // corrupt one fingerprint nibble
  std::ofstream(path) << text;
  EXPECT_FALSE(read_campaign_manifest(dir, loaded, error));
  EXPECT_NE(error.find("fingerprint"), std::string::npos);
}

TEST(CampaignRunner, MergeReportsGapsAndStrays) {
  const auto spec = tiny_spec();
  const std::string dir = fresh_dir("gaps");
  CampaignRunner runner(spec, dir);

  CampaignRunner::RunConfig config;
  config.max_units = 3;  // leave the last unit unexecuted
  const auto report = runner.run(config);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.executed, 3u);

  auto merged = runner.merge();
  EXPECT_FALSE(merged.ok);
  ASSERT_EQ(merged.missing.size(), 1u);
  EXPECT_EQ(merged.missing[0], 3u);

  // Finish, then plant a stray unit file: merge must refuse.
  CampaignRunner::RunConfig resume;
  resume.resume = true;
  ASSERT_TRUE(runner.run(resume).ok);
  EXPECT_TRUE(runner.merge().ok);
  std::ofstream(dir + "/units/u9999-n40-b00.json") << "{}";
  merged = runner.merge();
  EXPECT_FALSE(merged.ok);
  ASSERT_EQ(merged.stray.size(), 1u);
  EXPECT_NE(merged.error.find("stray"), std::string::npos);
}

TEST(CampaignRunner, RunRefusesMismatchedSpec) {
  const auto spec = tiny_spec();
  const std::string dir = fresh_dir("mismatch");
  CampaignRunner runner(spec, dir);
  CampaignRunner::RunConfig config;
  config.max_units = 1;
  ASSERT_TRUE(runner.run(config).ok);

  auto other = spec;
  other.replications = 5;
  CampaignRunner other_runner(other, dir);
  const auto report = other_runner.run(config);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("fingerprint"), std::string::npos);
}

TEST(CampaignRunner, ProgressHookSeesEveryOwnedUnit) {
  const auto spec = tiny_spec();
  CampaignRunner runner(spec, fresh_dir("progress"));
  std::vector<Size> seen;
  Size last_total = 0;
  CampaignRunner::RunConfig config;
  config.shard_index = 1;
  config.shard_count = 2;
  config.progress = [&](const WorkUnit& unit, Size done, Size total) {
    seen.push_back(unit.index);
    EXPECT_EQ(done, seen.size());
    last_total = total;
  };
  ASSERT_TRUE(runner.run(config).ok);
  EXPECT_EQ(seen, (std::vector<Size>{1, 3}));  // index % 2 == 1
  EXPECT_EQ(last_total, 2u);
}

TEST(CampaignArtifact, WritesBenchSchemaWithAllSeries) {
  const auto spec = tiny_spec();
  const std::string dir = fresh_dir("artifact");
  CampaignRunner runner(spec, dir);
  ASSERT_TRUE(runner.run().ok);
  const auto merged = runner.merge();
  ASSERT_TRUE(merged.ok) << merged.error;

  const std::string path = dir + "/CAMPAIGN_tiny.json";
  std::string error;
  ASSERT_TRUE(write_campaign_artifact(path, spec, merged.campaign, 1.25, 1, error))
      << error;

  std::ifstream file(path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  const auto parsed = analysis::parse_json(buffer.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.string_or("schema", ""), "manet-bench-artifact/1");

  const auto* m = parsed.value.find("manifest");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->string_or("name", ""), "tiny");
  EXPECT_EQ(m->number_or("replications", -1.0), static_cast<double>(spec.replications));

  const auto* series = parsed.value.find("series");
  ASSERT_NE(series, nullptr);
  const auto* phi = series->find("phi_rate");
  ASSERT_NE(phi, nullptr);
  ASSERT_TRUE(phi->is_array());
  EXPECT_EQ(phi->items.size(), spec.sweep.size());
  // Series points carry the exact aggregated mean.
  EXPECT_EQ(phi->items[0].number_or("mean", -1.0),
            merged.campaign.points[0].metrics.mean("phi_rate"));

  const auto* scalars = parsed.value.find("scalars");
  ASSERT_NE(scalars, nullptr);
  EXPECT_EQ(scalars->number_or("units", 0.0), 4.0);
}

TEST(CampaignSeries, DroppedPointsAreCountedNotSilent) {
  Campaign campaign;
  campaign.points.resize(3);
  for (Size i = 0; i < 3; ++i) {
    campaign.points[i].n = 100 * (i + 1);
    RunMetrics m;
    m.set("always", static_cast<double>(i));
    if (i != 1) m.set("patchy", 1.0);  // absent at the middle point
    campaign.points[i].metrics.add(m);
  }

  std::vector<double> ns, ys, errs;
  EXPECT_EQ(campaign.series("always", ns, ys), 0u);
  EXPECT_EQ(ns.size(), 3u);

  EXPECT_EQ(campaign.series("patchy", ns, ys), 1u);
  EXPECT_EQ(ns.size(), 2u);
  EXPECT_DOUBLE_EQ(ns[0], 100.0);
  EXPECT_DOUBLE_EQ(ns[1], 300.0);

  EXPECT_EQ(campaign.series_with_error("patchy", ns, ys, errs), 1u);
  EXPECT_EQ(errs.size(), 2u);

  EXPECT_EQ(campaign.series("absent_everywhere", ns, ys), 3u);
  EXPECT_TRUE(ns.empty());
}

}  // namespace
}  // namespace manet::exp
