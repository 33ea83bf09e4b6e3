#include "exp/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "net/radio.hpp"

namespace manet::exp {
namespace {

TEST(ScenarioConfig, RadiusPoliciesResolve) {
  ScenarioConfig cfg;
  cfg.n = 500;
  cfg.density = 1.0;
  cfg.radius_policy = RadiusPolicy::kConnectivity;
  EXPECT_NEAR(cfg.tx_radius(),
              net::connectivity_radius(500, 1.0, cfg.connectivity_margin), 1e-12);
  cfg.radius_policy = RadiusPolicy::kMeanDegree;
  cfg.target_degree = 12.0;
  EXPECT_NEAR(cfg.tx_radius(), net::radius_for_mean_degree(12.0, 1.0), 1e-12);
}

TEST(ScenarioConfig, DescribeMentionsKeyParameters) {
  ScenarioConfig cfg;
  cfg.n = 123;
  const auto text = cfg.describe();
  EXPECT_NE(text.find("n=123"), std::string::npos);
  EXPECT_NE(text.find("seed="), std::string::npos);
}

TEST(ScenarioConfig, ValidateReturnsEveryError) {
  ScenarioConfig cfg;
  EXPECT_TRUE(cfg.validate().empty()) << "defaults must be valid";
  cfg.n = 1;
  cfg.tick = 0.0;
  cfg.warmup = -1.0;
  cfg.duration = -1.0;
  cfg.density = 0.0;
  cfg.handover.backoff = 0.5;
  const auto errors = cfg.validate();
  std::vector<std::string> fields;
  for (const auto& e : errors) fields.push_back(e.field);
  EXPECT_EQ(fields, (std::vector<std::string>{"n", "tick", "warmup", "duration", "density",
                                              "handover.backoff"}));
  EXPECT_EQ(errors[1].rule, "must be > 0");
}

TEST(ScenarioConfig, ValidateRejectsNan) {
  ScenarioConfig cfg;
  cfg.tick = std::nan("");
  const auto errors = cfg.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].field, "tick");
}

/// validate() on a default config with one field set through \p set: each
/// of \p bad and NaN is the only error, named \p field breaking \p rule,
/// and the boundary value \p edge passes.
template <typename Set>
void expect_rule(Set set, const std::string& field, const std::string& rule,
                 std::vector<double> bad, double edge) {
  bad.push_back(std::nan(""));
  for (const double v : bad) {
    ScenarioConfig cfg;
    set(cfg, v);
    const auto errors = cfg.validate();
    ASSERT_EQ(errors.size(), 1u) << field << " = " << v;
    EXPECT_EQ(errors[0].field, field);
    EXPECT_EQ(errors[0].rule, rule);
  }
  ScenarioConfig cfg;
  set(cfg, edge);
  EXPECT_TRUE(cfg.validate().empty()) << field << " = " << edge;
}

TEST(ScenarioConfig, ValidateFaultLossIsAProbability) {
  expect_rule([](ScenarioConfig& c, double v) { c.fault.loss = v; }, "fault.loss",
              "must be in [0, 1]", {-0.1, 1.5}, 1.0);
}

TEST(ScenarioConfig, ValidateFaultBurstLossIsAProbability) {
  expect_rule([](ScenarioConfig& c, double v) { c.fault.burst_loss = v; },
              "fault.burst_loss", "must be in [0, 1]", {-0.1, 1.01}, 1.0);
}

TEST(ScenarioConfig, ValidateFaultBurstOnIsAProbability) {
  expect_rule([](ScenarioConfig& c, double v) { c.fault.burst_on = v; }, "fault.burst_on",
              "must be in [0, 1]", {-1.0, 2.0}, 0.0);
}

TEST(ScenarioConfig, ValidateFaultArqBackoffAtLeastOne) {
  // ReliableTransfer's constructor would otherwise abort on an unnamed check.
  expect_rule([](ScenarioConfig& c, double v) { c.fault.arq_backoff = v; },
              "fault.arq_backoff", "must be >= 1", {0.5, 0.0}, 1.0);
}

TEST(ScenarioConfig, ValidateFaultArqTimeoutNonNegative) {
  expect_rule([](ScenarioConfig& c, double v) { c.fault.arq_timeout = v; },
              "fault.arq_timeout", "must be >= 0", {-0.01}, 0.0);
}

TEST(ScenarioConfig, ValidateFaultAuditPeriodNonNegative) {
  // A negative period would wrap the audit interval to a huge tick count, so
  // periodic audits would silently never run.
  expect_rule([](ScenarioConfig& c, double v) { c.fault.audit_period = v; },
              "fault.audit_period", "must be >= 0", {-5.0}, 0.0);
}

TEST(ScenarioConfig, ValidateFaultProcessKnobsNonNegative) {
  // A negative mean downtime reaches common::exponential as a negative rate.
  const double below_zero = std::nextafter(0.0, -1.0);
  for (const auto& [field, member] :
       {std::pair{"fault.burst_len", &sim::FaultConfig::burst_len},
        std::pair{"fault.crash_rate", &sim::FaultConfig::crash_rate},
        std::pair{"fault.mean_downtime", &sim::FaultConfig::mean_downtime},
        std::pair{"fault.outage_radius", &sim::FaultConfig::outage_radius},
        std::pair{"fault.outage_start", &sim::FaultConfig::outage_start},
        std::pair{"fault.outage_duration", &sim::FaultConfig::outage_duration}}) {
    expect_rule([member](ScenarioConfig& c, double v) { c.fault.*member = v; }, field,
                "must be >= 0", {below_zero}, 0.0);
  }
}

TEST(ScenarioConfig, ValidateSessionRatesPositive) {
  // SessionWorkload's constructor would otherwise abort on an unnamed check.
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (const auto& [field, member] :
       {std::pair{"session.sessions_per_node_per_sec",
                  &traffic::SessionConfig::sessions_per_node_per_sec},
        std::pair{"session.mean_duration", &traffic::SessionConfig::mean_duration},
        std::pair{"session.packets_per_sec", &traffic::SessionConfig::packets_per_sec}}) {
    expect_rule([member](ScenarioConfig& c, double v) { c.session.*member = v; }, field,
                "must be > 0", {0.0}, tiny);
  }
}

TEST(ScenarioConfig, ValidateHandoverTimersPositive) {
  // HandoverManager's constructor would otherwise abort on an unnamed check.
  const double tiny = std::numeric_limits<double>::denorm_min();
  expect_rule([](ScenarioConfig& c, double v) { c.handover.timeout = v; }, "handover.timeout",
              "must be > 0", {0.0}, tiny);
  expect_rule([](ScenarioConfig& c, double v) { c.handover.backoff = v; }, "handover.backoff",
              "must be >= 1", {std::nextafter(1.0, 0.0)}, 1.0);
}

TEST(ScenarioConfig, ValidateMuPositiveUnlessStatic) {
  // Every moving model aborts on a non-positive speed; a static field
  // ignores it, so mu = 0 stays valid there.
  for (const auto kind : {MobilityKind::kRandomWaypoint, MobilityKind::kRandomDirection,
                          MobilityKind::kGaussMarkov, MobilityKind::kGroup}) {
    expect_rule(
        [kind](ScenarioConfig& c, double v) {
          c.mobility = kind;
          c.mu = v;
        },
        "mu", "must be > 0", {0.0, -1.0}, std::numeric_limits<double>::denorm_min());
  }
  ScenarioConfig cfg;
  cfg.mobility = MobilityKind::kStatic;
  cfg.mu = 0.0;
  EXPECT_TRUE(cfg.validate().empty());
}

TEST(ScenarioConfig, ValidateRadiusKnobsUnderTheirOwnPolicy) {
  // A knob that leaves no positive R_TX would abort in net/radio or the
  // spatial grid; the policy that ignores it keeps any value valid.
  expect_rule(
      [](ScenarioConfig& c, double v) {
        c.radius_policy = RadiusPolicy::kMeanDegree;
        c.target_degree = v;
      },
      "target_degree", "must be > 0", {0.0, -1.0}, std::numeric_limits<double>::denorm_min());
  const double ln_n = std::log(static_cast<double>(ScenarioConfig{}.n));
  expect_rule([](ScenarioConfig& c, double v) { c.connectivity_margin = v; },
              "connectivity_margin", "must be > -ln(n)", {-ln_n, -10.0},
              std::nextafter(-ln_n, 0.0));
  ScenarioConfig cfg;
  cfg.target_degree = 0.0;
  EXPECT_TRUE(cfg.validate().empty()) << "the connectivity policy ignores the degree";
  cfg.radius_policy = RadiusPolicy::kMeanDegree;
  cfg.target_degree = 9.0;
  cfg.connectivity_margin = -10.0;
  EXPECT_TRUE(cfg.validate().empty()) << "the mean-degree policy ignores the margin";
}

TEST(ScenarioConfig, ValidateLinkBetaPositiveUnderGeometricLinks) {
  // A non-positive beta gives no geometric level-k range: -1 squared ran as
  // beta = 1, and 0 collapsed the hierarchy to one level. Contraction links
  // ignore beta.
  expect_rule([](ScenarioConfig& c, double v) { c.link_beta = v; }, "link_beta",
              "must be > 0", {0.0, -1.0}, std::numeric_limits<double>::denorm_min());
  ScenarioConfig cfg;
  cfg.geometric_links = false;
  cfg.link_beta = 0.0;
  EXPECT_TRUE(cfg.validate().empty()) << "contraction links ignore beta";
}

TEST(Scenario, MaterializeCreatesRequestedMobility) {
  ScenarioConfig cfg;
  cfg.n = 50;
  for (const auto kind : {MobilityKind::kRandomWaypoint, MobilityKind::kRandomDirection,
                          MobilityKind::kGaussMarkov, MobilityKind::kStatic}) {
    cfg.mobility = kind;
    const auto scenario = Scenario::materialize(cfg);
    EXPECT_EQ(scenario.mobility->node_count(), 50u);
    EXPECT_NE(scenario.mobility->name(), nullptr);
  }
}

TEST(Scenario, PositionsInsideRegion) {
  ScenarioConfig cfg;
  cfg.n = 200;
  const auto scenario = Scenario::materialize(cfg);
  for (const auto& p : scenario.mobility->positions()) {
    EXPECT_TRUE(scenario.region->contains(p));
  }
}

TEST(Scenario, ShuffledIdsAreAPermutation) {
  ScenarioConfig cfg;
  cfg.n = 100;
  const auto scenario = Scenario::materialize(cfg);
  auto ids = scenario.ids;
  std::sort(ids.begin(), ids.end());
  for (NodeId v = 0; v < 100; ++v) EXPECT_EQ(ids[v], v);
  // Ids are always shuffled: identity order is (overwhelmingly) broken.
  EXPECT_NE(scenario.ids, ids);
}

TEST(Scenario, SameSeedSameWorld) {
  ScenarioConfig cfg;
  cfg.n = 80;
  cfg.seed = 42;
  const auto a = Scenario::materialize(cfg);
  const auto b = Scenario::materialize(cfg);
  EXPECT_EQ(a.mobility->positions(), b.mobility->positions());
  EXPECT_EQ(a.ids, b.ids);
}

TEST(Scenario, DifferentSeedDifferentWorld) {
  ScenarioConfig cfg;
  cfg.n = 80;
  cfg.seed = 1;
  const auto a = Scenario::materialize(cfg);
  cfg.seed = 2;
  const auto b = Scenario::materialize(cfg);
  EXPECT_NE(a.mobility->positions(), b.mobility->positions());
}

}  // namespace
}  // namespace manet::exp
