#include "sim/fault.hpp"

#include <gtest/gtest.h>

namespace manet::sim {
namespace {

TEST(FaultConfig, DefaultIsOffAndDescribesAsOff) {
  FaultConfig cfg;
  EXPECT_FALSE(cfg.lossy());
  EXPECT_FALSE(cfg.churn());
  EXPECT_FALSE(cfg.outage());
  EXPECT_FALSE(cfg.enabled());
  EXPECT_EQ(cfg.describe(), "off");
}

TEST(FaultConfig, AnyProcessEnables) {
  FaultConfig loss;
  loss.loss = 0.05;
  EXPECT_TRUE(loss.lossy());
  EXPECT_TRUE(loss.enabled());

  FaultConfig burst;
  burst.burst_loss = 0.5;
  EXPECT_TRUE(burst.lossy());

  FaultConfig churn;
  churn.crash_rate = 0.01;
  EXPECT_TRUE(churn.churn());
  EXPECT_TRUE(churn.enabled());

  FaultConfig outage;
  outage.outage_radius = 5.0;
  outage.outage_duration = 10.0;
  EXPECT_TRUE(outage.outage());
  EXPECT_TRUE(outage.enabled());
}

TEST(FaultPlan, NoChurnMeansEmptyPlan) {
  FaultConfig cfg;
  cfg.loss = 0.1;  // lossy but no churn
  const auto plan = FaultPlan::build(cfg, 16, 0.0, 100.0, 42);
  ASSERT_EQ(plan.downtime.size(), 16u);
  for (const auto& ivs : plan.downtime) EXPECT_TRUE(ivs.empty());
}

TEST(FaultPlan, SameSeedSamePlanDifferentSeedDiffers) {
  FaultConfig cfg;
  cfg.crash_rate = 0.05;
  cfg.mean_downtime = 5.0;
  const auto a = FaultPlan::build(cfg, 64, 10.0, 200.0, 7);
  const auto b = FaultPlan::build(cfg, 64, 10.0, 200.0, 7);
  const auto c = FaultPlan::build(cfg, 64, 10.0, 200.0, 8);
  ASSERT_EQ(a.downtime.size(), b.downtime.size());
  Size total_a = 0;
  bool any_diff = false;
  for (NodeId v = 0; v < 64; ++v) {
    ASSERT_EQ(a.downtime[v].size(), b.downtime[v].size());
    total_a += a.downtime[v].size();
    for (Size i = 0; i < a.downtime[v].size(); ++i) {
      EXPECT_EQ(a.downtime[v][i].down, b.downtime[v][i].down);
      EXPECT_EQ(a.downtime[v][i].up, b.downtime[v][i].up);
    }
    if (a.downtime[v].size() != c.downtime[v].size()) any_diff = true;
    for (Size i = 0; i < std::min(a.downtime[v].size(), c.downtime[v].size()); ++i) {
      if (a.downtime[v][i].down != c.downtime[v][i].down) any_diff = true;
    }
  }
  EXPECT_GT(total_a, 0u) << "hazard 0.05 over 190 s should schedule crashes";
  EXPECT_TRUE(any_diff) << "different seed should give a different plan";
}

TEST(FaultPlan, IntervalsSortedWithinWindowAndWellFormed) {
  FaultConfig cfg;
  cfg.crash_rate = 0.1;
  cfg.mean_downtime = 2.0;
  const auto plan = FaultPlan::build(cfg, 32, 5.0, 60.0, 99);
  for (const auto& ivs : plan.downtime) {
    Time prev_up = 0.0;
    for (const auto& iv : ivs) {
      EXPECT_GE(iv.down, 5.0);
      EXPECT_LT(iv.down, 60.0);
      EXPECT_GT(iv.up, iv.down);
      EXPECT_GE(iv.down, prev_up) << "intervals must not overlap";
      prev_up = iv.up;
    }
  }
}

TEST(FaultInjector, CrashedFollowsThePlan) {
  FaultConfig cfg;
  cfg.crash_rate = 0.1;
  cfg.mean_downtime = 4.0;
  const FaultInjector inj(cfg, 32, 0.0, 100.0, 3);
  ASSERT_GT(inj.scheduled_crashes(), 0u);
  for (NodeId v = 0; v < 32; ++v) {
    for (const auto& iv : inj.plan().downtime[v]) {
      EXPECT_TRUE(inj.crashed(v, iv.down));
      EXPECT_TRUE(inj.crashed(v, (iv.down + iv.up) / 2.0));
      EXPECT_FALSE(inj.crashed(v, iv.up));  // half-open [down, up)
    }
    EXPECT_FALSE(inj.crashed(v, -1.0));
  }
  EXPECT_FALSE(inj.crashed(500, 10.0));  // out-of-range node id
}

TEST(FaultInjector, OutageDiskIsFixedAtTheOrigin) {
  FaultConfig cfg;
  cfg.outage_radius = 2.0;
  cfg.outage_start = 10.0;
  cfg.outage_duration = 10.0;
  const FaultInjector inj(cfg, 4, 0.0, 100.0, 1);

  // Inside and outside the radius while the outage is active, in [10, 20).
  for (const Time t : {10.0, 15.0, 19.9}) {
    EXPECT_TRUE(inj.in_outage(0.0, 0.0, t)) << t;
    EXPECT_TRUE(inj.in_outage(2.0, 0.0, t)) << t;  // on the boundary
    EXPECT_TRUE(inj.in_outage(-1.2, 1.5, t)) << t;
    EXPECT_FALSE(inj.in_outage(2.01, 0.0, t)) << t;
    EXPECT_FALSE(inj.in_outage(1.5, -1.5, t)) << t;
    EXPECT_FALSE(inj.in_outage(5.0, 0.0, t)) << t;  // the disk does not drift
  }
  // Before onset and from the end of the window on, nothing is covered.
  for (const Time t : {0.0, 9.9, 20.0, 25.0}) {
    EXPECT_FALSE(inj.in_outage(0.0, 0.0, t)) << t;
    EXPECT_FALSE(inj.in_outage(1.0, 1.0, t)) << t;
  }
}

TEST(FaultInjector, DisabledOutageNeverTriggers) {
  FaultConfig cfg;  // all off
  const FaultInjector inj(cfg, 8, 0.0, 50.0, 11);
  EXPECT_FALSE(inj.in_outage(0.0, 0.0, 25.0));
  EXPECT_EQ(inj.scheduled_crashes(), 0u);
}

}  // namespace
}  // namespace manet::sim
