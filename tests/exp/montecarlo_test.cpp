#include "exp/montecarlo.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "exp/campaign.hpp"

namespace manet::exp {
namespace {

ScenarioConfig quick_config(Size n = 100) {
  ScenarioConfig cfg;
  cfg.n = n;
  cfg.warmup = 4.0;
  cfg.duration = 8.0;
  cfg.radius_policy = RadiusPolicy::kMeanDegree;
  cfg.target_degree = 12.0;
  return cfg;
}

RunOptions light_options() {
  RunOptions opts;
  opts.track_events = false;
  opts.track_states = false;
  opts.measure_hops = false;
  return opts;
}

TEST(AggregatedMetrics, AddAndSummarize) {
  AggregatedMetrics agg;
  RunMetrics a, b;
  a.set("x", 1.0);
  b.set("x", 3.0);
  agg.add(a);
  agg.add(b);
  EXPECT_EQ(agg.replication_count(), 2u);
  EXPECT_DOUBLE_EQ(agg.mean("x"), 2.0);
  const auto s = agg.summary("x");
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
}

TEST(AggregatedMetrics, MissingMetricIsNan) {
  AggregatedMetrics agg;
  EXPECT_FALSE(agg.has("nope"));
  EXPECT_TRUE(std::isnan(agg.mean("nope")));
  EXPECT_EQ(agg.summary("nope").count, 0u);
}

TEST(RunReplications, SerialAndPooledAgree) {
  const auto cfg = quick_config();
  const auto serial = run_replications(cfg, 3, light_options(), nullptr);
  common::ThreadPool pool(3);
  const auto pooled = run_replications(cfg, 3, light_options(), &pool);
  EXPECT_EQ(serial.replication_count(), pooled.replication_count());
  for (const auto& name : serial.names()) {
    EXPECT_DOUBLE_EQ(serial.mean(name), pooled.mean(name)) << name;
  }
}

TEST(RunReplications, DistinctSeedsPerReplication) {
  const auto cfg = quick_config();
  const auto agg = run_replications(cfg, 3, light_options());
  // Three independent replications almost surely differ => nonzero spread.
  EXPECT_GT(agg.summary("phi_rate").stddev, 0.0);
}

TEST(SweepNodeCount, ProducesOrderedSeries) {
  const std::vector<Size> ns{80, 160};
  const auto campaign = sweep_node_count(quick_config(), ns, 2, light_options());
  ASSERT_EQ(campaign.points.size(), 2u);
  EXPECT_EQ(campaign.points[0].n, 80u);
  EXPECT_EQ(campaign.points[1].n, 160u);

  std::vector<double> xs, ys;
  campaign.series("total_rate", xs, ys);
  ASSERT_EQ(xs.size(), 2u);
  EXPECT_DOUBLE_EQ(xs[0], 80.0);
  EXPECT_GT(ys[1], 0.0);
}

TEST(SweepNodeCount, SeriesWithErrorMatchesSummaries) {
  const std::vector<Size> ns{80, 160};
  const auto campaign = sweep_node_count(quick_config(), ns, 3, light_options());
  std::vector<double> xs, ys, es;
  campaign.series_with_error("total_rate", xs, ys, es);
  ASSERT_EQ(xs.size(), 2u);
  ASSERT_EQ(es.size(), 2u);
  for (Size i = 0; i < 2; ++i) {
    const auto s = campaign.points[i].metrics.summary("total_rate");
    EXPECT_DOUBLE_EQ(ys[i], s.mean);
    EXPECT_NEAR(es[i], s.ci95 / 1.96, 1e-12);
    EXPECT_GT(es[i], 0.0);  // three replications differ
  }
}

TEST(SweepNodeCount, SeriesSkipsMissingMetrics) {
  const std::vector<Size> ns{80};
  const auto campaign = sweep_node_count(quick_config(), ns, 1, light_options());
  std::vector<double> xs, ys;
  campaign.series("does_not_exist", xs, ys);
  EXPECT_TRUE(xs.empty());
}

}  // namespace
}  // namespace manet::exp
