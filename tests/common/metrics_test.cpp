#include "common/metrics.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

namespace manet::common {
namespace {

TEST(Counter, AddsDeltas) {
  Counter a, b;
  a.add();
  a.add(4);
  b.add(10);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(b.value(), 10u);
}

TEST(RateMeter, WindowedRateAgesOut) {
  RateMeter meter(10.0, 10);
  for (int t = 0; t < 10; ++t) meter.mark(static_cast<Time>(t), 5);
  // 50 events over a 10 s window.
  EXPECT_NEAR(meter.rate(9.0), 5.0, 1.0);
  EXPECT_EQ(meter.total(), 50u);
  // Far in the future every bucket has aged out of the window.
  EXPECT_DOUBLE_EQ(meter.rate(1000.0), 0.0);
  EXPECT_EQ(meter.total(), 50u);  // totals never age
}

TEST(Histogram, BucketsAndQuantiles) {
  const std::array<double, 4> bounds{1.0, 2.0, 4.0, 8.0};
  Histogram h(bounds);
  for (const double x : {0.5, 1.5, 1.5, 3.0, 10.0}) h.observe(x);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 16.5);
  EXPECT_EQ(h.bucket_total(), 5u);  // 4 bounds + overflow
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(4), 1u);
  const double median = h.quantile(0.5);
  EXPECT_GE(median, 1.0);
  EXPECT_LE(median, 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
}

TEST(MetricsRegistry, LookupIsStableAndTyped) {
  MetricsRegistry reg;
  Counter& c = reg.counter("a.count");
  reg.gauge("a.gauge").set(3.0);
  c.add(7);
  EXPECT_EQ(&reg.counter("a.count"), &c);  // stable reference
  ASSERT_NE(reg.find_counter("a.count"), nullptr);
  EXPECT_EQ(reg.find_counter("a.count")->value(), 7u);
  EXPECT_EQ(reg.find_counter("a.gauge"), nullptr);  // wrong kind
  EXPECT_EQ(reg.find_gauge("missing"), nullptr);
  EXPECT_EQ(reg.instrument_count(), 2u);
}

TEST(MetricsRegistry, EntriesAreSortedByName) {
  MetricsRegistry reg;
  reg.counter("zz");
  reg.gauge("aa");
  reg.rate_meter("mm");
  const auto entries = reg.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].name, "aa");
  EXPECT_EQ(entries[1].name, "mm");
  EXPECT_EQ(entries[2].name, "zz");
}

}  // namespace
}  // namespace manet::common
