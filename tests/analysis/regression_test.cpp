#include "analysis/regression.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace manet::analysis {
namespace {

TEST(FitLinear, RecoversExactLine) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  std::vector<double> ys;
  for (const double x : xs) ys.push_back(3.0 + 2.0 * x);
  const auto fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-12);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
  EXPECT_NEAR(fit.rss, 0.0, 1e-12);
}

TEST(FitLinear, NoisyLineStillCloseWithHighR2) {
  common::Xoshiro256 rng(1);
  std::vector<double> xs, ys;
  for (int i = 0; i < 200; ++i) {
    const double x = i * 0.1;
    xs.push_back(x);
    ys.push_back(-1.0 + 0.5 * x + 0.05 * common::normal(rng));
  }
  const auto fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.intercept, -1.0, 0.05);
  EXPECT_NEAR(fit.slope, 0.5, 0.02);
  EXPECT_GT(fit.r2, 0.99);
}

TEST(FitLinear, ConstantXGivesZeroSlope) {
  const std::vector<double> xs{2, 2, 2};
  const std::vector<double> ys{1, 2, 3};
  const auto fit = fit_linear(xs, ys);
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 2.0);  // mean of y
}

TEST(FitPowerLaw, RecoversExponent) {
  std::vector<double> xs, ys;
  for (const double x : {10.0, 20.0, 40.0, 80.0, 160.0}) {
    xs.push_back(x);
    ys.push_back(3.0 * std::pow(x, 1.7));
  }
  const auto fit = fit_power_law(xs, ys);
  EXPECT_NEAR(fit.slope, 1.7, 1e-9);
  EXPECT_NEAR(std::exp(fit.intercept), 3.0, 1e-6);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(FitPowerLaw, LogGrowthGivesSmallExponent) {
  std::vector<double> xs, ys;
  for (const double x : {64.0, 256.0, 1024.0, 4096.0, 16384.0}) {
    xs.push_back(x);
    ys.push_back(std::log(x) * std::log(x));
  }
  const auto fit = fit_power_law(xs, ys);
  EXPECT_LT(fit.slope, 0.45);
  EXPECT_GT(fit.slope, 0.1);
}

TEST(FitPowerLawDeath, RejectsNonPositiveData) {
  const std::vector<double> xs{1, 2};
  const std::vector<double> ys{1, -2};
  EXPECT_DEATH(fit_power_law(xs, ys), "positive");
}

}  // namespace
}  // namespace manet::analysis
