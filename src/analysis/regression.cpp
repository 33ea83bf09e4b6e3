#include "analysis/regression.hpp"

#include <cmath>
#include <vector>

#include "common/check.hpp"

namespace manet::analysis {

namespace {

double mean_of(std::span<const double> xs) {
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

/// Shared R^2 / RSS computation for a fitted predictor.
void finish(std::span<const double> xs, std::span<const double> ys, LinearFit& fit) {
  const double y_mean = mean_of(ys);
  double rss = 0.0, tss = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double pred = fit.intercept + fit.slope * xs[i];
    rss += (ys[i] - pred) * (ys[i] - pred);
    tss += (ys[i] - y_mean) * (ys[i] - y_mean);
  }
  fit.rss = rss;
  fit.r2 = tss > 0.0 ? 1.0 - rss / tss : (rss == 0.0 ? 1.0 : 0.0);
}

}  // namespace

LinearFit fit_linear(std::span<const double> xs, std::span<const double> ys) {
  MANET_CHECK(xs.size() == ys.size());
  MANET_CHECK(xs.size() >= 2);
  const double x_mean = mean_of(xs);
  const double y_mean = mean_of(ys);
  double sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxx += (xs[i] - x_mean) * (xs[i] - x_mean);
    sxy += (xs[i] - x_mean) * (ys[i] - y_mean);
  }
  LinearFit fit;
  fit.slope = sxx > 0.0 ? sxy / sxx : 0.0;
  fit.intercept = y_mean - fit.slope * x_mean;
  finish(xs, ys, fit);
  return fit;
}

LinearFit fit_power_law(std::span<const double> xs, std::span<const double> ys) {
  MANET_CHECK(xs.size() == ys.size());
  std::vector<double> lx, ly;
  lx.reserve(xs.size());
  ly.reserve(ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    MANET_CHECK_MSG(xs[i] > 0.0 && ys[i] > 0.0, "power-law fit needs positive data");
    lx.push_back(std::log(xs[i]));
    ly.push_back(std::log(ys[i]));
  }
  return fit_linear(lx, ly);
}

}  // namespace manet::analysis
