#include "analysis/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace manet::analysis {

void Accumulator::add(double x) noexcept {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double Accumulator::variance() const noexcept {
  return count_ >= 2 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double Accumulator::stddev() const noexcept { return std::sqrt(variance()); }

double Accumulator::stderr_mean() const noexcept {
  return count_ >= 2 ? stddev() / std::sqrt(static_cast<double>(count_)) : 0.0;
}

double Accumulator::ci95_halfwidth() const noexcept { return 1.96 * stderr_mean(); }

double quantile(std::span<const double> xs, double q) {
  MANET_CHECK(!xs.empty());
  MANET_CHECK(q >= 0.0 && q <= 1.0);
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace manet::analysis
