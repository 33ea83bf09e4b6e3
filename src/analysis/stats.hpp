#pragma once

#include <span>
#include <vector>

/// \file stats.hpp
/// Descriptive statistics for Monte-Carlo replications: running accumulator,
/// normal-approximation confidence intervals, quantiles.

namespace manet::analysis {

/// Single-pass accumulator (Welford) for mean/variance.
class Accumulator {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return count_; }
  double mean() const noexcept { return mean_; }
  /// Unbiased sample variance; 0 when count < 2.
  double variance() const noexcept;
  double stddev() const noexcept;
  /// Standard error of the mean; 0 when count < 2.
  double stderr_mean() const noexcept;
  /// Half-width of the ~95% normal-approximation CI (1.96 * stderr).
  double ci95_halfwidth() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double ci95 = 0.0;  ///< half-width
  double min = 0.0;
  double max = 0.0;
};

/// Quantile by linear interpolation on the sorted copy, q in [0, 1].
double quantile(std::span<const double> xs, double q);

}  // namespace manet::analysis
