#pragma once

#include <span>

/// \file regression.hpp
/// Ordinary least squares for the scaling fits: y = a + b x and log-log
/// power-law exponent estimation (used to classify measured growth orders).

namespace manet::analysis {

struct LinearFit {
  double intercept = 0.0;  ///< a
  double slope = 0.0;      ///< b
  double r2 = 0.0;         ///< coefficient of determination
  double rss = 0.0;        ///< residual sum of squares
};

/// Least-squares y = a + b x. Requires xs.size() == ys.size() >= 2.
LinearFit fit_linear(std::span<const double> xs, std::span<const double> ys);

/// Power-law exponent: fits log y = a + e log x; returns e (slope) with the
/// log-space R^2. Requires strictly positive data.
LinearFit fit_power_law(std::span<const double> xs, std::span<const double> ys);

}  // namespace manet::analysis
