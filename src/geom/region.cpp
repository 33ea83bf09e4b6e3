#include "geom/region.hpp"

#include <cmath>
#include <numbers>

#include "common/check.hpp"

namespace manet::geom {

DiskRegion::DiskRegion(Vec2 center, double radius) : center_(center), radius_(radius) {
  MANET_CHECK(radius > 0.0);
}

DiskRegion DiskRegion::with_density(std::size_t n_nodes, double density) {
  MANET_CHECK(n_nodes > 0);
  MANET_CHECK(density > 0.0);
  const double area = static_cast<double>(n_nodes) / density;
  return DiskRegion({0.0, 0.0}, std::sqrt(area / std::numbers::pi));
}

bool DiskRegion::contains(Vec2 p) const {
  return distance2(p, center_) <= radius_ * radius_ * (1.0 + 1e-12);
}

Vec2 DiskRegion::sample(common::Xoshiro256& rng) const {
  // Inverse-CDF sampling in polar coordinates: r = R*sqrt(u) is uniform in
  // area; rejection sampling would be equally valid but this is branch-free.
  const double r = radius_ * std::sqrt(common::uniform01(rng));
  const double theta = common::uniform(rng, 0.0, 2.0 * std::numbers::pi);
  return center_ + Vec2{r * std::cos(theta), r * std::sin(theta)};
}

double DiskRegion::area() const { return std::numbers::pi * radius_ * radius_; }

Vec2 DiskRegion::clamp(Vec2 p) const {
  const Vec2 d = p - center_;
  const double n = d.norm();
  if (n <= radius_) return p;
  return center_ + d * (radius_ / n);
}

}  // namespace manet::geom
