#include "geom/region.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

namespace manet::geom {
namespace {

TEST(DiskRegion, AreaMatchesRadius) {
  const DiskRegion disk({0, 0}, 2.0);
  EXPECT_NEAR(disk.area(), 4.0 * std::numbers::pi, 1e-12);
}

TEST(DiskRegion, WithDensityGivesRequestedArea) {
  const auto disk = DiskRegion::with_density(1000, 2.0);
  EXPECT_NEAR(disk.area(), 500.0, 1e-9);
}

TEST(DiskRegion, ContainsCenterAndBoundary) {
  const DiskRegion disk({1, 1}, 3.0);
  EXPECT_TRUE(disk.contains({1, 1}));
  EXPECT_TRUE(disk.contains({4, 1}));
  EXPECT_FALSE(disk.contains({4.01, 1}));
}

TEST(DiskRegion, SamplesStayInside) {
  const DiskRegion disk({-5, 2}, 4.0);
  common::Xoshiro256 rng(1);
  for (int i = 0; i < 5000; ++i) EXPECT_TRUE(disk.contains(disk.sample(rng)));
}

TEST(DiskRegion, SamplingIsAreaUniform) {
  // In a uniform disk, P(r <= R/2) = 1/4.
  const DiskRegion disk({0, 0}, 1.0);
  common::Xoshiro256 rng(2);
  int inner = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (disk.sample(rng).norm() <= 0.5) ++inner;
  }
  EXPECT_NEAR(static_cast<double>(inner) / n, 0.25, 0.01);
}

TEST(DiskRegion, ClampProjectsToBoundary) {
  const DiskRegion disk({0, 0}, 1.0);
  const Vec2 p = disk.clamp({10.0, 0.0});
  EXPECT_NEAR(p.norm(), 1.0, 1e-12);
  EXPECT_EQ(disk.clamp({0.3, 0.2}), (Vec2{0.3, 0.2}));  // inside untouched
}

}  // namespace
}  // namespace manet::geom
