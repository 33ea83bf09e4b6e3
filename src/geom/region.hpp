#pragma once

#include "common/rng.hpp"
#include "geom/vec2.hpp"

/// \file region.hpp
/// Deployment regions. The paper assumes nodes uniformly distributed over a
/// circular area whose size grows linearly with |V| so that node density is
/// constant (Section 1.2). DiskRegion implements exactly that.

namespace manet::geom {

/// Abstract planar deployment region.
class Region {
 public:
  virtual ~Region() = default;

  /// True iff \p p lies inside (or on the boundary of) the region.
  virtual bool contains(Vec2 p) const = 0;

  /// Uniform random point inside the region.
  virtual Vec2 sample(common::Xoshiro256& rng) const = 0;

  /// Region area in m^2.
  virtual double area() const = 0;

  /// Geometric center.
  virtual Vec2 center() const = 0;

  /// Clamp a point to the closest point inside the region. Used by mobility
  /// models whose integration step may momentarily overshoot the boundary.
  virtual Vec2 clamp(Vec2 p) const = 0;
};

/// Circular region of given center and radius.
class DiskRegion final : public Region {
 public:
  DiskRegion(Vec2 center, double radius);

  /// Disk centered at origin sized so that `n` nodes at `density` nodes/m^2
  /// fit: area = n / density. This is the paper's constant-density scaling.
  static DiskRegion with_density(std::size_t n_nodes, double density);

  bool contains(Vec2 p) const override;
  Vec2 sample(common::Xoshiro256& rng) const override;
  double area() const override;
  Vec2 center() const override { return center_; }
  Vec2 clamp(Vec2 p) const override;

  double radius() const { return radius_; }

 private:
  Vec2 center_;
  double radius_;
};

}  // namespace manet::geom
