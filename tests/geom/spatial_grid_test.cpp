#include "geom/spatial_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "geom/region.hpp"

namespace manet::geom {
namespace {

using PairSet = std::set<std::pair<NodeId, NodeId>>;

PairSet brute_force_pairs(const std::vector<Vec2>& pts, double radius) {
  PairSet out;
  for (NodeId u = 0; u < pts.size(); ++u) {
    for (NodeId v = u + 1; v < pts.size(); ++v) {
      if (distance2(pts[u], pts[v]) <= radius * radius) out.insert({u, v});
    }
  }
  return out;
}

/// Unordered pairs from for_each_neighbor over every cell; each pair must be
/// visited exactly once from each end.
PairSet pairs_of(const SpatialGrid& grid, double radius) {
  std::multiset<std::pair<NodeId, NodeId>> visits;
  grid.for_each_neighbor(radius, 0, grid.cell_count(),
                         [&](NodeId u, std::span<const NodeId> nbrs) {
                           for (const NodeId v : nbrs) {
                             EXPECT_NE(u, v);
                             visits.insert({std::min(u, v), std::max(u, v)});
                           }
                         });
  PairSet out(visits.begin(), visits.end());
  for (const auto& pair : out) {
    EXPECT_EQ(visits.count(pair), 2u) << "pair " << pair.first << "," << pair.second;
  }
  return out;
}

PairSet grid_pairs(const std::vector<Vec2>& pts, double radius) {
  SpatialGrid grid(radius);
  grid.rebuild(pts);
  return pairs_of(grid, radius);
}

TEST(SpatialGrid, MatchesBruteForceOnRandomPoints) {
  common::Xoshiro256 rng(17);
  const DiskRegion disk({0, 0}, 10.0);
  std::vector<Vec2> pts(300);
  for (auto& p : pts) p = disk.sample(rng);
  EXPECT_EQ(grid_pairs(pts, 1.3), brute_force_pairs(pts, 1.3));
}

TEST(SpatialGrid, MatchesBruteForceAcrossNegativeCoordinates) {
  common::Xoshiro256 rng(19);
  std::vector<Vec2> pts(200);
  for (auto& p : pts) p = {common::uniform(rng, -8, 8), common::uniform(rng, -8, 8)};
  EXPECT_EQ(grid_pairs(pts, 2.0), brute_force_pairs(pts, 2.0));
}

TEST(SpatialGrid, EmptyAndSingleton) {
  SpatialGrid grid(1.0);
  grid.rebuild({});
  EXPECT_TRUE(pairs_of(grid, 1.0).empty());

  grid.rebuild({{0.5, 0.5}});
  EXPECT_TRUE(pairs_of(grid, 1.0).empty());
}

TEST(SpatialGrid, BoundaryDistanceIsInclusive) {
  const std::vector<Vec2> pts{{0.0, 0.0}, {1.0, 0.0}};
  const auto pairs = grid_pairs(pts, 1.0);
  EXPECT_EQ(pairs.size(), 1u);
}

TEST(SpatialGrid, ForEachNeighborCellRangesOwnDisjointNodes) {
  // Split the occupied cells into uneven ranges: every node's neighborhood
  // must come from exactly one range and equal the brute-force one, with
  // the grid cell wider than the radius (as the unit-disk builder uses it).
  common::Xoshiro256 rng(31);
  const DiskRegion disk({0, 0}, 6.0);
  std::vector<Vec2> pts(220);
  for (auto& p : pts) p = disk.sample(rng);
  pts.push_back(pts[7]);  // coincident nodes are neighbors at distance 0
  const double radius = 1.0;
  SpatialGrid grid(1.5 * radius);
  grid.rebuild(pts);

  std::vector<std::vector<NodeId>> found(pts.size());
  std::vector<int> owner(pts.size(), -1);
  const std::size_t cells = grid.cell_count();
  const std::size_t cuts[] = {0, cells / 5, cells / 2, cells};
  for (int r = 0; r < 3; ++r) {
    grid.for_each_neighbor(radius, cuts[r], cuts[r + 1],
                           [&](NodeId u, std::span<const NodeId> nbrs) {
                             EXPECT_EQ(owner[u], -1) << "node " << u << " visited twice";
                             owner[u] = r;
                             found[u].assign(nbrs.begin(), nbrs.end());
                           });
  }
  for (NodeId u = 0; u < pts.size(); ++u) {
    EXPECT_NE(owner[u], -1) << "node " << u << " never visited";
    std::vector<NodeId> expected;
    for (NodeId v = 0; v < pts.size(); ++v) {
      if (v != u && distance2(pts[u], pts[v]) <= radius * radius) expected.push_back(v);
    }
    std::sort(found[u].begin(), found[u].end());
    EXPECT_EQ(found[u], expected) << "node " << u;
  }
}

TEST(SpatialGrid, RebuildReplacesIndex) {
  SpatialGrid grid(1.0);
  grid.rebuild({{0, 0}, {0.5, 0}});
  grid.rebuild({{0, 0}, {5.0, 5.0}});
  EXPECT_TRUE(pairs_of(grid, 1.0).empty());  // old close pair must be gone
}

/// Property sweep over radii: grid always equals brute force.
class GridRadius : public ::testing::TestWithParam<double> {};

TEST_P(GridRadius, EquivalentToBruteForce) {
  const double radius = GetParam();
  common::Xoshiro256 rng(29);
  const DiskRegion disk({0, 0}, 6.0);
  std::vector<Vec2> pts(250);
  for (auto& p : pts) p = disk.sample(rng);
  EXPECT_EQ(grid_pairs(pts, radius), brute_force_pairs(pts, radius));
}

INSTANTIATE_TEST_SUITE_P(Radii, GridRadius, ::testing::Values(0.25, 0.7, 1.0, 2.5, 6.0));

}  // namespace
}  // namespace manet::geom
