#include "geom/spatial_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
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

/// A sort-based reference of the grid's cell table: the occupied cells in
/// packed-key order, each with its ids ascending — what sorting (key, id)
/// pairs gives.
std::map<std::int64_t, std::vector<NodeId>> sorted_cells(const std::vector<Vec2>& pts,
                                                         double cell) {
  std::vector<std::pair<std::int64_t, NodeId>> keyed;
  for (NodeId i = 0; i < pts.size(); ++i) {
    const auto cx = static_cast<std::int64_t>(std::floor(pts[i].x / cell));
    const auto cy = static_cast<std::int64_t>(std::floor(pts[i].y / cell));
    keyed.emplace_back((cx << 32) | (cy & 0xFFFFFFFF), i);
  }
  std::sort(keyed.begin(), keyed.end());
  std::map<std::int64_t, std::vector<NodeId>> cells;
  for (const auto& [key, id] : keyed) cells[key].push_back(id);
  return cells;
}

/// Rebuilds a grid over \p pts and checks its cell table and its
/// for_each_neighbor visits, order included, against the sorted reference.
void expect_matches_sorted_reference(const std::vector<Vec2>& pts, double cell,
                                     double radius) {
  SpatialGrid grid(cell);
  grid.rebuild(pts);
  const auto cells = sorted_cells(pts, cell);
  ASSERT_EQ(grid.cell_count(), cells.size());

  // One cell at a time, the visited u are exactly that cell's bucket.
  std::size_t c = 0;
  for (const auto& [key, ids] : cells) {
    std::vector<NodeId> visited;
    grid.for_each_neighbor(radius, c, c + 1,
                           [&](NodeId u, std::span<const NodeId>) { visited.push_back(u); });
    ASSERT_EQ(visited, ids) << "cell " << c;
    ++c;
  }

  // The full walk: cells in key order, each u's neighbors in 3x3 stencil
  // order (dx, then dy), ids ascending within each cell.
  std::vector<std::pair<NodeId, std::vector<NodeId>>> want, got;
  for (const auto& [key, ids] : cells) {
    const std::int64_t cx = key >> 32;
    const std::int64_t cy = static_cast<std::int32_t>(key & 0xFFFFFFFF);
    for (const NodeId u : ids) {
      std::vector<NodeId> nbrs;
      for (std::int64_t dx = -1; dx <= 1; ++dx) {
        for (std::int64_t dy = -1; dy <= 1; ++dy) {
          const auto it = cells.find(((cx + dx) << 32) | ((cy + dy) & 0xFFFFFFFF));
          if (it == cells.end()) continue;
          for (const NodeId v : it->second) {
            if (v != u && distance2(pts[u], pts[v]) <= radius * radius) nbrs.push_back(v);
          }
        }
      }
      want.emplace_back(u, std::move(nbrs));
    }
  }
  grid.for_each_neighbor(radius, 0, grid.cell_count(),
                         [&](NodeId u, std::span<const NodeId> nbrs) {
                           got.emplace_back(u, std::vector<NodeId>(nbrs.begin(), nbrs.end()));
                         });
  EXPECT_EQ(got, want);
}

TEST(SpatialGrid, CellTableMatchesSortOverMixedSignCoordinates) {
  // Cell rows on both sides of zero: the packed key orders a row by the low
  // 32 bits of its y, so the negative rows come after the non-negative ones.
  common::Xoshiro256 rng(37);
  std::vector<Vec2> pts(400);
  for (auto& p : pts) p = {common::uniform(rng, -9, 7), common::uniform(rng, -6, 11)};
  for (int x = -3; x <= 3; ++x) pts.push_back({1.5 * x, -1.5 * x});  // on cell corners
  pts.push_back(pts[11]);
  expect_matches_sorted_reference(pts, 1.5, 1.0);
}

TEST(SpatialGrid, CellTableMatchesSortForFarApartClusters) {
  // Two clusters 10^5 cells apart on both axes: the rank span needs several
  // radix passes, and the table must still come out in key order.
  common::Xoshiro256 rng(43);
  std::vector<Vec2> pts;
  for (int i = 0; i < 150; ++i) {
    pts.push_back({common::uniform(rng, -2.0e5, -2.0e5 + 12),
                   common::uniform(rng, 1.5e5, 1.5e5 + 12)});
    pts.push_back({common::uniform(rng, 3.0e5, 3.0e5 + 12),
                   common::uniform(rng, -1.0e5, -1.0e5 + 12)});
  }
  expect_matches_sorted_reference(pts, 1.5, 1.0);
  // One occupied cell: no radix pass at all.
  expect_matches_sorted_reference({{0.1, 0.2}, {0.3, 0.4}, {0.1, 0.2}}, 1.5, 1.0);
}

TEST(SpatialGrid, NearestMatchesBruteForceWithTies) {
  // Lattice points tie on distance all over (a half-lattice query sits
  // equidistant from four of them); nearest() must pick the lowest id among
  // the closest admitted nodes and admit nothing at or beyond the bound.
  std::vector<Vec2> pts;
  for (int x = -6; x <= 6; ++x) {
    for (int y = -6; y <= 6; ++y) pts.push_back({x * 1.0, y * 1.0});
  }
  pts.push_back({4000.0, -4000.0});  // a far node only the table scan reaches
  pts.push_back({2.0, 3.0});         // a duplicate of a lattice point
  SpatialGrid grid(1.5);
  grid.rebuild(pts);
  const auto accept = [](NodeId v) { return v % 3 != 0; };
  const auto brute = [&](Vec2 p, double bound) {
    NodeId best = kInvalidNode;
    for (NodeId v = 0; v < pts.size(); ++v) {
      const double d2 = distance2(p, pts[v]);
      if (accept(v) && d2 < bound) {
        bound = d2;
        best = v;
      }
    }
    return std::pair{best, bound};
  };
  std::vector<Vec2> queries;
  for (int i = -8; i <= 8; ++i) {
    queries.push_back({i * 0.5, i * -0.75});
    queries.push_back({i * 1.0, 0.5});
  }
  queries.push_back({3990.0, -3990.0});
  queries.push_back({-900.0, 25.0});
  for (const Vec2 q : queries) {
    const auto [want, want_d2] = brute(q, std::numeric_limits<double>::infinity());
    double d2 = std::numeric_limits<double>::infinity();
    ASSERT_EQ(grid.nearest(q, accept, d2), want) << q.x << "," << q.y;
    ASSERT_EQ(d2, want_d2);
    // The bound is exclusive: at the best distance nothing is closer.
    double at = want_d2;
    EXPECT_EQ(grid.nearest(q, accept, at), kInvalidNode);
    EXPECT_EQ(at, want_d2);
  }
  double none = std::numeric_limits<double>::infinity();
  EXPECT_EQ(grid.nearest({0, 0}, [](NodeId) { return false; }, none), kInvalidNode);
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
