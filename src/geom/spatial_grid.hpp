#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "geom/vec2.hpp"

/// \file spatial_grid.hpp
/// Uniform hash grid over the plane for radius-bounded neighbor enumeration.
///
/// Building the unit-disk graph naively is O(n^2) distance checks; with a
/// cell size at least the query radius (the unit-disk builder uses
/// 1.5 R_TX), each node's neighbors lie in its 3x3 cell neighborhood,
/// making graph construction O(n + m) in expectation under the paper's
/// constant-density deployment. This is the hot path of every topology
/// resample, so the grid stores node indices in flat bucket arrays (CSR
/// layout) rebuilt in two passes — no per-cell allocation.

namespace manet::geom {

class SpatialGrid {
 public:
  /// \p cell_size must be >= the maximum query radius for 3x3 correctness.
  explicit SpatialGrid(double cell_size);

  /// Rebuild the index over \p positions (indexed by NodeId).
  void rebuild(const std::vector<Vec2>& positions);

  /// For every node u in the occupied cells with bucket index in
  /// [cell_begin, cell_end), visit(u, neighbors): every v != u within
  /// \p radius (radius <= cell_size) through the 3x3 stencil, in bucket
  /// order, as a span valid for the call. Every pair is therefore seen once
  /// from each end, under the symmetric test distance2 <= radius^2. Every
  /// node lies in exactly one cell, so disjoint ranges own disjoint u — the
  /// sharding hook for filling per-node adjacency lists in place.
  /// Callback signature: void(NodeId u, std::span<const NodeId> neighbors).
  template <typename F>
  void for_each_neighbor(double radius, std::size_t cell_begin, std::size_t cell_end,
                         F&& visit) const;

  double cell_size() const { return cell_size_; }
  std::size_t node_count() const { return positions_.size(); }
  /// Occupied cells in the current index (the range of for_each_neighbor).
  std::size_t cell_count() const { return cell_starts_.size(); }

 private:
  std::int64_t cell_of(Vec2 p) const;
  std::int64_t cell_key(std::int64_t cx, std::int64_t cy) const;

  double cell_size_;
  std::vector<Vec2> positions_;
  // CSR buckets: sorted_ids_ grouped by cell; cell_index_ maps cell key ->
  // [start, end) via a sorted (key, start) table.
  std::vector<NodeId> sorted_ids_;
  std::vector<std::pair<std::int64_t, std::uint32_t>> cell_starts_;  // key -> start offset

  /// Locate bucket range for a cell key; returns {0,0} when absent.
  std::pair<std::uint32_t, std::uint32_t> bucket(std::int64_t key) const;
};

template <typename F>
void SpatialGrid::for_each_neighbor(double radius, std::size_t cell_begin,
                                    std::size_t cell_end, F&& visit) const {
  const double r2 = radius * radius;
  std::pair<std::uint32_t, std::uint32_t> around[9];  // 3x3 stencil; [4] is the cell
  std::vector<NodeId> found;
  for (std::size_t c = cell_begin; c < cell_end; ++c) {
    const std::int64_t key = cell_starts_[c].first;
    const std::int64_t cx = key >> 32;
    const std::int64_t cy = static_cast<std::int32_t>(key & 0xFFFFFFFF);
    std::size_t k = 0, candidates = 0;
    for (std::int64_t dx = -1; dx <= 1; ++dx) {
      for (std::int64_t dy = -1; dy <= 1; ++dy) {
        around[k] = bucket(cell_key(cx + dx, cy + dy));
        candidates += around[k].second - around[k].first;
        ++k;
      }
    }
    if (found.size() < candidates) found.resize(candidates);
    for (std::uint32_t i = around[4].first; i < around[4].second; ++i) {
      const NodeId u = sorted_ids_[i];
      const Vec2 pu = positions_[u];
      // Branch-free compaction: write every candidate, keep the hits.
      std::size_t hits = 0;
      for (const auto& [b_begin, b_end] : around) {
        for (std::uint32_t j = b_begin; j < b_end; ++j) {
          const NodeId v = sorted_ids_[j];
          found[hits] = v;
          hits += static_cast<std::size_t>((v != u) & (distance2(pu, positions_[v]) <= r2));
        }
      }
      visit(u, std::span<const NodeId>(found.data(), hits));
    }
  }
}

}  // namespace manet::geom
