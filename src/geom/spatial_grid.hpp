#pragma once

#include <algorithm>
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
/// layout) rebuilt in linear time — no per-cell allocation and no sort: a
/// stable least-significant-digit radix pass places the ids by a dense rank
/// of their cell, so the pass count follows the span of occupied cells (two
/// byte-wide passes at the simulator's n = 16 384, more only for far-apart
/// clusters).

namespace manet::geom {

class SpatialGrid {
 public:
  /// \p cell_size must be >= the maximum query radius for 3x3 correctness.
  explicit SpatialGrid(double cell_size);

  /// Rebuild the index over \p positions (indexed by NodeId): the occupied
  /// cells in ascending packed-key order (signed cell x, then the cell y's
  /// low 32 bits), each holding its ids in ascending order. O(n) per digit
  /// pass, with 12 bytes of scratch per node for the call only.
  void rebuild(const std::vector<Vec2>& positions);

  /// The node nearest to \p p among those \p accept admits (accept(NodeId)
  /// -> bool), strictly closer than \p best_d2 on entry; ties go to the
  /// lowest id. On a hit, \p best_d2 holds its squared distance; returns
  /// kInvalidNode when no admitted node is closer. Searches square rings of
  /// cells outward from p's cell and stops once the next ring cannot hold a
  /// closer node; when the square around p would outgrow the occupied-cell
  /// table, the rest of the table is scanned instead, so a far target costs
  /// at most one pass over the table.
  template <typename F>
  NodeId nearest(Vec2 p, F&& accept, double& best_d2) const;

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
  // CSR buckets: sorted_ids_ grouped by cell; cell_starts_ maps cell key ->
  // [start, end) via a sorted (key, start) table.
  std::vector<NodeId> sorted_ids_;
  std::vector<std::pair<std::int64_t, std::uint32_t>> cell_starts_;  // key -> start offset

  /// Locate bucket range for a cell key; returns {0,0} when absent.
  std::pair<std::uint32_t, std::uint32_t> bucket(std::int64_t key) const;
  /// Bucket range of the table's c-th occupied cell.
  std::pair<std::uint32_t, std::uint32_t> cell_range(std::size_t c) const {
    return {cell_starts_[c].second, c + 1 < cell_starts_.size()
                                        ? cell_starts_[c + 1].second
                                        : static_cast<std::uint32_t>(sorted_ids_.size())};
  }
};

template <typename F>
NodeId SpatialGrid::nearest(Vec2 p, F&& accept, double& best_d2) const {
  NodeId best = kInvalidNode;
  const auto scan = [&](std::pair<std::uint32_t, std::uint32_t> range) {
    for (std::uint32_t i = range.first; i < range.second; ++i) {
      const NodeId v = sorted_ids_[i];
      if (!accept(v)) continue;
      const double d2 = distance2(p, positions_[v]);
      if (d2 < best_d2 || (d2 == best_d2 && best != kInvalidNode && v < best)) {
        best_d2 = d2;
        best = v;
      }
    }
  };
  const std::int64_t key = cell_of(p);
  const std::int64_t cx = key >> 32;
  const std::int64_t cy = static_cast<std::int32_t>(key & 0xFFFFFFFF);
  for (std::int64_t r = 0;; ++r) {
    if (static_cast<std::size_t>((2 * r + 1) * (2 * r + 1)) > cell_starts_.size()) {
      // Rings r and beyond would visit more cells than are occupied: scan
      // every occupied cell outside the rings already searched.
      for (std::size_t c = 0; c < cell_starts_.size(); ++c) {
        const std::int64_t k = cell_starts_[c].first;
        const std::int64_t dx = (k >> 32) - cx;
        const std::int64_t dy = static_cast<std::int32_t>(k & 0xFFFFFFFF) - cy;
        if (std::max(dx < 0 ? -dx : dx, dy < 0 ? -dy : dy) >= r) scan(cell_range(c));
      }
      return best;
    }
    if (r == 0) {
      scan(bucket(key));
    } else {
      for (std::int64_t d = -r; d < r; ++d) {  // the ring's four sides, corners once
        scan(bucket(cell_key(cx + d, cy - r)));
        scan(bucket(cell_key(cx + r, cy + d)));
        scan(bucket(cell_key(cx - d, cy + r)));
        scan(bucket(cell_key(cx - r, cy - d)));
      }
    }
    // A node outside rings 0..r lies at least r cell sides from p. The
    // 1e-9 margin absorbs the rounding of the cell assignment and of
    // distance2, so an unsearched node can neither beat nor tie best_d2.
    const double reach = static_cast<double>(r) * cell_size_;
    if (best_d2 < reach * reach * (1.0 - 1e-9)) return best;
  }
}

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
