#include "geom/spatial_grid.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace manet::geom {

SpatialGrid::SpatialGrid(double cell_size) : cell_size_(cell_size) {
  MANET_CHECK(cell_size > 0.0);
}

std::int64_t SpatialGrid::cell_key(std::int64_t cx, std::int64_t cy) const {
  // Pack signed 32-bit cell coordinates into one 64-bit key. Cell coords are
  // bounded by (region extent / cell size), far below 2^31 at any scale this
  // library targets.
  return (cx << 32) | (cy & 0xFFFFFFFF);
}

std::int64_t SpatialGrid::cell_of(Vec2 p) const {
  const auto cx = static_cast<std::int64_t>(std::floor(p.x / cell_size_));
  const auto cy = static_cast<std::int64_t>(std::floor(p.y / cell_size_));
  return cell_key(cx, cy);
}

void SpatialGrid::rebuild(const std::vector<Vec2>& positions) {
  positions_ = positions;
  const auto n = static_cast<std::uint32_t>(positions_.size());
  // Pass 1: key every node, sort ids by key (stable layout, cache friendly).
  std::vector<std::pair<std::int64_t, NodeId>> keyed(n);
  for (std::uint32_t i = 0; i < n; ++i) keyed[i] = {cell_of(positions_[i]), i};
  std::sort(keyed.begin(), keyed.end());
  // Pass 2: emit CSR buckets.
  sorted_ids_.resize(n);
  cell_starts_.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    sorted_ids_[i] = keyed[i].second;
    if (i == 0 || keyed[i].first != keyed[i - 1].first) {
      cell_starts_.emplace_back(keyed[i].first, i);
    }
  }
}

std::pair<std::uint32_t, std::uint32_t> SpatialGrid::bucket(std::int64_t key) const {
  const auto it = std::lower_bound(
      cell_starts_.begin(), cell_starts_.end(), key,
      [](const auto& entry, std::int64_t k) { return entry.first < k; });
  if (it == cell_starts_.end() || it->first != key) return {0, 0};
  const std::uint32_t begin = it->second;
  const std::uint32_t end = (it + 1 != cell_starts_.end())
                                ? (it + 1)->second
                                : static_cast<std::uint32_t>(sorted_ids_.size());
  return {begin, end};
}

}  // namespace manet::geom
