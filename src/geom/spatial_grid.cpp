#include "geom/spatial_grid.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

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
  sorted_ids_.resize(n);
  cell_starts_.clear();
  if (n == 0) return;
  // Pass 1: every node's cell coordinates (parked in rank) and their span.
  // The rank array and the radix spare are per call: a kept copy would add
  // 12 bytes per node to the peak of a run that rebuilds only at setup.
  std::vector<std::uint64_t> rank(n);
  std::int64_t x_lo = INT64_MAX, x_hi = INT64_MIN, y_lo = INT64_MAX, y_hi = INT64_MIN;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::int64_t key = cell_of(positions_[i]);
    const std::int64_t cx = key >> 32;
    const std::int64_t cy = static_cast<std::int32_t>(key & 0xFFFFFFFF);
    x_lo = std::min(x_lo, cx);
    x_hi = std::max(x_hi, cx);
    y_lo = std::min(y_lo, cy);
    y_hi = std::max(y_hi, cy);
    rank[i] = static_cast<std::uint64_t>(key);
  }
  // Pass 2: replace each key by its dense rank in key order, (cx - x_lo) *
  // height + y rank. The key orders y by its low 32 bits, so when the span
  // crosses zero the negative rows rank after the non-negative ones.
  const auto height = static_cast<std::uint64_t>(y_hi - y_lo + 1);
  const bool wrap = y_lo < 0 && y_hi >= 0;
  std::uint64_t top = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto key = static_cast<std::int64_t>(rank[i]);
    const std::int64_t cx = key >> 32;
    const std::int64_t cy = static_cast<std::int32_t>(key & 0xFFFFFFFF);
    const std::int64_t ry = wrap && cy >= 0 ? cy : cy - y_lo + (wrap ? y_hi + 1 : 0);
    rank[i] = static_cast<std::uint64_t>(cx - x_lo) * height + static_cast<std::uint64_t>(ry);
    top = std::max(top, rank[i]);
  }
  // Pass 3: stable LSD radix over the ranks, one byte per pass, starting
  // from id order — so each cell keeps its ids ascending, exactly the order
  // of a sort by (key, id). The passes alternate between sorted_ids_ and a
  // per-call spare, started so that the last one lands in sorted_ids_.
  constexpr unsigned kDigitBits = 8;
  const unsigned passes = (static_cast<unsigned>(std::bit_width(top)) + kDigitBits - 1) / kDigitBits;
  std::vector<NodeId> spare(passes > 0 ? n : 0);
  NodeId* src = passes % 2 == 0 ? sorted_ids_.data() : spare.data();
  NodeId* dst = passes % 2 == 0 ? spare.data() : sorted_ids_.data();
  std::iota(src, src + n, NodeId{0});
  for (unsigned pass = 0; pass < passes; ++pass) {
    const unsigned shift = pass * kDigitBits;
    std::array<std::uint32_t, (1u << kDigitBits) + 1> start{};
    for (std::uint32_t i = 0; i < n; ++i) ++start[((rank[src[i]] >> shift) & 0xFF) + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (std::uint32_t i = 0; i < n; ++i) dst[start[(rank[src[i]] >> shift) & 0xFF]++] = src[i];
    std::swap(src, dst);
  }
  // Pass 4: emit the CSR bucket table.
  for (std::uint32_t i = 0; i < n; ++i) {
    const NodeId id = sorted_ids_[i];
    if (i == 0 || rank[id] != rank[sorted_ids_[i - 1]]) {
      cell_starts_.emplace_back(cell_of(positions_[id]), i);
    }
  }
}

std::pair<std::uint32_t, std::uint32_t> SpatialGrid::bucket(std::int64_t key) const {
  const auto it = std::lower_bound(
      cell_starts_.begin(), cell_starts_.end(), key,
      [](const auto& entry, std::int64_t k) { return entry.first < k; });
  if (it == cell_starts_.end() || it->first != key) return {0, 0};
  return cell_range(static_cast<std::size_t>(it - cell_starts_.begin()));
}

}  // namespace manet::geom
