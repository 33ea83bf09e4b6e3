#include "lm/gls.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"

namespace manet::lm {

GridHierarchy::GridHierarchy(geom::Vec2 origin, double side, Level levels)
    : origin_(origin), side_(side), levels_(levels) {
  MANET_CHECK(side > 0.0);
  MANET_CHECK(levels >= 1);
}

GridHierarchy GridHierarchy::cover(geom::Vec2 origin, double side, double min_cell) {
  MANET_CHECK(min_cell > 0.0);
  MANET_CHECK(side > 0.0);
  Level levels = 1;
  while (side / std::pow(2.0, levels + 1) >= min_cell && levels < 30) ++levels;
  return GridHierarchy(origin, side, levels);
}

double GridHierarchy::cell_side(Level k) const {
  MANET_CHECK(k >= 1 && k <= levels_ + 1);
  // Level-(L+1) is the whole square; each step down halves the side.
  return side_ / std::pow(2.0, static_cast<double>(levels_ + 1 - k));
}

std::pair<std::int32_t, std::int32_t> GridHierarchy::cell(geom::Vec2 p, Level k) const {
  const double s = cell_side(k);
  // Clamp into the square so boundary points land in the outermost cells.
  const double x = std::clamp(p.x - origin_.x, 0.0, side_ * (1.0 - 1e-12));
  const double y = std::clamp(p.y - origin_.y, 0.0, side_ * (1.0 - 1e-12));
  return {static_cast<std::int32_t>(x / s), static_cast<std::int32_t>(y / s)};
}

GlsService::GlsService(GridHierarchy grid) : grid_(grid) {}

namespace {

/// Level-k cells along one side of the square: 2^(L+1-k).
Size cells_per_side(const GridHierarchy& grid, Level k) {
  return Size{1} << (grid.levels() + 1 - k);
}

/// Successor-ID rule of the paper's eq. (5): pick z in \p candidates
/// minimizing (id_z - id_v - 1) mod 2^32 — the least id greater than the
/// owner's, cyclically. The owner itself scores 2^32 - 1 and so is never
/// chosen unless alone, in which case the slot is reported empty.
NodeId successor_pick(NodeId owner_id, std::span<const std::pair<NodeId, NodeId>> candidates) {
  NodeId best = kInvalidNode;
  std::uint32_t best_score = 0xFFFFFFFFu;
  for (const auto& [node, id] : candidates) {
    if (id == owner_id) continue;
    const std::uint32_t score = id - owner_id - 1;  // mod 2^32 wraparound
    if (best == kInvalidNode || score < best_score) {
      best = node;
      best_score = score;
    }
  }
  return best;
}

}  // namespace

void GlsService::rebuild(const std::vector<geom::Vec2>& positions, std::span<const NodeId> ids,
                         Time now) {
  (void)now;
  const Size n = positions.size();
  std::vector<NodeId> identity;
  if (ids.empty()) {
    identity.resize(n);
    for (NodeId v = 0; v < n; ++v) identity[v] = v;
    ids = identity;
  }
  MANET_CHECK(ids.size() == n);

  // Bucket nodes per level-(k-1) cell, for k-1 in [1, L]: one dense grid
  // per level, cell (cx, cy) at cx * cells_per_side + cy.
  buckets_.resize(static_cast<Size>(grid_.levels()) + 1);
  for (Level lvl = 1; lvl <= grid_.levels(); ++lvl) {
    const Size side = cells_per_side(grid_, lvl);
    auto& cells = buckets_[lvl];
    for (Bucket& bucket : cells) bucket.clear();
    cells.resize(side * side);
    for (NodeId v = 0; v < n; ++v) {
      const auto [cx, cy] = grid_.cell(positions[v], lvl);
      cells[static_cast<Size>(cx) * side + static_cast<Size>(cy)].push_back({v, ids[v]});
    }
  }

  const Level top = grid_.top_level();
  const Size width = row_width();
  node_count_ = n;
  assignments_.assign(n * width, kInvalidNode);

  for (NodeId v = 0; v < n; ++v) {
    for (Level k = 2; k <= top; ++k) {
      // The 4 level-(k-1) children of v's level-k square; the 3 that differ
      // from v's own child square are the sibling slots.
      const Level child = k - 1;
      const Size side = cells_per_side(grid_, child);
      const auto [pcx, pcy] = grid_.cell(positions[v], k);
      const auto [own_cx, own_cy] = grid_.cell(positions[v], child);
      Size slot = 0;
      for (int dx = 0; dx < 2; ++dx) {
        for (int dy = 0; dy < 2; ++dy) {
          const std::int32_t cx = pcx * 2 + dx;
          const std::int32_t cy = pcy * 2 + dy;
          if (cx == own_cx && cy == own_cy) continue;
          const Bucket& bucket =
              buckets_[child][static_cast<Size>(cx) * side + static_cast<Size>(cy)];
          assignments_[v * width + (k - 2) * kGlsSiblings + slot] =
              successor_pick(ids[v], bucket);
          ++slot;
        }
      }
      MANET_CHECK(slot == kGlsSiblings);
    }
  }
}

NodeId GlsService::server_of(NodeId owner, Level k, Size sibling) const {
  MANET_CHECK(owner < node_count_);
  MANET_CHECK(k >= 2 && k <= grid_.top_level());
  MANET_CHECK(sibling < kGlsSiblings);
  return assignments_[owner * row_width() + (k - 2) * kGlsSiblings + sibling];
}

std::vector<Size> GlsService::load_vector() const {
  std::vector<Size> loads(node_count(), 0);
  for (const NodeId s : assignments_) {
    if (s != kInvalidNode) ++loads[s];
  }
  return loads;
}

GlsHandoffTracker::GlsHandoffTracker(GridHierarchy grid) : service_(grid) {}

void GlsHandoffTracker::prime(const std::vector<geom::Vec2>& positions,
                              std::span<const NodeId> ids, Time t) {
  service_.rebuild(positions, ids, t);
  prev_ = service_.assignments_;
  start_time_ = last_time_ = t;
  primed_ = true;
}

PacketCount GlsHandoffTracker::price(const graph::Graph& g0, NodeId from, NodeId to) {
  if (from == to) return 0;
  const std::uint32_t hops = pair_bfs_.hops(g0, from, to);
  return hops == graph::kUnreachable ? 0 : hops;
}

GlsHandoffTracker::TickResult GlsHandoffTracker::update(
    const std::vector<geom::Vec2>& positions, const graph::Graph& g0,
    std::span<const NodeId> ids, Time t) {
  MANET_CHECK_MSG(primed_, "GlsHandoffTracker::update before prime");
  MANET_CHECK_MSG(t >= last_time_, "tracker time must be monotone");
  service_.rebuild(positions, ids, t);

  TickResult tick;
  const auto& next = service_.assignments_;
  MANET_CHECK(next.size() == prev_.size());
  const Size width = service_.row_width();
  for (NodeId v = 0; v < service_.node_count(); ++v) {
    for (Size i = 0; i < width; ++i) {
      const NodeId s_old = prev_[v * width + i];
      const NodeId s_new = next[v * width + i];
      if (s_old == s_new) continue;
      if (s_old != kInvalidNode && s_new != kInvalidNode) {
        tick.handoff_packets += price(g0, s_old, s_new);
        ++tick.entries_moved;
      } else if (s_new != kInvalidNode) {
        tick.update_packets += price(g0, v, s_new);
        ++tick.entries_moved;
      }
      // s_new == kInvalidNode: the sibling square emptied; entry evaporates
      // (the old server purges it lazily in real GLS — no transfer cost).
    }
  }
  total_handoff_ += tick.handoff_packets;
  total_update_ += tick.update_packets;
  // Swapped, not copied: the next rebuild() overwrites every slot of the
  // buffer the service gets back.
  std::swap(prev_, service_.assignments_);
  last_time_ = t;
  return tick;
}

double GlsHandoffTracker::handoff_rate() const {
  const double denom = static_cast<double>(node_count()) * elapsed();
  return denom > 0.0 ? static_cast<double>(total_handoff_) / denom : 0.0;
}

double GlsHandoffTracker::update_rate() const {
  const double denom = static_cast<double>(node_count()) * elapsed();
  return denom > 0.0 ? static_cast<double>(total_update_) / denom : 0.0;
}

double GlsHandoffTracker::combined_rate() const { return handoff_rate() + update_rate(); }

}  // namespace manet::lm
