#pragma once

#include <utility>
#include <vector>

#include "geom/region.hpp"
#include "graph/bfs.hpp"
#include "lm/database.hpp"

/// \file gls.hpp
/// Grid Location Service (Li et al., MobiCom 2000 — the paper's ref [5]),
/// the design CHLM is modelled on and the natural comparator (experiment
/// E12). GLS overlays a fixed square grid: level-1 squares of side l tile
/// the area; four level-k squares make a level-(k+1) square; the whole area
/// is the single level-(L+1) square (paper Fig. 2). A node recruits one
/// location server in each of the 3 sibling level-(k-1) squares of its own
/// level-(k-1) square, for k = 2..L+1, selected by the successor-ID rule of
/// the paper's eq. (5): the candidate z minimizing (z - v - 1) mod M, i.e.
/// the "least id greater than v" cyclically.

namespace manet::lm {

/// Fixed spatial grid hierarchy.
class GridHierarchy {
 public:
  /// \p levels = L: level-1 cells have side `side / 2^L`; level-(L+1) is the
  /// whole square.
  GridHierarchy(geom::Vec2 origin, double side, Level levels);

  /// Cover \p bounds with the smallest grid whose level-1 cell side is
  /// >= \p min_cell (mirrors GLS's "l-by-l smallest squares" sized to the
  /// radio range so a level-1 square is one-hop traversable).
  static GridHierarchy cover(geom::Vec2 origin, double side, double min_cell);

  Level levels() const { return levels_; }  ///< L
  Level top_level() const { return levels_ + 1; }

  double cell_side(Level k) const;  ///< side of a level-k square

  /// Integer cell coordinates of \p p at level k in [1, L+1].
  std::pair<std::int32_t, std::int32_t> cell(geom::Vec2 p, Level k) const;

  geom::Vec2 origin() const { return origin_; }
  double side() const { return side_; }

 private:
  geom::Vec2 origin_;
  double side_;
  Level levels_;
};

/// Number of sibling squares each level recruits a server in.
inline constexpr Size kGlsSiblings = 3;

class GlsService {
 public:
  explicit GlsService(GridHierarchy grid);

  /// Recompute all server assignments from node positions. \p ids supplies
  /// the node identifiers used by the successor rule (empty = identity).
  void rebuild(const std::vector<geom::Vec2>& positions, std::span<const NodeId> ids = {},
               Time now = 0.0);

  Size node_count() const { return node_count_; }

  /// Server of \p owner at level k (in [2, L+1]) in sibling slot
  /// \p sibling (0..2); kInvalidNode when the sibling square holds no node.
  NodeId server_of(NodeId owner, Level k, Size sibling) const;

  /// Entries stored per node (load census, comparable to CHLM's).
  std::vector<Size> load_vector() const;

  const GridHierarchy& grid() const { return grid_; }

 private:
  friend class GlsHandoffTracker;

  /// Nodes of one grid cell, paired with their successor-rule ids.
  using Bucket = std::vector<std::pair<NodeId, NodeId>>;

  /// Assignment slots per owner: (k - 2) * 3 + sibling for k in [2, L+1].
  Size row_width() const { return (grid_.top_level() - 1) * kGlsSiblings; }

  GridHierarchy grid_;
  Size node_count_ = 0;
  /// assignments_[owner * row_width() + (k-2)*3 + sibling].
  std::vector<NodeId> assignments_;
  /// buckets_[k][cx * cells_per_side + cy] for the level-k cells, k in
  /// [1, L]; every rebuild() clears the buckets in place (capacity kept).
  std::vector<std::vector<Bucket>> buckets_;
};

/// Handoff/update accounting for GLS under mobility, with the same pricing
/// as the CHLM HandoffEngine so the two are directly comparable: every
/// (owner, level, sibling) assignment that changes between ticks moves one
/// entry at BFS-hop cost.
class GlsHandoffTracker {
 public:
  explicit GlsHandoffTracker(GridHierarchy grid);

  void prime(const std::vector<geom::Vec2>& positions, std::span<const NodeId> ids, Time t);

  struct TickResult {
    PacketCount handoff_packets = 0;  ///< server -> server transfers
    PacketCount update_packets = 0;   ///< owner -> server (server slot was empty)
    Size entries_moved = 0;
  };

  TickResult update(const std::vector<geom::Vec2>& positions, const graph::Graph& g0,
                    std::span<const NodeId> ids, Time t);

  Time elapsed() const { return last_time_ - start_time_; }
  Size node_count() const { return service_.node_count(); }

  PacketCount total_handoff() const { return total_handoff_; }
  PacketCount total_update() const { return total_update_; }

  /// Packet transmissions per node per second.
  double handoff_rate() const;
  double update_rate() const;
  double combined_rate() const;

 private:
  PacketCount price(const graph::Graph& g0, NodeId from, NodeId to);

  GlsService service_;
  std::vector<NodeId> prev_;  ///< the previous tick's assignments_, swapped in
  Time start_time_ = 0.0;
  Time last_time_ = 0.0;
  bool primed_ = false;
  PacketCount total_handoff_ = 0;
  PacketCount total_update_ = 0;
  graph::BfsPairScratch pair_bfs_;
};

}  // namespace manet::lm
