#pragma once

#include <cstdint>
#include <vector>

#include "common/arena.hpp"
#include "geom/spatial_grid.hpp"
#include "geom/vec2.hpp"
#include "graph/graph.hpp"
#include "net/link_tracker.hpp"
#include "net/radio.hpp"
#include "sim/node_state.hpp"
#include "sim/shard.hpp"

/// \file unit_disk.hpp
/// Unit-disk graph construction: G = (V, E) with e = (u, v) in E iff
/// |p_u - p_v| <= R_TX. Built through a spatial hash grid, so topology
/// resampling is O(|V| + |E|) expected — the inner loop of every mobile
/// experiment.
///
/// Two entry points are provided:
///   - build():  stateless full rescan (the historical path);
///   - update(): incremental delta maintenance. Only nodes whose position
///     changed since the previous update() are re-evaluated, and the builder
///     reports the resulting edge ups/downs plus whether the graph changed
///     at all. The edge set is maintained *exactly* (membership is always
///     decided by the true current distance), so update() is bit-identical
///     to a full rebuild at every tick — the change-gated tick pipeline in
///     exp/simulation.cpp relies on this.

namespace manet::net {

/// One-shot build (allocates its own grid).
graph::Graph build_unit_disk_graph(const std::vector<geom::Vec2>& positions, double tx_radius);

/// Reusable builder: keeps the spatial grid, adjacency and edge buffers
/// across ticks.
class UnitDiskBuilder {
 public:
  /// \p ensure_connected: when the sampled unit-disk graph fragments
  /// (mobile boundary nodes drift out of range), bridge every minor
  /// component to the giant one through its geometrically closest node
  /// pair. This enforces the paper's standing assumption that G is
  /// connected (Section 1.2) — physically, a node briefly out of range
  /// still reaches the network through its nearest neighbor at a higher
  /// power level. The number of augmented edges per snapshot is reported
  /// so experiments can verify the correction stays marginal.
  ///
  /// \p slack_factor: grid-anchoring slack for the incremental path, as a
  /// fraction of R_TX. A node's grid bucket is refreshed only once it has
  /// drifted more than slack from its anchored position; neighbor queries
  /// widen their radius by the same slack so no candidate is ever missed.
  /// The slack trades grid-maintenance churn against slightly larger
  /// candidate sets — it never affects the produced edge set, which is
  /// always decided by exact current distances.
  explicit UnitDiskBuilder(double tx_radius, bool ensure_connected = false,
                           double slack_factor = 0.5);

  /// Full rescan. Invalidates any incremental state, so interleaving
  /// build() and update() is safe (the next update() re-seeds itself).
  graph::Graph build(const std::vector<geom::Vec2>& positions);

  /// Incremental maintenance: re-evaluates only nodes whose position
  /// changed since the last update() (exact comparison — bit-identity
  /// forbids a movement threshold here) and returns the maintained graph.
  /// The first call, a node-count change, or a call after build() seeds a
  /// full rescan. When strictly more than a quarter of the nodes moved
  /// (the exact test 4 * moved > n, no integer-division truncation), the
  /// builder falls back to a full rescan internally (cheaper than point
  /// updates, still emitting an exact delta).
  const graph::Graph& update(const std::vector<geom::Vec2>& positions);

  /// Run the heavy update() phases — full-rescan neighborhoods,
  /// per-moved-node neighborhood recomputation, edge-buffer refresh,
  /// fallback edge diffing — over \p executor's shards. Until this is
  /// called, and again after set_parallel(nullptr), the builder uses
  /// sim::kInlineExecutor (one shard on the calling thread). Every sharded
  /// phase reproduces the canonical emission order, so the maintained graph
  /// and the ups/downs delta are bit-identical at any shard count x any
  /// thread count (the executor's shard_count() is a pure throughput knob).
  void set_parallel(sim::ShardExecutor* executor) noexcept {
    par_ = executor != nullptr ? executor : &sim::kInlineExecutor;
  }

  /// True when the last update() took a full-rescan path (a (re)seed or the
  /// exact > n/4 fallback) rather than point updates. Test hook for the
  /// rescan-threshold boundary contract.
  bool last_full_rescan() const { return full_rescan_; }

  /// The graph maintained by update(). Valid until the next build()/update().
  const graph::Graph& graph() const { return augmented_ ? aug_graph_ : raw_graph_; }

  /// Whether the last update() changed the edge set (including augmentation
  /// bridges). The first update() after a (re)seed reports true.
  bool changed() const { return changed_; }

  /// Nodes whose position changed in the last update().
  Size last_moved_nodes() const { return last_moved_; }

  /// Raw unit-disk edge ups/downs from the last update() (canonical u < v
  /// pairs; augmentation bridges are excluded). After an internal full
  /// rescan these are the exact diff against the previous edge set.
  const std::vector<graph::Edge>& links_up() const { return ups_; }
  const std::vector<graph::Edge>& links_down() const { return downs_; }

  double tx_radius() const { return tx_radius_; }

  /// Edges added by connectivity augmentation in the last build()/update()
  /// snapshot (update() carries the standing count across unchanged ticks).
  Size last_augmented_edges() const { return last_augmented_; }

  /// The SoA node state maintained by the incremental path (committed
  /// positions, last-step displacement, anchored grid buckets). Valid while
  /// the incremental state is seeded — i.e. after any update().
  const sim::NodeStateSoA& node_state() const { return state_; }

 private:
  /// Re-seed all incremental state from a full rescan of \p positions.
  void full_reset(const std::vector<geom::Vec2>& positions);
  /// Rebuild raw_graph_ (when \p raw_dirty) and the augmentation layer;
  /// sets changed_ / last_augmented_.
  void refresh_graphs(bool raw_dirty);
  /// Append the component bridges for \p raw to \p bridges (closest-pair
  /// rule; shared by the full and incremental paths).
  void compute_bridges(const std::vector<geom::Vec2>& positions, const graph::Graph& raw,
                       std::vector<graph::Edge>& bridges) const;
  /// Recompute moved node \p u's exact neighborhood and diff it against the
  /// maintained adjacency, appending to \p ups / \p downs (the point-update
  /// inner body; pure per-u given phase-1 state, so shards run it
  /// concurrently with per-shard scratch and output buffers).
  void recompute_moved(NodeId u, std::vector<NodeId>& nbr, std::vector<NodeId>& fresh,
                       std::vector<graph::Edge>& ups, std::vector<graph::Edge>& downs) const;

  double tx_radius_;
  bool ensure_connected_;
  double slack_;
  geom::SpatialGrid grid_;
  std::vector<graph::Edge> edge_buffer_;
  Size last_augmented_ = 0;

  /// Refresh state_'s anchored-cell array from the (just rebuilt) grid,
  /// sharded over par_ (independent per-node writes).
  void refresh_cells();

  // --- Incremental state (valid while inc_valid_) ---
  bool inc_valid_ = false;
  /// Positions at the last update(), SoA (hot distance-loop operands), plus
  /// last-step displacement and anchored grid buckets. Replaces the old AoS
  /// cur_pos_ mirror; cold paths bridge back through write_back().
  sim::NodeStateSoA state_;
  std::vector<geom::Vec2> anchor_pos_;     ///< positions the grid is built over
  std::vector<geom::Vec2> pos_scratch_;    ///< AoS bridge for cold paths
  std::vector<std::vector<NodeId>> adj_;   ///< sorted raw adjacency lists
  std::vector<std::uint8_t> stale_;        ///< drifted > slack from anchor
  std::vector<NodeId> stale_list_;
  std::vector<std::uint8_t> moved_now_;
  graph::Graph raw_graph_;
  graph::Graph aug_graph_;
  std::vector<graph::Edge> bridges_;
  bool augmented_ = false;
  bool changed_ = false;
  bool full_rescan_ = false;
  Size last_moved_ = 0;
  std::vector<graph::Edge> ups_, downs_;
  // Scratch reused across ticks so steady-state updates allocate nothing.
  std::vector<NodeId> moved_scratch_;
  std::vector<graph::Edge> old_edges_scratch_, bridge_scratch_, combine_scratch_;
  // Sharded-update state: the executor plus per-shard output and scratch
  // buffers, reused across ticks like the scratch above.
  const sim::ShardExecutor* par_ = &sim::kInlineExecutor;
  std::vector<Size> shard_offsets_;  ///< per-shard edge_buffer_ offsets
  std::vector<std::vector<graph::Edge>> shard_ups_, shard_downs_;
  std::vector<std::vector<NodeId>> shard_nbr_, shard_fresh_;
  ShardedEdgeDiff diff_;
  /// Bump arena for the augmentation path's transients (component sizes,
  /// giant-component node list); rewound at the top of each build()/update().
  /// Mutable because compute_bridges() is logically const.
  mutable common::ArenaScratch arena_;
};

}  // namespace manet::net
