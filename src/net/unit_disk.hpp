#pragma once

#include <vector>

#include "geom/spatial_grid.hpp"
#include "geom/vec2.hpp"
#include "graph/graph.hpp"
#include "net/link_tracker.hpp"
#include "net/radio.hpp"
#include "sim/shard.hpp"

/// \file unit_disk.hpp
/// Unit-disk graph construction: G = (V, E) with e = (u, v) in E iff
/// |p_u - p_v| <= R_TX. Built through a spatial hash grid, so topology
/// resampling is O(|V| + |E|) expected — the inner loop of every mobile
/// experiment.
///
/// Two entry points are provided:
///   - build():  stateless full rescan (the reference path): the same
///     rescan as update(), with the maintained state dropped afterwards;
///   - update(): change-gated maintenance. A tick on which no position
///     changed (exact comparison) does no work and reports changed() false;
///     any other tick rescans every node, sharded, and reports the exact
///     raw-edge ups/downs against the previous rescan. Every mobility model
///     moves every node on every tick, so a per-moved-node path would never
///     run. update() is bit-identical to a full rebuild at every tick — the
///     change-gated tick pipeline in exp/simulation.cpp relies on this.
///
/// A rescan labels the components once, over its per-node adjacency lists;
/// with ensure_connected and more than one component, it finds each minor
/// component's bridge through the spatial grid (SpatialGrid::nearest from
/// each member) and then assembles the one graph graph() returns, bridges
/// included. No raw-only graph is assembled beside it.

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
  explicit UnitDiskBuilder(double tx_radius, bool ensure_connected = false);

  /// Full rescan. Invalidates the update() state, so interleaving build()
  /// and update() is safe (the next update() re-seeds itself; on the
  /// positions of this build() it seeds from this rescan without another).
  graph::Graph build(const std::vector<geom::Vec2>& positions);

  /// Change-gated maintenance: returns the graph of \p positions. When no
  /// position changed since the last update() (exact comparison —
  /// bit-identity forbids a movement threshold here) nothing is recomputed;
  /// otherwise every node is rescanned and the raw-edge delta is diffed
  /// against the previous rescan. The first call, a node-count change, or a
  /// call after build() seeds the state (changed() true, empty delta).
  const graph::Graph& update(const std::vector<geom::Vec2>& positions);

  /// Run the rescan's neighborhoods, edge-buffer fill and edge diff over
  /// \p executor's shards. Until this is called, and again after
  /// set_parallel(nullptr), the builder uses sim::kInlineExecutor (one shard
  /// on the calling thread). Every sharded phase reproduces the canonical
  /// emission order, so the maintained graph and the ups/downs delta are
  /// bit-identical at any shard count x any thread count (the executor's
  /// shard_count() is a pure throughput knob).
  void set_parallel(sim::ShardExecutor* executor) noexcept {
    par_ = executor != nullptr ? executor : &sim::kInlineExecutor;
  }

  /// True when the last update() rescanned: a (re)seed or any moved node.
  bool last_full_rescan() const { return full_rescan_; }

  /// The graph of the last rescan, bridges included. Valid until the next
  /// build()/update().
  const graph::Graph& graph() const { return graph_; }

  /// Whether the last update() changed the edge set (including augmentation
  /// bridges). The first update() after a (re)seed reports true.
  bool changed() const { return changed_; }

  /// Nodes whose position changed in the last update().
  Size last_moved_nodes() const { return last_moved_; }

  /// Raw unit-disk edge ups/downs from the last update(): the exact diff
  /// against the previous edge set, as canonical sorted u < v pairs
  /// (augmentation bridges are excluded).
  const std::vector<graph::Edge>& links_up() const { return ups_; }
  const std::vector<graph::Edge>& links_down() const { return downs_; }

  double tx_radius() const { return tx_radius_; }

  /// Edges added by connectivity augmentation in the last build()/update()
  /// snapshot (update() carries the standing count across unchanged ticks).
  Size last_augmented_edges() const { return last_augmented_; }

 private:
  /// Rebuild the grid, adjacency, raw edges, bridges and graph from
  /// \p positions (sharded over par_); keeps the previous bridge set in
  /// prev_bridges_.
  void rescan(const std::vector<geom::Vec2>& positions);
  /// Label the components of adj_ and fill bridges_ with one closest-pair
  /// bridge from each minor component to the giant one: the first minimum
  /// in (u, v) id order, as a scan over every such pair would pick it.
  void compute_bridges(const std::vector<geom::Vec2>& positions);

  double tx_radius_;
  bool ensure_connected_;
  geom::SpatialGrid grid_;
  /// Canonical sorted raw edges of the last rescan.
  std::vector<graph::Edge> edge_buffer_;
  Size last_augmented_ = 0;

  // --- update() state (valid while seeded_) ---
  bool seeded_ = false;
  bool built_ = false;  ///< the state is the last build()'s rescan, not yet seeded
  std::vector<geom::Vec2> last_pos_;      ///< positions of the last rescan
  std::vector<std::vector<NodeId>> adj_;  ///< sorted raw adjacency lists
  graph::Graph graph_;                    ///< raw edges plus bridges_
  std::vector<graph::Edge> bridges_;
  bool changed_ = false;
  bool full_rescan_ = false;
  Size last_moved_ = 0;
  std::vector<graph::Edge> ups_, downs_;
  // Previous tick's raw edges and bridges, swapped in rather than copied so
  // steady-state updates allocate nothing.
  std::vector<graph::Edge> prev_edges_, prev_bridges_;
  const sim::ShardExecutor* par_ = &sim::kInlineExecutor;
  std::vector<Size> shard_offsets_;  ///< per-shard edge_buffer_ offsets
  ShardedEdgeDiff diff_;
};

}  // namespace manet::net
