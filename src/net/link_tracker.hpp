#pragma once

#include <vector>

#include "common/metrics.hpp"
#include "graph/graph.hpp"
#include "sim/shard.hpp"

/// \file link_tracker.hpp
/// Link-state change detection between consecutive topology snapshots.
///
/// The paper's eq. (4) claims the per-node frequency of level-0 link state
/// change events is f_0 = Theta(1) under random waypoint at constant density.
/// LinkTracker diffs canonical edge lists of consecutive snapshots, reports
/// which links came up / went down, and accumulates the running event rate
/// needed by experiment E4.

namespace manet::net {

struct LinkDelta {
  std::vector<graph::Edge> up;    ///< links present now, absent before
  std::vector<graph::Edge> down;  ///< links absent now, present before

  Size event_count() const { return up.size() + down.size(); }
};

/// Sharded set-difference over canonical sorted edge lists: `a \ b`,
/// bit-identical to std::set_difference at any shard and thread count. The
/// left list is cut into contiguous shard slices; each shard narrows the
/// right list to the value range its slice can cancel against (binary
/// search) and diffs independently; outputs concatenate in shard index
/// order, which is exactly std::set_difference's output order. Owns per-shard scratch so
/// steady-state diffs allocate nothing.
class ShardedEdgeDiff {
 public:
  /// Append a \ b to \p out (not cleared), sharded over \p executor.
  void run(std::span<const graph::Edge> a, std::span<const graph::Edge> b,
           const sim::ShardExecutor& executor, std::vector<graph::Edge>& out);

 private:
  std::vector<std::vector<graph::Edge>> shard_out_;
};

class LinkTracker {
 public:
  /// Prime the tracker with the initial topology at time \p t0.
  LinkTracker(const graph::Graph& initial, Time t0);

  /// Diff \p current (at time \p t) against the previous snapshot, update
  /// running counters, and return the delta. \p t must be >= the prior time.
  LinkDelta update(const graph::Graph& current, Time t);

  /// Same, writing into \p delta (cleared first, capacity retained). The
  /// per-tick loop uses this so steady-state link diffing is allocation-free.
  void update_into(const graph::Graph& current, Time t, LinkDelta& delta);

  /// Advance to \p t when the caller has proven the edge set is unchanged
  /// (the change-gated tick pipeline's skip path): no diff, no copy —
  /// identical end state to update() against the same graph.
  void advance_unchanged(Time t);

  /// Total link-state change events observed so far.
  Size total_events() const { return total_events_; }

  /// Observation window covered so far (seconds).
  Time elapsed() const { return last_time_ - start_time_; }

  /// f_0 estimate: events per node per second. A link event involves two
  /// endpoints; following the paper's accounting (eq. (4): |E| * mu / (|V| *
  /// R_TX) events "per node"), each link event is counted once and divided
  /// by |V|.
  double events_per_node_per_second() const;

  /// Publish live counters (net.link_up / net.link_down) and the net.f0
  /// gauge into \p registry on every update. nullptr turns publishing off.
  void set_metrics(common::MetricsRegistry* registry);

  /// Shard the two edge-set differences of update_into() over \p executor.
  /// Until this is called, and again after set_parallel(nullptr), the
  /// tracker uses sim::kInlineExecutor (one shard on the calling thread).
  /// Per-shard outputs concatenate in shard index order, so the executor
  /// never changes a delta.
  void set_parallel(sim::ShardExecutor* executor) noexcept {
    par_ = executor != nullptr ? executor : &sim::kInlineExecutor;
  }

 private:
  std::vector<graph::Edge> prev_edges_;
  Size node_count_;
  Time start_time_;
  Time last_time_;
  Size total_events_ = 0;
  common::MetricsRegistry* metrics_ = nullptr;
  common::Counter* up_c_ = nullptr;
  common::Counter* down_c_ = nullptr;
  const sim::ShardExecutor* par_ = &sim::kInlineExecutor;
  ShardedEdgeDiff diff_;
};

/// Set-difference of two canonical sorted edge lists (a \ b): the
/// reference that ShardedEdgeDiff reproduces.
std::vector<graph::Edge> edge_difference(std::span<const graph::Edge> a,
                                         std::span<const graph::Edge> b);

}  // namespace manet::net
