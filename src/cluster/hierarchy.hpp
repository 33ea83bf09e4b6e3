#pragma once

#include <span>
#include <vector>

#include "cluster/election.hpp"
#include "graph/graph.hpp"

/// \file hierarchy.hpp
/// The clustered hierarchy (paper Fig. 1): level-0 is the physical topology;
/// level-k nodes are the clusterheads elected at level k-1; level-k links
/// connect clusterheads whose member clusters are adjacent in the level-(k-1)
/// topology (two clusterheads are "1 level-k hop" apart exactly when such a
/// link exists, matching the paper's Section 5.2 event definitions).
///
/// Each level k >= 1 stores its rollups as flat rows on its own LevelView:
/// `ancestor` maps every level-0 node to its level-k cluster, and `children`
/// and `members0` are compressed rows (one offsets array plus one entry
/// array) holding each cluster's level-(k-1) children and level-0 members,
/// ascending. Level 0 has no rows: ancestor(v, 0) is v and members0(0, v) is
/// the one-element span {v}.
///
/// A Hierarchy is an immutable snapshot. Mobile experiments rebuild the
/// snapshot at every sampling tick and feed consecutive snapshots to the
/// differ (cluster/diff.hpp) and the LM handoff engine (lm/handoff.hpp).

namespace manet::cluster {

/// Compressed rows over a level's dense clusters: cluster c's entries are
/// items[start[c], start[c + 1]).
struct ClusterRows {
  std::vector<NodeId> start;  ///< |V_k| + 1 offsets into items
  std::vector<NodeId> items;

  std::span<const NodeId> row(NodeId c) const {
    return {items.data() + start[c], static_cast<std::size_t>(start[c + 1] - start[c])};
  }
};

/// One level of the hierarchy. Vertices are dense [0, |V_k|); `ids` maps
/// them back to *original* level-0 node identifiers, which is what election
/// compares and what cross-snapshot diffing keys on.
struct LevelView {
  graph::Graph topo;          ///< G_k = (V_k, E_k)
  std::vector<NodeId> ids;    ///< dense vertex -> original node id
  std::vector<NodeId> node0;  ///< dense vertex -> level-0 dense vertex of the head

  /// Election run on this level (produces level k+1). Empty (no heads) for
  /// the terminal level.
  ElectionResult election;

  /// For each dense vertex: dense index *at level k+1* of the cluster it
  /// belongs to; kInvalidNode on the terminal level.
  std::vector<NodeId> parent;

  /// Rollups of this level's clusters; empty on level 0.
  std::vector<NodeId> ancestor;  ///< level-0 node -> dense cluster at this level
  ClusterRows children;          ///< level-(k-1) vertices of each cluster
  ClusterRows members0;          ///< level-0 nodes of each cluster

  Size vertex_count() const { return topo.vertex_count(); }
};

class Hierarchy {
 public:
  /// Number of levels including level 0. A fully aggregated hierarchy over a
  /// connected graph ends with a single top-level vertex.
  Size level_count() const { return levels_.size(); }

  /// Highest level index (L in the paper when fully aggregated).
  Level top_level() const { return static_cast<Level>(levels_.size() - 1); }

  const LevelView& level(Level k) const;

  /// Number of level-k clusters == |V_k|.
  Size cluster_count(Level k) const { return level(k).vertex_count(); }

  /// Dense vertex index at level k of the level-k cluster containing level-0
  /// node v (ancestor chain). ancestor(v, 0) == v.
  NodeId ancestor(NodeId v, Level k) const;

  /// Original node id of v's level-k clusterhead.
  NodeId ancestor_id(NodeId v, Level k) const;

  /// Level-(k-1) dense vertices belonging to level-k cluster c (children),
  /// ascending; k >= 1.
  std::span<const NodeId> children(Level k, NodeId cluster) const;

  /// Level-0 nodes belonging to level-k cluster c, ascending.
  std::span<const NodeId> members0(Level k, NodeId cluster) const;

  /// Hierarchical address of v: original head ids from the top level down to
  /// v itself, e.g. {100, 85, 68, 63} for node 63 in the paper's Fig. 1.
  std::vector<NodeId> address(NodeId v) const;

 private:
  friend class HierarchyBuilder;

  std::vector<LevelView> levels_;
};

}  // namespace manet::cluster
