#pragma once

#include <functional>
#include <memory>

#include "cluster/alca.hpp"
#include "cluster/hierarchy.hpp"
#include "geom/vec2.hpp"

/// \file hierarchy_builder.hpp
/// Recursive construction of the clustered hierarchy (paper Section 2.1):
/// run the election on level k, promote the clusterheads to level k+1,
/// connect two level-(k+1) vertices when their level-k clusters are adjacent,
/// and repeat until the topology stops aggregating (single vertex, or no
/// reduction — the latter happens only on degenerate/disconnected levels).

namespace manet::cluster {

/// Builder configuration.
struct HierarchyOptions {
  /// Hard cap on clustered levels above level 0 (safety bound; the natural
  /// termination is aggregation to a single vertex). 32 >> log2 of any n
  /// this library targets.
  Level max_levels = 32;

  /// Level-k (k >= 1) link model. When false, two clusterheads are linked
  /// iff their member clusters are adjacent in the level-(k-1) topology —
  /// the naive graph-contraction rule. That rule is hair-triggered under
  /// mobility (a single boundary link flips cluster adjacency), which
  /// violates the paper's cluster-dynamics model: Section 5.3.1 requires a
  /// level-k link to persist until the heads drift apart by Theta(h_k), and
  /// eq. (7) writes the threshold explicitly as Theta(R_TX * sqrt(c_k)).
  /// When true (and positions are supplied to build()), level-k links
  /// connect heads within beta * R_TX * sqrt(mean c_k) meters — the
  /// geometric hysteresis the analysis assumes.
  bool geometric_links = false;
  double beta = 1.0;       ///< link-range multiplier for geometric links
  double tx_radius = 1.0;  ///< R_TX used by the geometric threshold
};

/// The per-level step of HierarchyBuilder::grow(): write into \p out the
/// election of level \p k (\p level.topo over \p level.ids).
using LevelElection =
    std::function<void(Level k, const LevelView& level, ElectionResult& out)>;

class HierarchyBuilder {
 public:
  using Options = HierarchyOptions;

  /// Uses ALCA election (the paper's assumption) unless an alternative
  /// algorithm is supplied.
  explicit HierarchyBuilder(Options options = {});
  explicit HierarchyBuilder(std::shared_ptr<const ElectionAlgorithm> algorithm,
                            Options options = {});

  /// Build the full hierarchy over \p g from scratch: grow() with this
  /// builder's election algorithm. \p ids assigns the (unique) node
  /// identifiers that drive elections; pass an empty span to use the
  /// identity assignment id(v) = v. \p positions (level-0 node coordinates)
  /// are required when Options::geometric_links is set and ignored
  /// otherwise.
  Hierarchy build(const graph::Graph& g, std::span<const NodeId> ids = {},
                  std::span<const geom::Vec2> positions = {}) const;

  /// The recursion of paper Section 2.1, shared by build() and
  /// HierarchyRepairer::repair(), which differ only in \p elect. Resets
  /// \p out to level 0 over (\p g, \p ids); then, per level k, runs
  /// \p elect and promotes its heads to level k+1: the dense parent map,
  /// the next level's ids/node0, its geometric or contraction links, and the
  /// children/members/ancestor rollups. Stops at a single vertex, at an
  /// election that does not aggregate (its result is cleared), or at
  /// Options::max_levels. Every output table is a pure function of (g, ids,
  /// positions, options) and the elections. \p ids must be unique; grow()
  /// does not check it.
  static void grow(const graph::Graph& g, std::span<const NodeId> ids,
                   std::span<const geom::Vec2> positions, const Options& options,
                   const LevelElection& elect, Hierarchy& out);

  const ElectionAlgorithm& algorithm() const { return *algorithm_; }

 private:
  std::shared_ptr<const ElectionAlgorithm> algorithm_;
  Options options_;
};

}  // namespace manet::cluster
