#include "cluster/hierarchy_builder.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/check.hpp"
#include "geom/spatial_grid.hpp"

namespace manet::cluster {

HierarchyBuilder::HierarchyBuilder(Options options)
    : algorithm_(std::make_shared<Alca>()), options_(options) {}

HierarchyBuilder::HierarchyBuilder(std::shared_ptr<const ElectionAlgorithm> algorithm,
                                   Options options)
    : algorithm_(std::move(algorithm)), options_(options) {
  MANET_CHECK(algorithm_ != nullptr);
}

Hierarchy HierarchyBuilder::build(const graph::Graph& g, std::span<const NodeId> ids,
                                  std::span<const geom::Vec2> positions) const {
  if (!ids.empty()) {
    std::vector<NodeId> sorted(ids.begin(), ids.end());
    std::sort(sorted.begin(), sorted.end());
    MANET_CHECK_MSG(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
                    "node ids must be unique");
  }
  Hierarchy h;
  grow(g, ids, positions, options_,
       [this](Level, const LevelView& level, ElectionResult& out) {
         out = algorithm_->elect(level.topo, level.ids);
       },
       h);
  return h;
}

namespace {

/// Level-(k+1) links between the heads promoted out of \p cur (\p next
/// already carries their ids and node0).
graph::Graph link_next_level(const LevelView& cur, const LevelView& next, Size n,
                             const HierarchyOptions& options,
                             std::span<const geom::Vec2> positions) {
  const Size n_next = next.ids.size();
  std::vector<graph::Edge> next_edges;
  if (options.geometric_links) {
    // Geometric hysteresis (paper eq. (7)): heads within
    // beta * R_TX * sqrt(mean aggregation) of one another are neighbors.
    const double mean_ck = static_cast<double>(n) / static_cast<double>(n_next);
    const double range = options.beta * options.tx_radius * std::sqrt(mean_ck);
    // Candidate pairs come from a grid over the heads' level-0 positions:
    // with a cell side >= range the 3x3 stencil reaches every pair in
    // range, and the grid applies the symmetric test distance2 <= range^2,
    // so the edge set is the all-pairs scan's. The cell side never drops
    // below R_TX: a tiny beta would otherwise push cell coordinates past
    // the grid's 32-bit key packing.
    std::vector<geom::Vec2> head_pos(n_next);
    for (Size i = 0; i < n_next; ++i) head_pos[i] = positions[next.node0[i]];
    geom::SpatialGrid grid(std::max(range, options.tx_radius));
    grid.rebuild(head_pos);
    grid.for_each_neighbor(range, 0, grid.cell_count(),
                           [&](NodeId a, std::span<const NodeId> nbrs) {
                             for (const NodeId b : nbrs) {
                               if (a < b) next_edges.emplace_back(a, b);
                             }
                           });
    std::sort(next_edges.begin(), next_edges.end());
  } else {
    // Graph contraction: clusters adjacent in the level-k topology.
    for (const auto& [a, b] : cur.topo.edges()) {
      NodeId pa = cur.parent[a];
      NodeId pb = cur.parent[b];
      if (pa == pb) continue;
      if (pa > pb) std::swap(pa, pb);
      next_edges.emplace_back(pa, pb);
    }
    std::sort(next_edges.begin(), next_edges.end());
    next_edges.erase(std::unique(next_edges.begin(), next_edges.end()), next_edges.end());
  }
  return graph::Graph(n_next, next_edges);
}

/// Counting placement of the indices [0, keys.size()) into \p rows by key:
/// row c lists, ascending, every i with keys[i] == c.
void place_rows(std::span<const NodeId> keys, Size row_count, ClusterRows& rows) {
  rows.start.assign(row_count + 1, 0);
  for (const NodeId key : keys) ++rows.start[key];
  std::partial_sum(rows.start.begin(), rows.start.end(), rows.start.begin());
  // start[c] now ends row c; a descending scan fills each row back to front,
  // which leaves it ascending and start[c] at its first entry.
  rows.items.resize(keys.size());
  for (Size i = keys.size(); i-- > 0;) rows.items[--rows.start[keys[i]]] = static_cast<NodeId>(i);
}

}  // namespace

void HierarchyBuilder::grow(const graph::Graph& g, std::span<const NodeId> ids,
                            std::span<const geom::Vec2> positions, const Options& options,
                            const LevelElection& elect, Hierarchy& out) {
  const Size n = g.vertex_count();
  MANET_CHECK(n > 0);
  MANET_CHECK_MSG(ids.empty() || ids.size() == n, "id assignment size mismatch");
  if (options.geometric_links) {
    MANET_CHECK_MSG(positions.size() == n,
                    "geometric level-k links need level-0 node positions");
    MANET_CHECK_MSG(options.beta > 0.0 && options.tx_radius > 0.0,
                    "geometric level-k links need a positive range (beta, tx_radius > 0)");
  }
  Hierarchy& h = out;
  h.levels_.clear();

  // Level 0: the physical topology.
  LevelView base;
  base.topo = g;
  base.node0.resize(n);
  std::iota(base.node0.begin(), base.node0.end(), NodeId{0});
  base.ids = ids.empty() ? base.node0 : std::vector<NodeId>(ids.begin(), ids.end());
  h.levels_.push_back(std::move(base));

  // Recursive promotion.
  for (Level k = 0; k < options.max_levels; ++k) {
    LevelView& cur = h.levels_[k];
    if (cur.vertex_count() <= 1) break;

    elect(k, cur, cur.election);
    const auto& heads = cur.election.clusterheads;
    const Size n_next = heads.size();
    if (n_next == cur.vertex_count()) {
      // No aggregation (every vertex self-heads; edgeless or fully stalled
      // level). Clear the election and stop.
      cur.election = ElectionResult{};
      break;
    }

    // Dense reindex: level-k head vertex -> level-(k+1) vertex.
    std::vector<NodeId> promote(cur.vertex_count(), kInvalidNode);
    for (Size i = 0; i < n_next; ++i) promote[heads[i]] = static_cast<NodeId>(i);
    cur.parent.resize(cur.vertex_count());
    for (NodeId u = 0; u < cur.vertex_count(); ++u) {
      cur.parent[u] = promote[cur.election.head_of[u]];
      MANET_CHECK(cur.parent[u] != kInvalidNode);
    }

    LevelView next;
    next.ids.resize(n_next);
    next.node0.resize(n_next);
    for (Size i = 0; i < n_next; ++i) {
      next.ids[i] = cur.ids[heads[i]];
      next.node0[i] = cur.node0[heads[i]];
    }
    next.topo = link_next_level(cur, next, n, options, positions);

    // Rollups: each level-0 node's cluster one level up, then the rows.
    next.ancestor.resize(n);
    for (NodeId v = 0; v < n; ++v) next.ancestor[v] = cur.parent[k == 0 ? v : cur.ancestor[v]];
    place_rows(cur.parent, n_next, next.children);
    place_rows(next.ancestor, n_next, next.members0);
    h.levels_.push_back(std::move(next));
  }

  // Terminal level has no election/parent data.
  LevelView& top = h.levels_.back();
  top.parent.assign(top.vertex_count(), kInvalidNode);
}

}  // namespace manet::cluster
