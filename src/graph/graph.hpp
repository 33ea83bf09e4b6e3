#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

/// \file graph.hpp
/// Immutable undirected graph in CSR (compressed sparse row) layout.
///
/// Used for the level-0 unit-disk graph G = (V, E) and, after relabeling
/// clusterheads to dense indices, for every level-k cluster topology
/// G_k = (V_k, E_k) of the hierarchy (paper Section 1.1). Immutability is
/// deliberate: topologies are snapshots produced by the samplers, and the
/// cluster differ compares whole snapshots rather than mutating in place.

namespace manet::graph {

/// Undirected edge as an ordered pair (u < v).
using Edge = std::pair<NodeId, NodeId>;

class Graph {
 public:
  /// Empty graph with \p n isolated vertices.
  explicit Graph(Size n = 0);

  /// Build from an edge list. Duplicate and self edges are rejected by
  /// MANET_CHECK (callers produce canonical u < v lists).
  Graph(Size n, std::span<const Edge> edges);

  /// Rebuild in place from an edge list, with the same validation as the
  /// constructor. Internal buffers keep their capacity, so per-tick snapshot
  /// producers (the unit-disk builder, the fault-plane edge stripper) do not
  /// reallocate once warmed up. Linear on a canonical sorted list plus a
  /// short unsorted tail (the unit-disk builder's bridges): only the tail is
  /// sorted and merged in, and the CSR scatter of a sorted list lands every
  /// neighbor list sorted. Any order is accepted; a shuffled list pays one
  /// O(E log E) sort.
  void assign(Size n, std::span<const Edge> edges);

  Size vertex_count() const noexcept { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  Size edge_count() const noexcept { return edges_.size(); }

  /// Neighbors of \p v in ascending id order. Defined here so the BFS,
  /// A*, repair and routing loops inline it once per expanded vertex.
  std::span<const NodeId> neighbors(NodeId v) const {
    MANET_CHECK(v < vertex_count());
    return {adjacency_.data() + offsets_[v],
            static_cast<std::size_t>(offsets_[v + 1] - offsets_[v])};
  }

  Size degree(NodeId v) const { return neighbors(v).size(); }

  /// O(log degree) membership test.
  bool has_edge(NodeId u, NodeId v) const;

  /// Canonical (u < v) edge list, lexicographically sorted.
  std::span<const Edge> edges() const noexcept { return edges_; }

  /// Mean vertex degree (2|E| / |V|); 0 for the empty graph.
  double average_degree() const noexcept;

 private:
  std::vector<std::uint32_t> offsets_;  // size n+1
  std::vector<NodeId> adjacency_;       // size 2|E|
  std::vector<Edge> edges_;             // canonical sorted edge list
};

}  // namespace manet::graph
