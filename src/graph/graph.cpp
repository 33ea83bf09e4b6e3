#include "graph/graph.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace manet::graph {

Graph::Graph(Size n) : offsets_(n + 1, 0) {}

Graph::Graph(Size n, std::span<const Edge> edges) { assign(n, edges); }

void Graph::assign(Size n, std::span<const Edge> edges) {
  edges_.assign(edges.begin(), edges.end());
  // Sort only what is out of order: the longest sorted prefix stays, the
  // rest is sorted and merged in. The merge buffers the smaller range, so a
  // sorted list plus a t-edge tail (the unit-disk builder's appended
  // bridges) costs O(E + t log t) instead of a full O(E log E) sort.
  const auto tail = std::is_sorted_until(edges_.begin(), edges_.end());
  if (tail != edges_.end()) {
    std::sort(tail, edges_.end());
    std::inplace_merge(edges_.begin(), tail, edges_.end());
  }
  for (const auto& [u, v] : edges_) {
    MANET_CHECK_MSG(u < v, "edges must be canonical (u < v), no self loops");
    MANET_CHECK_MSG(v < n, "edge endpoint out of range");
  }
  MANET_CHECK_MSG(std::adjacent_find(edges_.begin(), edges_.end()) == edges_.end(),
                  "duplicate edge in edge list");

  // Two-pass CSR build: count degrees, prefix-sum, scatter.
  offsets_.assign(n + 1, 0);
  for (const auto& [u, v] : edges_) {
    ++offsets_[u + 1];
    ++offsets_[v + 1];
  }
  for (Size i = 1; i <= n; ++i) offsets_[i] += offsets_[i - 1];
  adjacency_.resize(2 * edges_.size());
  // The scatter leaves every list sorted, with no per-vertex sort: vertex x
  // receives each u < x from an edge (u, x) and each w > x from an edge
  // (x, w). The lexicographic walk visits every (u, x) before any (x, w),
  // because u < x, and each of the two groups in ascending neighbor order.
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [u, v] : edges_) {
    adjacency_[cursor[u]++] = v;
    adjacency_[cursor[v]++] = u;
  }
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  if (u == v) return false;
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

double Graph::average_degree() const noexcept {
  const Size n = vertex_count();
  if (n == 0) return 0.0;
  return 2.0 * static_cast<double>(edge_count()) / static_cast<double>(n);
}

}  // namespace manet::graph
