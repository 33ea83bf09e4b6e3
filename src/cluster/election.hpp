#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

/// \file election.hpp
/// Clusterhead election interface shared by the ALCA (Baker & Ephremides,
/// paper ref [1]) and max-min d-hop (Amis et al., paper ref [8]) algorithms.
///
/// An election runs over one level of the hierarchy: a graph whose dense
/// vertices carry the *original* node IDs of the clusterheads they represent
/// (level 0: identity). ID order decides elections, exactly as in the paper.

namespace manet::cluster {

struct ElectionResult {
  /// For each vertex u: the vertex index (same level, dense) of the
  /// clusterhead u affiliates with. head_of[h] == h for every clusterhead.
  std::vector<NodeId> head_of;

  /// Dense vertex indices of the elected clusterheads, ascending.
  std::vector<NodeId> clusterheads;

  /// ALCA state of each vertex (Fig. 3 of the paper): the number of
  /// *neighbors* that elected it (self-election not counted). Algorithms
  /// without a natural vote notion (max-min) report affiliation counts.
  std::vector<std::uint32_t> votes;

  Size cluster_count() const { return clusterheads.size(); }
};

/// (id, dense vertex) pairs sorted by id: the id -> vertex lookup of one
/// level. Ids are unique but not dense, so the lookup is a binary search.
using IdIndex = std::vector<std::pair<NodeId, NodeId>>;

/// Fill \p out with the sorted index of \p ids (capacity kept).
inline void index_ids(std::span<const NodeId> ids, IdIndex& out) {
  out.clear();
  out.reserve(ids.size());
  for (NodeId v = 0; v < ids.size(); ++v) out.emplace_back(ids[v], v);
  std::sort(out.begin(), out.end());
}

/// Dense vertex of \p id in \p index; kInvalidNode when absent.
inline NodeId vertex_of(const IdIndex& index, NodeId id) {
  const auto it = std::lower_bound(index.begin(), index.end(), std::pair{id, NodeId{0}});
  return it != index.end() && it->first == id ? it->second : kInvalidNode;
}

/// Abstract election algorithm, applied recursively per hierarchy level.
class ElectionAlgorithm {
 public:
  virtual ~ElectionAlgorithm() = default;

  /// \p ids maps dense vertices to original node IDs (strictly unique).
  virtual ElectionResult elect(const graph::Graph& g,
                               std::span<const NodeId> ids) const = 0;

  virtual const char* name() const = 0;
};

}  // namespace manet::cluster
