#pragma once

#include <string>
#include <vector>

#include "cluster/hierarchy.hpp"
#include "graph/graph.hpp"
#include "lm/server_select.hpp"

/// \file address.hpp
/// Hierarchical addresses (paper Section 2.1): packet forwarding in a strict
/// hierarchical network is driven solely by the destination's hierarchical
/// address — the chain of clusterhead ids from the top-level cluster down to
/// the node. Every node keeps an O(log|V|) hierarchical map of the clusters
/// it belongs to; two addresses agree on a prefix exactly as deep as the
/// lowest cluster the two nodes share.

namespace manet::lm {

struct HierAddress {
  /// Head ids from the top level down to the node itself
  /// (e.g. {100, 85, 68, 63} for node 63 in the paper's Fig. 1).
  std::vector<NodeId> chain;

  bool operator==(const HierAddress&) const = default;
};

/// Address of \p v under hierarchy \p h.
HierAddress make_address(const cluster::Hierarchy& h, NodeId v);

/// Dotted rendering, top-down: "100.85.68.63".
std::string to_string(const HierAddress& addr);

/// Lowest level (paper indexing) at which the two nodes share a cluster:
/// L+1-length chains agreeing on the first (top) j entries share the cluster
/// at level (top - j + 1). Returns the level k of the smallest shared
/// cluster, or the top level + 1 sentinel when even the top differs
/// (possible only across disconnected deployments).
Level lowest_common_level(const cluster::Hierarchy& h, NodeId u, NodeId v);

/// Size of the hierarchical map a node must store: one entry per sibling
/// cluster at every level of its chain (paper: O(log|V|)). Used by E7 to
/// verify the storage claim.
Size hierarchical_map_size(const cluster::Hierarchy& h, NodeId v);

/// Query cost in packet transmissions: \p requester looks up \p target by
/// probing its candidate level-k servers computed within the requester's
/// own level-k clusters, k ascending, until the true server is hit; then
/// the reply returns directly. Requires both nodes in the (connected)
/// level-0 graph \p g. Implements the paper's Section 6 observation that
/// query cost is on the order of the requester-target hop count.
PacketCount query_cost(const cluster::Hierarchy& h, const graph::Graph& g, NodeId requester,
                       NodeId target, const ServerSelectConfig& select = {});

}  // namespace manet::lm
