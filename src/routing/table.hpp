#pragma once

#include <vector>

#include "cluster/hierarchy.hpp"
#include "graph/bfs.hpp"
#include "graph/graph.hpp"
#include "sim/shard.hpp"

/// \file table.hpp
/// Strict hierarchical routing (paper Section 2.1, after Steenstrup [14] and
/// Kleinrock & Kamoun [7]).
///
/// Each node keeps, for every level k of its ancestor chain, one routing
/// entry per *sibling* cluster of its level-(k-1) cluster inside its level-k
/// cluster: the next hop on a shortest level-0 path toward the nearest
/// member of that sibling. Forwarding a packet reads only the destination's
/// hierarchical address: at node u, find the lowest level j where u and the
/// destination share a cluster, look up u's entry for the destination's
/// level-(j-1) cluster, and hand the packet to that next hop. No packet is
/// forced through clusterheads, exactly as the paper stresses.
///
/// Table size is Theta(sum_k alpha_k) = Theta(log|V|) entries per node —
/// the Kleinrock-Kamoun saving over the flat Theta(|V|) table — at the cost
/// of bounded path stretch; both are measured by bench_routing (E16/E17).

namespace manet::routing {

/// One routing entry: toward cluster `target` (dense index at `level`),
/// leave via `next_hop` (level-0 dense vertex); `distance` is the hop count
/// to the nearest member of the target cluster.
struct RouteEntry {
  Level level = 0;          ///< cluster level of the target
  NodeId target = 0;        ///< dense cluster index at `level`
  NodeId next_hop = kInvalidNode;
  std::uint32_t distance = 0;
};

/// Caller-owned workspace of RoutingTables::route(): the forwarding walk's
/// visited marks and the recovery leg's distance field, both epoch-stamped
/// so a call clears nothing. One scratch serves any number of calls on any
/// tables, one call at a time: concurrent callers each hold their own.
class RouteScratch {
 private:
  friend class RoutingTables;

  /// Start a call over \p n vertices; every earlier mark goes stale.
  void begin(Size n);
  void visit(NodeId v) { visited_[v] = epoch_; }
  bool visited(NodeId v) const { return visited_[v] == epoch_; }
  /// Hop distance to this call's BFS root; kUnreachable where unlabeled.
  std::uint32_t hops(NodeId v) const {
    return labeled_[v] == epoch_ ? dist_[v] : graph::kUnreachable;
  }
  /// BFS from \p root that stops once \p a and \p b (kInvalidNode: not
  /// needed), neither of them \p root, are labeled. When a node at distance D gets its label, every
  /// node at distance D - 1 already has one, so hops() is exact up to the
  /// later of the two.
  void label_until(const graph::Graph& g, NodeId root, NodeId a, NodeId b);

  std::vector<std::uint32_t> visited_, labeled_;  ///< epoch stamps per node
  std::vector<std::uint32_t> dist_;               ///< valid where labeled
  std::vector<NodeId> queue_;
  std::uint32_t epoch_ = 0;
};

/// All routing state for the network under one hierarchy snapshot.
class RoutingTables {
 public:
  /// Build tables for every node. Cost: one multi-source BFS per child
  /// cluster over its parent cluster's induced subgraph, plus, when the
  /// parent has members cut off inside that subgraph, one global BFS from
  /// the child that stops once every cut-off member it can reach is labeled.
  ///
  /// The BFS work runs over \p executor's shards, one pass per level in
  /// level order, each task claiming parent clusters from one cursor (the
  /// HopOracle::prepare idiom). The parents of a level partition the nodes,
  /// so a task writes only its parent's members' tables, and every table is
  /// identical, entry for entry and in order, at any shard and thread count.
  /// The calling thread reserves every table to its exact bound first, so
  /// workers allocate nothing but their thread's BFS scratch (5 words per
  /// node, kept for later builds). A level's parallelism is its parent
  /// count: the top levels, with a handful of parents, run nearly serial.
  RoutingTables(const graph::Graph& g, const cluster::Hierarchy& h,
                const sim::ShardExecutor& executor = sim::kInlineExecutor);

  /// Entries held by node \p v (its "hierarchical map" worth of routes).
  const std::vector<RouteEntry>& entries(NodeId v) const;

  /// Number of entries at node \p v; Theta(log n) is the claim under test.
  Size table_size(NodeId v) const { return entries(v).size(); }

  double mean_table_size() const;

  /// Next hop at node \p u for a packet addressed to \p dest. Returns u
  /// itself when u == dest. kInvalidNode signals a routing failure (cannot
  /// happen on a connected snapshot; surfaced for tests).
  NodeId next_hop(NodeId u, NodeId dest) const;

  struct RouteResult {
    bool delivered = false;
    bool recovered = false;  ///< revisit or missing entry; finished via recovery
    std::uint32_t hops = 0;  ///< hops forwarded: the whole route when delivered
  };

  /// Route a packet u -> dest. Hierarchical forwarding is loop-free as long
  /// as every hop stays inside the longest-matched cluster; entries that had
  /// to fall back to global shortest-path fields (non-contiguous cluster
  /// memberships) can oscillate, and on the first revisit the packet
  /// switches to recovery mode, like the route-repair fallback of
  /// SURAN/MMWN-class protocols.
  ///
  /// The recovery rule, with d the hop distance to dest: the packet has
  /// forwarded `prefix` hops to the node `cur` where the revisit happens
  /// (or where no entry exists), and the table's oscillating hop `h`
  /// (invalid when missing) still competes for the first step. The packet
  /// moves to m = min({h} u {w in N(cur) : d(w) = d(cur) - 1}), then
  /// descends to dest, always to the smallest-id neighbor one hop closer.
  /// The route is undeliverable when d(cur) is unreachable; otherwise
  /// `hops` = prefix + 1 + d(m), which is prefix + d(cur) unless m == h is
  /// not a closer neighbor.
  ///
  /// Cost: one table lookup per forwarding hop, plus, for a recovering
  /// packet, one BFS from dest that stops once `cur` and `h` are labeled
  /// (the whole component of dest only when `cur` is cut off from it).
  /// \p path, when given, receives the nodes visited, inclusive of both
  /// ends, from the same walk. route() only reads the tables, so any number
  /// of threads may route over one table at once, each with its own scratch.
  RouteResult route(NodeId u, NodeId dest, RouteScratch& scratch,
                    std::vector<NodeId>* path = nullptr) const;

  const cluster::Hierarchy& hierarchy() const { return *h_; }

 private:
  /// Locate the entry at node u targeting (level, cluster).
  const RouteEntry* find_entry(NodeId u, Level level, NodeId cluster) const;

  const graph::Graph* g_;
  const cluster::Hierarchy* h_;
  std::vector<std::vector<RouteEntry>> tables_;  ///< per node
};

/// Path-stretch statistics of hierarchical routing vs shortest paths.
struct StretchStats {
  double mean_stretch = 0.0;  ///< mean over sampled pairs of hier/shortest
  double max_stretch = 0.0;
  double mean_hier_hops = 0.0;
  double mean_shortest_hops = 0.0;
  Size sampled_pairs = 0;
  Size recoveries = 0;  ///< pairs that needed the recovery fallback
  Size failures = 0;    ///< pairs undeliverable even with recovery
};

/// Sample \p pairs random (src, dst) pairs and compare path lengths. Each
/// pair costs one exact pair query (graph::BfsPairScratch) and one route().
StretchStats measure_stretch(const RoutingTables& tables, const graph::Graph& g, Size pairs,
                             std::uint64_t seed);

}  // namespace manet::routing
