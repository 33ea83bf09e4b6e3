#include "lm/address.hpp"

#include "common/check.hpp"
#include "graph/bfs.hpp"

namespace manet::lm {

HierAddress make_address(const cluster::Hierarchy& h, NodeId v) {
  return HierAddress{h.address(v)};
}

std::string to_string(const HierAddress& addr) {
  std::string out;
  for (Size i = 0; i < addr.chain.size(); ++i) {
    if (i) out.push_back('.');
    out += std::to_string(addr.chain[i]);
  }
  return out;
}

Level lowest_common_level(const cluster::Hierarchy& h, NodeId u, NodeId v) {
  // Walk down from the top; the first level where the ancestors differ means
  // the previous level held the smallest shared cluster.
  for (Level k = h.top_level();; --k) {
    if (h.ancestor(u, k) != h.ancestor(v, k)) return k + 1;
    if (k == 0) return 0;  // u == v
  }
}

Size hierarchical_map_size(const cluster::Hierarchy& h, NodeId v) {
  // The node stores, for each level k = 1..top, the membership of its level-k
  // cluster (its level-(k-1) siblings).
  Size total = 0;
  for (Level k = 1; k <= h.top_level(); ++k) {
    total += h.children(k, h.ancestor(v, k)).size();
  }
  return total;
}

PacketCount query_cost(const cluster::Hierarchy& h, const graph::Graph& g, NodeId requester,
                       NodeId target, const ServerSelectConfig& select) {
  MANET_CHECK(requester < g.vertex_count() && target < g.vertex_count());
  if (requester == target) return 0;

  const Level shared = lowest_common_level(h, requester, target);
  graph::BfsPairScratch bfs;

  // Within a shared level-1 cluster the full topology is known (paper
  // Section 3.2) — route directly.
  if (shared <= 1) return bfs.hops(g, requester, target);

  // Probe chain: the requester asks the *would-be* level-k server of the
  // target inside its own level-k cluster; every probe below `shared`
  // misses and the lookup escalates one level. The level-`shared` probe
  // lands on the target's true server (same cluster at that level), which
  // forwards the query to the target.
  PacketCount cost = 0;
  NodeId cursor = requester;
  for (Level k = kFirstServedLevel; k <= shared && k <= h.top_level(); ++k) {
    const NodeId probe = select_server_in(h, h.ancestor(requester, k), k, target, select);
    const auto hops = bfs.hops(g, cursor, probe);
    MANET_CHECK_MSG(hops != graph::kUnreachable, "query path through disconnected graph");
    cost += hops;
    cursor = probe;
  }
  const auto final_hops = bfs.hops(g, cursor, target);
  MANET_CHECK_MSG(final_hops != graph::kUnreachable, "query path through disconnected graph");
  return cost + final_hops;
}

}  // namespace manet::lm
