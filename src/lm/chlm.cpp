#include "lm/chlm.hpp"

#include "common/check.hpp"
#include "lm/address.hpp"

namespace manet::lm {

ChlmService::ChlmService(ServerSelectConfig config) : config_(config) {}

void ChlmService::rebuild(const cluster::Hierarchy& h, Time now) {
  const Size n = h.level(0).vertex_count();
  top_level_ = h.top_level();
  width_ = select_all_servers_into(h, config_, servers_);
  db_.reset(n);
  for (NodeId owner = 0; owner < n; ++owner) {
    for (Size i = 0; i < width_; ++i) {
      const Level k = static_cast<Level>(i) + kFirstServedLevel;
      db_.put(servers_[owner * width_ + i], LocationRecord{owner, k, now, 0});
    }
  }
}

NodeId ChlmService::server_of(NodeId owner, Level k) const {
  MANET_CHECK(owner < node_count());
  if (k < kFirstServedLevel || k > top_level_) return kInvalidNode;
  return servers_[owner * width_ + (k - kFirstServedLevel)];
}

PacketCount ChlmService::query_cost(const cluster::Hierarchy& h, const graph::Graph& g,
                                    NodeId requester, NodeId target) const {
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
  for (Level k = kFirstServedLevel; k <= shared && k <= top_level_; ++k) {
    const NodeId probe = select_server_in(h, h.ancestor(requester, k), k, target, config_);
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
