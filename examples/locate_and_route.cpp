/// The full user-plane story in one program: node A wants to talk to node B.
///   1. A resolves B's location through the CHLM distributed database
///      (probe chain up the cluster levels — paper Sec. 3.2 / Sec. 6).
///   2. A then sends a packet train over strict hierarchical routing,
///      forwarding purely on B's hierarchical address (paper Sec. 2.1).
/// Prints the resolved addresses, the query cost, the routed path with the
/// cluster boundaries it crosses, and the stretch vs the shortest path.
///
/// Usage: ./build/examples/locate_and_route [n] [srcId] [dstId]

#include <cstdio>
#include <cstdlib>

#include "cluster/hierarchy_builder.hpp"
#include "exp/scenario.hpp"
#include "graph/bfs.hpp"
#include "lm/address.hpp"
#include "lm/handoff.hpp"
#include "net/unit_disk.hpp"
#include "routing/table.hpp"

int main(int argc, char** argv) {
  using namespace manet;

  const Size n = argc > 1 ? static_cast<Size>(std::atoi(argv[1])) : 400;
  exp::ScenarioConfig cfg;
  cfg.n = n;
  cfg.seed = 12;
  cfg.mobility = exp::MobilityKind::kStatic;
  cfg.radius_policy = exp::RadiusPolicy::kMeanDegree;
  auto scenario = exp::Scenario::materialize(cfg);

  net::UnitDiskBuilder disk(cfg.tx_radius(), true);
  const auto g = disk.build(scenario.mobility->positions());
  const auto h = cluster::HierarchyBuilder().build(g, scenario.ids);

  const NodeId src = argc > 2 ? static_cast<NodeId>(std::atoi(argv[2])) : 0;
  const NodeId dst =
      argc > 3 ? static_cast<NodeId>(std::atoi(argv[3])) : static_cast<NodeId>(n - 1);

  std::printf("network: %zu nodes, %u clustered levels\n\n", n, h.top_level());
  std::printf("source      %-5u address %s\n", src,
              lm::to_string(lm::make_address(h, src)).c_str());
  std::printf("destination %-5u address %s\n", dst,
              lm::to_string(lm::make_address(h, dst)).c_str());
  const Level shared = lm::lowest_common_level(h, src, dst);
  std::printf("smallest shared cluster: level %u (head %u)\n\n", shared,
              h.ancestor_id(src, shared));

  // Step 1: location resolution.
  const auto query_cost = lm::query_cost(h, g, src, dst);
  std::printf("CHLM lookup: %llu packet transmissions (probe chain up to level %u)\n",
              static_cast<unsigned long long>(query_cost), shared);
  if (shared >= lm::kFirstServedLevel) {
    lm::HandoffEngine chlm;
    chlm.prime(h, 0.0);
    const NodeId server = chlm.current_server(dst, shared);
    std::printf("  %u's level-%u location server is node %u\n", dst, shared, server);
  } else {
    std::printf("  same level-1 cluster: full intra-cluster topology known, no probe\n");
  }

  // Step 2: hierarchical forwarding.
  const routing::RoutingTables tables(g, h);
  routing::RouteScratch scratch;
  std::vector<NodeId> path;
  const auto routed = tables.route(src, dst, scratch, &path);
  graph::BfsScratch bfs;
  bfs.run(g, src);
  const auto shortest = bfs.hops_to(dst);

  std::printf("\nhierarchical route (%u hops, shortest %u, stretch %.2f%s):\n",
              routed.hops, shortest, static_cast<double>(routed.hops) / shortest,
              routed.recovered ? ", used recovery" : "");
  Level prev_boundary = 0;
  for (Size i = 0; i < path.size(); ++i) {
    const NodeId hop = path[i];
    std::printf("  %s%u", i ? "-> " : "   ", hop);
    if (i + 1 < path.size()) {
      const Level crossing = lm::lowest_common_level(h, hop, path[i + 1]);
      if (crossing > 1 && crossing != prev_boundary) {
        std::printf("   (crossing into a different level-%u subtree)", crossing - 1);
      }
      prev_boundary = crossing;
    }
    std::printf("\n");
  }
  std::printf(
      "\ntotal session setup = lookup (%llu) + %u data hops per packet;\n"
      "the lookup amortizes over the session — the paper's Sec. 6 argument.\n",
      static_cast<unsigned long long>(query_cost), routed.hops);
  return 0;
}
