/// Regenerates the paper's Fig. 1 experience on a random deployment: builds
/// a small network, runs the recursive ALCA, and prints every level of the
/// clustered hierarchy — which node heads which cluster, who its members
/// are, and the resulting hierarchical addresses (e.g. 100.85.68.63).
///
/// Usage: ./build/examples/hierarchy_explorer [n] [seed]

#include <cstdio>
#include <cstdlib>

#include "cluster/hierarchy_builder.hpp"
#include "common/rng.hpp"
#include "exp/scenario.hpp"
#include "lm/address.hpp"
#include "net/unit_disk.hpp"

int main(int argc, char** argv) {
  using namespace manet;

  const Size n = argc > 1 ? static_cast<Size>(std::atoi(argv[1])) : 48;
  const std::uint64_t seed = argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 3;

  exp::ScenarioConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.mobility = exp::MobilityKind::kStatic;
  cfg.radius_policy = exp::RadiusPolicy::kMeanDegree;

  auto scenario = exp::Scenario::materialize(cfg);
  net::UnitDiskBuilder disk(cfg.tx_radius(), /*ensure_connected=*/true);
  const auto g = disk.build(scenario.mobility->positions());
  const auto h = cluster::HierarchyBuilder().build(g, scenario.ids);

  std::printf("network: %zu nodes, %zu links, R_TX = %.2f m\n", g.vertex_count(),
              g.edge_count(), cfg.tx_radius());
  std::printf("clustered hierarchy: %u levels above the physical one\n\n", h.top_level());

  for (Level k = h.top_level(); k >= 1; --k) {
    std::printf("--- level %u: %zu cluster(s) ---\n", k, h.cluster_count(k));
    for (NodeId c = 0; c < h.cluster_count(k); ++c) {
      const auto& view = h.level(k);
      std::printf("  cluster %-4u (head node %u): level-0 members {", view.ids[c],
                  view.ids[c]);
      const auto& members = h.members0(k, c);
      for (Size i = 0; i < members.size(); ++i) {
        std::printf("%s%u", i ? ", " : "", h.level(0).ids[members[i]]);
      }
      std::printf("}\n");
    }
  }

  std::printf("\nhierarchical addresses (top-down, paper Sec. 2.1):\n");
  const Size show = std::min<Size>(n, 12);
  for (NodeId v = 0; v < show; ++v) {
    const auto addr = lm::make_address(h, v);
    std::printf("  node %-4u -> %s\n", h.level(0).ids[v], lm::to_string(addr).c_str());
  }
  if (show < n) std::printf("  ... (%zu more)\n", n - show);

  std::printf(
      "\nNote the paper's Fig. 1 phenomenon: some clusterheads are NOT the\n"
      "largest id in their own neighborhood — they lead because a smaller\n"
      "neighbor elected them (look for adjacent clusters whose head ids are\n"
      "close together).\n");
  return 0;
}
