/// Side-by-side comparison of the paper's CHLM against the Grid Location
/// Service it is modelled on (Li et al. 2000, paper ref [5]): same nodes,
/// same motion, same BFS-hop packet pricing. Prints maintenance rates, the
/// server-load profile of both services, and a sample location query.
///
/// Usage: ./build/examples/gls_vs_chlm [n]

#include <cstdio>
#include <cstdlib>

#include "cluster/hierarchy_builder.hpp"
#include "exp/simulation.hpp"
#include "lm/address.hpp"
#include "lm/gls.hpp"
#include "lm/handoff.hpp"
#include "net/unit_disk.hpp"

int main(int argc, char** argv) {
  using namespace manet;

  const Size n = argc > 1 ? static_cast<Size>(std::atoi(argv[1])) : 400;

  exp::ScenarioConfig cfg;
  cfg.n = n;
  cfg.seed = 5;
  cfg.radius_policy = exp::RadiusPolicy::kMeanDegree;
  cfg.warmup = 10.0;
  cfg.duration = 45.0;

  std::printf("running CHLM and GLS over identical motion (%zu nodes, 45 s)...\n\n", n);
  exp::RunOptions opts;
  opts.run_gls = true;
  opts.track_events = false;
  opts.track_states = false;
  const auto m = exp::run_simulation(cfg, opts);

  std::printf("maintenance overhead (packet transmissions per node per second):\n");
  std::printf("  CHLM  phi = %7.4f  gamma = %7.4f  total = %7.4f\n", m.get("phi_rate"),
              m.get("gamma_rate"), m.get("total_rate"));
  std::printf("  GLS   handoff = %7.4f  update = %7.4f  total = %7.4f\n",
              m.get("gls_handoff_rate"), m.get("gls_update_rate"), m.get("gls_total_rate"));

  // Static snapshot: compare the two services' server-load profiles.
  auto scenario = exp::Scenario::materialize(cfg);
  net::UnitDiskBuilder disk(cfg.tx_radius(), true);
  const auto g = disk.build(scenario.mobility->positions());
  const auto h = cluster::HierarchyBuilder().build(g, scenario.ids);

  lm::HandoffEngine chlm;
  chlm.prime(h, 0.0);
  const auto chlm_load = lm::load_stats(chlm.database().load_vector());

  const auto* region = dynamic_cast<const geom::DiskRegion*>(scenario.region.get());
  const double r = region->radius();
  lm::GlsService gls(lm::GridHierarchy::cover(region->center() - geom::Vec2{r, r}, 2 * r,
                                              cfg.tx_radius()));
  gls.rebuild(scenario.mobility->positions(), scenario.ids);
  const auto gls_load = lm::load_stats(gls.load_vector());

  std::printf("\nserver load (entries per node) on a static snapshot:\n");
  std::printf("  CHLM  mean %5.2f  max %5.0f  gini %5.3f\n", chlm_load.mean, chlm_load.max,
              chlm_load.gini);
  std::printf("  GLS   mean %5.2f  max %5.0f  gini %5.3f\n", gls_load.mean, gls_load.max,
              gls_load.gini);

  // One worked location query, CHLM-style (paper Sec. 6: cost ~ hop count).
  const NodeId requester = 0, target = static_cast<NodeId>(n / 2);
  const auto cost = lm::query_cost(h, g, requester, target);
  std::printf("\nsample CHLM query: node %u locates node %u for %llu packet transmissions\n",
              requester, target, static_cast<unsigned long long>(cost));

  std::printf(
      "\nGLS recruits 3 sibling servers per grid level while CHLM keeps one\n"
      "server per cluster level, so GLS stores ~3x the entries; both stay\n"
      "polylogarithmic in maintenance cost (paper Section 3).\n");
  return 0;
}
