/// Quickstart: the full pipeline in one page.
///
/// 1. Deploy nodes uniformly in a disk (constant density).
/// 2. Build the unit-disk radio graph.
/// 3. Cluster it recursively with the ALCA into a multi-level hierarchy.
/// 4. Stand up CHLM location servers for every node at every level >= 2.
/// 5. Move everyone with random waypoint for a minute and account every
///    LM handoff packet, exactly as the paper's analysis defines it.
///
/// Build and run:  ./build/examples/quickstart [n]

#include <cstdio>
#include <cstdlib>

#include "exp/simulation.hpp"
#include "lm/address.hpp"

int main(int argc, char** argv) {
  using namespace manet;

  const Size n = argc > 1 ? static_cast<Size>(std::atoi(argv[1])) : 256;

  exp::ScenarioConfig cfg;
  cfg.n = n;
  cfg.mu = 1.0;                                      // 1 m/s random waypoint
  cfg.radius_policy = exp::RadiusPolicy::kMeanDegree;  // fixed R_TX, d ~ 12
  cfg.warmup = 10.0;
  cfg.duration = 60.0;
  cfg.seed = 7;

  std::printf("scenario: %s\n\n", cfg.describe().c_str());

  const exp::RunMetrics m = exp::run_simulation(cfg);

  std::printf("hierarchy: %.1f clustered levels on average\n", m.get("levels"));
  std::printf("LM database: %.2f entries/node (theory: ~L-1), load gini %.3f\n",
              m.get("entries_per_node"), m.get("load_gini"));
  std::printf("\nlink dynamics: f0 = %.3f link events/node/s (paper eq. 4: Theta(1))\n",
              m.get("f0"));

  std::printf("\nhandoff overhead (packet transmissions per node per second):\n");
  std::printf("  phi   (node migration, paper Sec. 4) = %.4f\n", m.get("phi_rate"));
  std::printf("  gamma (reorganization, paper Sec. 5) = %.4f\n", m.get("gamma_rate"));
  std::printf("  total                                = %.4f\n", m.get("total_rate"));

  std::printf("\nper-level breakdown:\n  %-6s %-10s %-10s %-10s\n", "level", "phi_k",
              "gamma_k", "f_k");
  for (Level k = 1; k <= 10; ++k) {
    char key[32];
    std::snprintf(key, sizeof(key), "phi_k.%u", k);
    if (!m.has(key)) break;
    const double phik = m.get(key);
    std::snprintf(key, sizeof(key), "gamma_k.%u", k);
    const double gammak = m.get(key);
    std::snprintf(key, sizeof(key), "f_k.%u", k);
    const double fk = m.get(key);
    std::printf("  %-6u %-10.4f %-10.4f %-10.4f\n", k, phik, gammak, fk);
  }

  std::printf(
      "\nThe paper's claim: both phi and gamma grow as Theta(log^2 n).\n"
      "Try ./quickstart 1024 and compare against this run.\n");
  return 0;
}
