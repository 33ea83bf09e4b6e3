/// Mobility model playground: runs each model over the same deployment and
/// reports link-dynamics statistics (f0 of paper eq. 4, mean degree,
/// connectivity).
///
/// Usage: ./build/examples/mobility_playground [n]

#include <cstdio>
#include <cstdlib>

#include "exp/scenario.hpp"
#include "net/link_tracker.hpp"
#include "net/unit_disk.hpp"

namespace {

using namespace manet;

void profile_model(exp::MobilityKind kind, const char* label, Size n) {
  exp::ScenarioConfig cfg;
  cfg.n = n;
  cfg.mobility = kind;
  cfg.radius_policy = exp::RadiusPolicy::kMeanDegree;
  cfg.seed = 11;
  auto scenario = exp::Scenario::materialize(cfg);

  net::UnitDiskBuilder disk(cfg.tx_radius(), true);
  auto g = disk.build(scenario.mobility->positions());
  net::LinkTracker tracker(g, 0.0);

  Size connected_ticks = 0;
  const int ticks = 60;
  double degree_sum = 0.0;
  for (int t = 1; t <= ticks; ++t) {
    scenario.mobility->advance_to(static_cast<Time>(t));
    g = disk.build(scenario.mobility->positions());
    tracker.update(g, static_cast<Time>(t));
    degree_sum += g.average_degree();
    if (disk.last_augmented_edges() == 0) ++connected_ticks;
  }

  std::printf("%-18s f0 = %6.3f events/node/s   mean degree %5.2f   natively connected %2zu/%d ticks\n",
              label, tracker.events_per_node_per_second(), degree_sum / ticks,
              connected_ticks, ticks);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace manet;

  const Size n = argc > 1 ? static_cast<Size>(std::atoi(argv[1])) : 300;

  std::printf("mobility survey over %zu nodes, 60 s, 1 m/s class speeds\n\n", n);
  profile_model(exp::MobilityKind::kRandomWaypoint, "random_waypoint", n);
  profile_model(exp::MobilityKind::kRandomDirection, "random_direction", n);
  profile_model(exp::MobilityKind::kGaussMarkov, "gauss_markov", n);
  profile_model(exp::MobilityKind::kStatic, "static", n);

  return 0;
}
