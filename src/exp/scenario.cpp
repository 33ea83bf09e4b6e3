#include "exp/scenario.hpp"

#include <cmath>
#include <cstdio>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "mobility/field.hpp"
#include "mobility/gauss_markov.hpp"
#include "mobility/group.hpp"
#include "mobility/random_direction.hpp"
#include "mobility/random_waypoint.hpp"
#include "net/radio.hpp"

namespace manet::exp {

double ScenarioConfig::tx_radius() const {
  switch (radius_policy) {
    case RadiusPolicy::kConnectivity:
      return net::connectivity_radius(n, density, connectivity_margin);
    case RadiusPolicy::kMeanDegree:
      return net::radius_for_mean_degree(target_degree, density);
  }
  return 1.0;
}

std::vector<ScenarioConfig::Error> ScenarioConfig::validate() const {
  // Negated comparisons so NaN fails every rule.
  std::vector<Error> errors;
  if (n < 2) errors.push_back({"n", "must be >= 2"});
  if (!(tick > 0.0)) errors.push_back({"tick", "must be > 0"});
  if (!(warmup >= 0.0)) errors.push_back({"warmup", "must be >= 0"});
  if (!(duration >= 0.0)) errors.push_back({"duration", "must be >= 0"});
  if (!(density > 0.0)) errors.push_back({"density", "must be > 0"});
  // Every moving model needs a positive speed; a static field ignores it.
  if (mobility != MobilityKind::kStatic && !(mu > 0.0)) errors.push_back({"mu", "must be > 0"});
  // Each radius knob must leave R_TX positive under its own policy; the
  // other policy ignores it.
  if (radius_policy == RadiusPolicy::kMeanDegree && !(target_degree > 0.0)) {
    errors.push_back({"target_degree", "must be > 0"});
  }
  if (radius_policy == RadiusPolicy::kConnectivity &&
      !(connectivity_margin > -std::log(static_cast<double>(n)))) {
    errors.push_back({"connectivity_margin", "must be > -ln(n)"});
  }
  const auto probability = [&](const char* field, double p) {
    if (!(p >= 0.0 && p <= 1.0)) errors.push_back({field, "must be in [0, 1]"});
  };
  probability("fault.loss", fault.loss);
  probability("fault.burst_loss", fault.burst_loss);
  probability("fault.burst_on", fault.burst_on);
  if (!(fault.arq_timeout >= 0.0)) errors.push_back({"fault.arq_timeout", "must be >= 0"});
  if (!(fault.arq_backoff >= 1.0)) errors.push_back({"fault.arq_backoff", "must be >= 1"});
  if (!(fault.audit_period >= 0.0)) errors.push_back({"fault.audit_period", "must be >= 0"});
  if (!(handover.backoff >= 1.0)) errors.push_back({"handover.backoff", "must be >= 1"});
  return errors;
}

std::string ScenarioConfig::describe() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "n=%zu density=%.3g mu=%.3g rtx=%.3g tick=%.3g warmup=%.3g dur=%.3g seed=%llu",
                n, density, mu, tx_radius(), tick, warmup, duration,
                static_cast<unsigned long long>(seed));
  std::string out = buf;
  if (fault.enabled()) out += " fault[" + fault.describe() + "]";
  if (sessions) {
    std::snprintf(buf, sizeof(buf),
                  " sessions[rate=%.3g dur=%.3g pps=%.3g ho_timeout=%.3g ho_retries=%zu]",
                  session.sessions_per_node_per_sec, session.mean_duration,
                  session.packets_per_sec, handover.timeout, handover.max_retries);
    out += buf;
  }
  return out;
}

Scenario Scenario::materialize(const ScenarioConfig& config) {
  MANET_CHECK(config.n >= 2);
  Scenario scenario;
  scenario.config = config;
  scenario.region = std::make_unique<geom::DiskRegion>(
      geom::DiskRegion::with_density(config.n, config.density));

  const std::uint64_t mob_seed = common::derive_seed(config.seed, 0xA0B1);
  switch (config.mobility) {
    case MobilityKind::kRandomWaypoint:
      scenario.mobility = std::make_unique<mobility::RandomWaypoint>(
          *scenario.region, config.n, mobility::RandomWaypoint::Params::fixed_speed(config.mu),
          mob_seed);
      break;
    case MobilityKind::kRandomDirection:
      scenario.mobility = std::make_unique<mobility::RandomDirection>(
          *scenario.region, config.n,
          mobility::RandomDirection::Params{config.mu, 60.0}, mob_seed);
      break;
    case MobilityKind::kGaussMarkov:
      scenario.mobility = std::make_unique<mobility::GaussMarkov>(
          *scenario.region, config.n,
          mobility::GaussMarkov::Params{config.mu, 0.3 * config.mu, 0.85, 1.0}, mob_seed);
      break;
    case MobilityKind::kGroup: {
      mobility::ReferencePointGroup::Params params;
      params.group_size = config.group_size;
      params.leader_speed = config.mu;
      params.member_speed = 0.5 * config.mu;
      scenario.mobility = std::make_unique<mobility::ReferencePointGroup>(
          *scenario.region, config.n, params, mob_seed);
      break;
    }
    case MobilityKind::kStatic:
      scenario.mobility =
          std::make_unique<mobility::StaticField>(*scenario.region, config.n, mob_seed);
      break;
  }

  scenario.ids.resize(config.n);
  for (NodeId v = 0; v < config.n; ++v) scenario.ids[v] = v;
  if (config.shuffle_ids) {
    common::Xoshiro256 rng(common::derive_seed(config.seed, 0xC2D3));
    common::shuffle(rng, scenario.ids.data(), scenario.ids.size());
  }
  return scenario;
}

}  // namespace manet::exp
