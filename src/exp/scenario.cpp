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
  const auto positive = [&](const char* field, double v) {
    if (!(v > 0.0)) errors.push_back({field, "must be > 0"});
  };
  const auto non_negative = [&](const char* field, double v) {
    if (!(v >= 0.0)) errors.push_back({field, "must be >= 0"});
  };
  const auto at_least_one = [&](const char* field, double v) {
    if (!(v >= 1.0)) errors.push_back({field, "must be >= 1"});
  };
  const auto probability = [&](const char* field, double p) {
    if (!(p >= 0.0 && p <= 1.0)) errors.push_back({field, "must be in [0, 1]"});
  };
  if (n < 2) errors.push_back({"n", "must be >= 2"});
  positive("tick", tick);
  non_negative("warmup", warmup);
  non_negative("duration", duration);
  positive("density", density);
  // Every moving model needs a positive speed; a static field ignores it.
  if (mobility != MobilityKind::kStatic) positive("mu", mu);
  // Each radius knob must leave R_TX positive under its own policy; the
  // other policy ignores it.
  if (radius_policy == RadiusPolicy::kMeanDegree) positive("target_degree", target_degree);
  if (radius_policy == RadiusPolicy::kConnectivity &&
      !(connectivity_margin > -std::log(static_cast<double>(n)))) {
    errors.push_back({"connectivity_margin", "must be > -ln(n)"});
  }
  // The geometric link range is beta * R_TX * sqrt(c_k); contraction links
  // ignore beta.
  if (geometric_links) positive("link_beta", link_beta);
  probability("fault.loss", fault.loss);
  probability("fault.burst_loss", fault.burst_loss);
  probability("fault.burst_on", fault.burst_on);
  non_negative("fault.burst_len", fault.burst_len);
  non_negative("fault.crash_rate", fault.crash_rate);
  non_negative("fault.mean_downtime", fault.mean_downtime);
  non_negative("fault.outage_radius", fault.outage_radius);
  non_negative("fault.outage_start", fault.outage_start);
  non_negative("fault.outage_duration", fault.outage_duration);
  non_negative("fault.arq_timeout", fault.arq_timeout);
  at_least_one("fault.arq_backoff", fault.arq_backoff);
  non_negative("fault.audit_period", fault.audit_period);
  positive("session.sessions_per_node_per_sec", session.sessions_per_node_per_sec);
  positive("session.mean_duration", session.mean_duration);
  positive("session.packets_per_sec", session.packets_per_sec);
  positive("handover.timeout", handover.timeout);
  at_least_one("handover.backoff", handover.backoff);
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
  // Ids are arbitrary in the paper: shuffle them so spatial position and
  // election priority are independent.
  common::Xoshiro256 rng(common::derive_seed(config.seed, 0xC2D3));
  common::shuffle(rng, scenario.ids.data(), scenario.ids.size());
  return scenario;
}

}  // namespace manet::exp
