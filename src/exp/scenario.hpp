#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "geom/region.hpp"
#include "lm/handoff.hpp"
#include "lm/handover_fsm.hpp"
#include "mobility/model.hpp"
#include "sim/fault.hpp"
#include "traffic/sessions.hpp"

/// \file scenario.hpp
/// Scenario configuration shared by all experiments. A scenario fixes the
/// paper's environment (Section 1.2): n nodes uniform in a disk whose area
/// grows with n (constant density), unit-disk links with a connectivity-
/// scaled R_TX, random-waypoint motion at speed mu with zero pause, and
/// recursive ALCA clustering.

namespace manet::exp {

enum class MobilityKind {
  kRandomWaypoint,  ///< the paper's model (default)
  kRandomDirection,
  kGaussMarkov,
  kGroup,           ///< reference-point group mobility (RPGM, HSR's scenario)
  kStatic,
};

enum class RadiusPolicy {
  kConnectivity,  ///< R_TX = Gupta-Kumar connectivity radius (default)
  kMeanDegree,    ///< R_TX sized for a target mean degree
};

/// Clusterhead election rule (ablation E13).
enum class ClusterAlgo {
  kAlca,     ///< paper's assumption (recursive highest-ID, 1-hop)
  kMaxMin1,  ///< max-min d-cluster, d = 1
  kMaxMin2,  ///< max-min d-cluster, d = 2
};

struct ScenarioConfig {
  Size n = 256;              ///< |V|
  double density = 1.0;      ///< nodes per m^2 (held constant across n)
  double mu = 1.0;           ///< node speed, m/s
  MobilityKind mobility = MobilityKind::kRandomWaypoint;
  RadiusPolicy radius_policy = RadiusPolicy::kConnectivity;
  double target_degree = 9.0;       ///< used by kMeanDegree
  double connectivity_margin = 3.5; ///< additive constant in the log term

  Time tick = 1.0;      ///< topology sampling interval, s
  Time warmup = 20.0;   ///< settle time before measurement starts, s
  Time duration = 80.0; ///< measured window, s

  /// Level-k link model (see cluster::HierarchyOptions): geometric
  /// hysteresis per the paper's eq. (7) by default; the naive contraction
  /// rule is kept for the ablation bench.
  bool geometric_links = true;
  double link_beta = 1.0;
  ClusterAlgo cluster_algo = ClusterAlgo::kAlca;

  /// Cap on clustered levels (default: effectively unbounded — the natural
  /// L = Theta(log n)). Lower caps trade fewer LM levels against larger top
  /// clusters; the ablation bench sweeps this.
  Level max_levels = 32;

  std::uint64_t seed = 1;

  lm::HandoffConfig handoff;

  /// Fault-injection plan (all processes off by default; see sim/fault.hpp).
  /// When disabled the runner constructs none of the fault machinery and the
  /// run is bit-identical to a build without this field.
  sim::FaultConfig fault;

  /// Long-lived session workload + handover FSM plane (experiment E29).
  /// Off by default; when disabled none of the session/FSM machinery is
  /// constructed and the run is bit-identical to a build without these
  /// fields.
  bool sessions = false;
  traffic::SessionConfig session;
  lm::HandoverFsmConfig handover;

  /// Maximum attempts to draw an initially connected deployment before
  /// falling back to the best draw.
  int connect_attempts = 8;

  double tx_radius() const;  ///< resolved R_TX for this config
  std::string describe() const;

  /// One violated constraint: the offending member (dotted path, e.g.
  /// "handover.backoff") and the rule it breaks (e.g. "must be >= 1").
  struct Error {
    std::string field;
    std::string rule;
  };
  /// Every violated constraint, in this order (empty = valid):
  ///   n >= 2; tick > 0; warmup >= 0; duration >= 0; density > 0;
  ///   mu > 0 unless mobility is kStatic;
  ///   target_degree > 0 under kMeanDegree;
  ///   connectivity_margin > -ln(n) under kConnectivity;
  ///   link_beta > 0 under geometric_links;
  ///   fault.loss, fault.burst_loss, fault.burst_on in [0, 1];
  ///   fault.burst_len, fault.crash_rate, fault.mean_downtime,
  ///   fault.outage_radius, fault.outage_start, fault.outage_duration and
  ///   fault.arq_timeout >= 0; fault.arq_backoff >= 1;
  ///   fault.audit_period >= 0;
  ///   session.sessions_per_node_per_sec > 0;
  ///   session.mean_duration > 0; session.packets_per_sec > 0;
  ///   handover.timeout > 0; handover.backoff >= 1.
  /// NaN fails every rule. This is the only place a scenario rule is
  /// written: run_simulation() refuses an invalid config, and the CLI
  /// reports each error under the flag that sets its field.
  std::vector<Error> validate() const;
};

/// Materialized scenario: region + mobility model + id assignment.
struct Scenario {
  ScenarioConfig config;
  std::unique_ptr<geom::Region> region;
  std::unique_ptr<mobility::MobilityModel> mobility;
  std::vector<NodeId> ids;  ///< election ids per dense node

  static Scenario materialize(const ScenarioConfig& config);
};

}  // namespace manet::exp
