#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

/// \file fault.hpp
/// Deterministic fault injection for simulation runs.
///
/// The paper prices every handoff at exactly hops(old, new) packet
/// transmissions and sets node birth/death aside ("extremely rare ... its
/// effect is not evaluated"). This module supplies the machinery to stress
/// that idealization: a seeded, replayable *plan* of faults — per-packet
/// control-plane loss (Bernoulli and Gilbert-Elliott bursty), node
/// crash/rejoin intervals, and a regional-outage disk — all derived
/// from the scenario seed, so identical (seed, config) pairs give identical
/// faulted runs at any thread count.
///
/// Layering: this file knows nothing about graphs or the LM plane. The
/// lossy channel lives in net/ (net::LossyChannel), the ARQ layer in lm/
/// (lm::ReliableTransfer); exp::run_simulation composes them. With
/// FaultConfig::enabled() == false nothing below is ever constructed and the
/// simulation path is bit-identical to the fault-free build.

namespace manet::sim {

/// Complete fault model for one run. All processes default to off;
/// enabled() gates every fault-path branch in the stack.
struct FaultConfig {
  // --- Control-plane loss ---
  /// Per-hop Bernoulli loss probability applied to every control packet
  /// (handoff transfers, registrations, repairs). A transfer over h hops
  /// therefore delivers with probability (1 - loss)^h.
  double loss = 0.0;
  /// Gilbert-Elliott bursty loss: per-hop loss probability while the channel
  /// chain is in the bad state (0 = bursty model off).
  double burst_loss = 0.0;
  /// Per-packet probability of the chain entering the bad state.
  double burst_on = 0.01;
  /// Mean bad-state sojourn in packets (P(bad->good) = 1 / burst_len).
  double burst_len = 8.0;

  // --- Node churn ---
  /// Per-node crash hazard rate (crashes per node per second of run time).
  double crash_rate = 0.0;
  /// Mean downtime before a crashed node rejoins (exponential), seconds.
  Time mean_downtime = 10.0;

  // --- Regional outage ---
  /// Radius of the outage disk in meters (0 = off). The disk sits at the
  /// deployment centre, the origin (geom::DiskRegion::with_density). Nodes
  /// inside it while the outage is active behave exactly like crashed nodes.
  double outage_radius = 0.0;
  Time outage_start = 0.0;
  Time outage_duration = 0.0;

  // --- ARQ / repair policy (only consulted when a fault process is on) ---
  Size retry_budget = 4;      ///< retransmissions after the first attempt
  Time arq_timeout = 0.05;    ///< first retransmission timeout, seconds
  double arq_backoff = 2.0;   ///< timeout multiplier per retry (>= 1)
  Time audit_period = 5.0;    ///< server-audit / repair interval, seconds
  Size probe_pairs = 256;     ///< owners sampled per query-consistency probe

  bool lossy() const { return loss > 0.0 || burst_loss > 0.0; }
  bool churn() const { return crash_rate > 0.0; }
  bool outage() const { return outage_radius > 0.0 && outage_duration > 0.0; }
  bool enabled() const { return lossy() || churn() || outage(); }

  /// One-line manifest form, "off" when disabled (RunManifest records it so
  /// resilience artifacts are reproducible from the manifest alone).
  std::string describe() const;
};

/// Precomputed, replayable fault schedule: per-node down intervals drawn
/// once from a derived seed. Building the plan consumes no scenario RNG
/// state besides the seed passed in, and the same (config, n, window, seed)
/// always yields the same plan.
struct FaultPlan {
  struct Interval {
    Time down = 0.0;  ///< crash instant
    Time up = 0.0;    ///< rejoin instant (> down)
  };

  /// downtime[v] holds v's crash intervals sorted by start time.
  std::vector<std::vector<Interval>> downtime;

  static FaultPlan build(const FaultConfig& config, Size n, Time start, Time end,
                         std::uint64_t seed);
};

/// Run-time fault oracle: answers "is node v down at time t" (crash plan
/// plus regional outage) from the precomputed plan. Stateless queries —
/// safe to consult in any order.
class FaultInjector {
 public:
  FaultInjector(const FaultConfig& config, Size n, Time start, Time end,
                std::uint64_t seed);

  const FaultConfig& config() const { return config_; }
  const FaultPlan& plan() const { return plan_; }

  /// True when v's crash plan has it down at \p t (regional outage is
  /// evaluated separately because it needs the node's position).
  bool crashed(NodeId v, Time t) const;

  /// True when the outage disk is active at \p t and covers (x, y): within
  /// outage_radius of the origin.
  bool in_outage(double x, double y, Time t) const;

  /// Total crash intervals scheduled within the run window.
  Size scheduled_crashes() const;

 private:
  FaultConfig config_;
  FaultPlan plan_;
};

}  // namespace manet::sim
