#pragma once

#include <vector>

#include "geom/vec2.hpp"
#include "graph/bfs.hpp"
#include "lm/handoff.hpp"
#include "lm/reliable.hpp"

/// \file registration.hpp
/// Location *registration* overhead — the owner-driven updates that keep LM
/// servers fresh, as opposed to the server-to-server *handoff* this paper
/// analyzes. The paper's conclusions cite the companion work [17] for the
/// claim that registration costs only Theta(log|V|) packet transmissions per
/// node per second; this module reproduces that measurement (experiment E18)
/// with the GLS-style distance-threshold update rule:
///
///   a node refreshes its level-k server after moving
///   delta_k = threshold * R_TX * sqrt(mean c_k) meters since its last
///   level-k update (paper eq. (7) scale),
///
/// so far servers hear from it rarely and near servers often — exactly the
/// lazy-updating geometry GLS prescribes (paper Section 3.1, feature (c)).
/// Updates go to the run's HandoffEngine servers: one table prices both.

namespace manet::lm {

struct RegistrationConfig {
  double threshold = 0.5;  ///< update distance in units of R_TX * sqrt(c_k)
  double tx_radius = 1.0;  ///< R_TX for the distance scale
};

class RegistrationTracker {
 public:
  explicit RegistrationTracker(RegistrationConfig config);

  /// Install anchors at time \p t: every (node, level) records its current
  /// position; no cost charged.
  void prime(const cluster::Hierarchy& h, const std::vector<geom::Vec2>& positions, Time t);

  struct TickResult {
    PacketCount packets = 0;
    Size updates = 0;
  };

  /// Check every (node, level) against its distance threshold; charge
  /// hops(owner, current level-k server) per triggered update. \p servers
  /// must hold snapshot \p h (primed or updated on it): the tracker reads
  /// each server from it and refuses an engine over another node count or
  /// top level.
  TickResult update(const cluster::Hierarchy& h, const HandoffEngine& servers,
                    const graph::Graph& g, const std::vector<geom::Vec2>& positions, Time t);

  Time elapsed() const { return last_time_ - start_time_; }
  Size node_count() const { return anchors_.size(); }

  PacketCount total_packets() const { return total_packets_; }
  Size total_updates() const { return total_updates_; }

  /// Registration packet transmissions per node per second.
  double rate() const;
  double rate_at(Level k) const;
  Size levels_tracked() const { return per_level_packets_.size(); }

  // --- Resilience plane (see sim/fault.hpp) ---

  /// Attach (or detach with nullptr) the unreliable transfer path. With an
  /// ARQ attached, a triggered update that exhausts its retry budget leaves
  /// the anchor UN-refreshed, so the distance rule naturally retries on the
  /// next tick. Detached, behavior is bit-identical to the ideal build.
  void set_resilience(ReliableTransfer* arq, const std::vector<std::uint8_t>* down);

  /// Retransmitted registration packets (0 while no ARQ is attached).
  PacketCount total_retx() const { return reg_retx_; }
  Size failed_updates() const { return failed_updates_; }
  double retx_rate() const;

 private:
  PacketCount price(const graph::Graph& g, NodeId from, NodeId to);
  bool is_down(NodeId v) const {
    return down_ != nullptr && v < down_->size() && (*down_)[v] != 0;
  }

  RegistrationConfig config_;
  /// anchors_[node][k - kFirstServedLevel] = position at last level-k update.
  std::vector<std::vector<geom::Vec2>> anchors_;
  Level top_ = 0;
  Time start_time_ = 0.0;
  Time last_time_ = 0.0;
  bool primed_ = false;
  PacketCount total_packets_ = 0;
  Size total_updates_ = 0;
  std::vector<PacketCount> per_level_packets_;
  graph::BfsPairScratch pair_bfs_;

  ReliableTransfer* arq_ = nullptr;
  const std::vector<std::uint8_t>* down_ = nullptr;
  PacketCount reg_retx_ = 0;
  Size failed_updates_ = 0;
};

}  // namespace manet::lm
