#include "lm/registration.hpp"

#include <cmath>

#include "common/check.hpp"

namespace manet::lm {

RegistrationTracker::RegistrationTracker(RegistrationConfig config) : config_(config) {
  MANET_CHECK(config_.threshold > 0.0);
  MANET_CHECK(config_.tx_radius > 0.0);
}

void RegistrationTracker::prime(const cluster::Hierarchy& h,
                                const std::vector<geom::Vec2>& positions, Time t) {
  const Size n = h.level(0).vertex_count();
  MANET_CHECK(positions.size() == n);
  top_ = h.top_level();
  anchors_.assign(n, {});
  const Size levels = top_ >= kFirstServedLevel ? top_ - kFirstServedLevel + 1 : 0;
  for (NodeId v = 0; v < n; ++v) anchors_[v].assign(levels, positions[v]);
  start_time_ = last_time_ = t;
  primed_ = true;
}

PacketCount RegistrationTracker::price(const graph::Graph& g, NodeId from, NodeId to) {
  if (from == to) return 0;
  const std::uint32_t hops = pair_bfs_.hops(g, from, to);
  return hops == graph::kUnreachable ? 0 : hops;
}

RegistrationTracker::TickResult RegistrationTracker::update(
    const cluster::Hierarchy& h, const HandoffEngine& servers, const graph::Graph& g,
    const std::vector<geom::Vec2>& positions, Time t) {
  MANET_CHECK_MSG(primed_, "RegistrationTracker::update before prime");
  MANET_CHECK_MSG(t >= last_time_, "registration time must be monotone");
  const Size n = anchors_.size();
  MANET_CHECK(positions.size() == n);
  MANET_CHECK_MSG(servers.node_count() == n && servers.top_level() == h.top_level(),
                  "registration servers come from an engine on another hierarchy");

  TickResult tick;
  const Level top = std::min(top_, h.top_level());
  // Hierarchy depth may drift between ticks; anchors for a newly appearing
  // level start at the node's current position (no spurious first update).
  if (h.top_level() > top_) {
    const Size levels =
        h.top_level() >= kFirstServedLevel ? h.top_level() - kFirstServedLevel + 1 : 0;
    for (NodeId v = 0; v < n; ++v) anchors_[v].resize(levels, positions[v]);
    top_ = h.top_level();
  }

  const double n_d = static_cast<double>(n);
  for (Level k = kFirstServedLevel; k <= top; ++k) {
    const double mean_ck = n_d / static_cast<double>(h.cluster_count(k));
    const double delta_k = config_.threshold * config_.tx_radius * std::sqrt(mean_ck);
    const double delta2 = delta_k * delta_k;
    const Size slot = k - kFirstServedLevel;
    if (per_level_packets_.size() <= k) per_level_packets_.resize(k + 1, 0);
    for (NodeId v = 0; v < n; ++v) {
      if (geom::distance2(positions[v], anchors_[v][slot]) < delta2) continue;
      if (arq_ != nullptr && is_down(v)) continue;  // crashed nodes send nothing
      const NodeId server = servers.current_server(v, k);
      PacketCount cost = 0;
      if (arq_ == nullptr) {
        cost = price(g, v, server);
      } else {
        TransferOutcome out;
        if (is_down(server)) {
          out = arq_->transfer_unroutable();
        } else {
          const PacketCount hops = price(g, v, server);
          out = (hops == 0 && v != server) ? arq_->transfer_unroutable()
                                           : arq_->transfer(hops);
        }
        reg_retx_ += out.retx;
        if (!out.delivered) {
          // Budget exhausted: leave the anchor un-refreshed so the distance
          // rule fires again next tick — registration is its own repair.
          ++failed_updates_;
          continue;
        }
        cost = out.packets - out.retx;
      }
      tick.packets += cost;
      ++tick.updates;
      per_level_packets_[k] += cost;
      anchors_[v][slot] = positions[v];
    }
  }
  total_packets_ += tick.packets;
  total_updates_ += tick.updates;
  last_time_ = t;
  return tick;
}

double RegistrationTracker::rate() const {
  const double denom = static_cast<double>(node_count()) * elapsed();
  return denom > 0.0 ? static_cast<double>(total_packets_) / denom : 0.0;
}

void RegistrationTracker::set_resilience(ReliableTransfer* arq,
                                         const std::vector<std::uint8_t>* down) {
  arq_ = arq;
  down_ = down;
}

double RegistrationTracker::retx_rate() const {
  const double denom = static_cast<double>(node_count()) * elapsed();
  return denom > 0.0 ? static_cast<double>(reg_retx_) / denom : 0.0;
}

double RegistrationTracker::rate_at(Level k) const {
  const double denom = static_cast<double>(node_count()) * elapsed();
  if (denom <= 0.0 || k >= per_level_packets_.size()) return 0.0;
  return static_cast<double>(per_level_packets_[k]) / denom;
}

}  // namespace manet::lm
