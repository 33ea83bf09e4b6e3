#include "sim/fault.hpp"

#include <cstdio>

#include "common/check.hpp"

namespace manet::sim {

std::string FaultConfig::describe() const {
  if (!enabled()) return "off";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "loss=%.3g burst=%.3g/%.3g/%.3g crash=%.3g/%.3g outage=%.3g "
                "retry=%zu timeout=%.3g backoff=%.3g audit=%.3g",
                loss, burst_loss, burst_on, burst_len, crash_rate, mean_downtime,
                outage_radius, retry_budget, arq_timeout, arq_backoff, audit_period);
  return buf;
}

FaultPlan FaultPlan::build(const FaultConfig& config, Size n, Time start, Time end,
                           std::uint64_t seed) {
  MANET_CHECK(end >= start);
  FaultPlan plan;
  plan.downtime.resize(n);
  if (!config.churn() || n == 0) return plan;

  // Each node draws its own renewal process from an independent child seed,
  // so the plan is invariant to n-ordering of the draw loop.
  for (NodeId v = 0; v < n; ++v) {
    common::Xoshiro256 rng(common::derive_seed(seed, 0xC4A5000000000000ULL + v));
    Time t = start;
    while (true) {
      t += common::exponential(rng, config.crash_rate);
      if (t >= end) break;
      const Time down = t;
      t += common::exponential(rng, 1.0 / config.mean_downtime);
      // A node still down at the horizon simply never rejoins in-window.
      plan.downtime[v].push_back(Interval{down, t});
    }
  }
  return plan;
}

FaultInjector::FaultInjector(const FaultConfig& config, Size n, Time start, Time end,
                             std::uint64_t seed)
    : config_(config), plan_(FaultPlan::build(config, n, start, end, seed)) {}

bool FaultInjector::crashed(NodeId v, Time t) const {
  if (v >= plan_.downtime.size()) return false;
  for (const auto& iv : plan_.downtime[v]) {
    if (t >= iv.down && t < iv.up) return true;
    if (iv.down > t) break;  // intervals sorted by start
  }
  return false;
}

bool FaultInjector::in_outage(double x, double y, Time t) const {
  if (!config_.outage()) return false;
  if (t < config_.outage_start || t >= config_.outage_start + config_.outage_duration) {
    return false;
  }
  return x * x + y * y <= config_.outage_radius * config_.outage_radius;
}

Size FaultInjector::scheduled_crashes() const {
  Size total = 0;
  for (const auto& ivs : plan_.downtime) total += ivs.size();
  return total;
}

}  // namespace manet::sim
