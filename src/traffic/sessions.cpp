#include "traffic/sessions.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace manet::traffic {

namespace {
/// Interruption-window buckets (seconds) and query-latency buckets (hops).
constexpr double kInterruptionBuckets[] = {0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0};
constexpr double kQueryHopBuckets[] = {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0};
}  // namespace

double SessionStats::rate(Size node_count) const {
  const double denom = static_cast<double>(node_count) * window;
  return denom > 0.0 ? static_cast<double>(data_transmissions) / denom : 0.0;
}

double SessionStats::mean_transmissions_per_session() const {
  const Size delivered = sessions - undeliverable;
  if (delivered == 0) return 0.0;
  return static_cast<double>(data_transmissions) / static_cast<double>(delivered);
}

double SessionStats::misroute_rate() const {
  if (packets_offered == 0) return 0.0;
  return static_cast<double>(packets_misrouted) / static_cast<double>(packets_offered);
}

double SessionStats::loss_rate() const {
  if (packets_offered == 0) return 0.0;
  return static_cast<double>(packets_lost) / static_cast<double>(packets_offered);
}

SessionWorkload::SessionWorkload(SessionConfig config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  MANET_CHECK(config_.sessions_per_node_per_sec > 0.0);
  MANET_CHECK(config_.mean_duration > 0.0);
  MANET_CHECK(config_.packets_per_sec > 0.0);
}

void SessionWorkload::set_metrics(common::MetricsRegistry* registry) {
  if (registry == nullptr) {
    offered_c_ = delivered_c_ = misrouted_c_ = lost_c_ = nullptr;
    interruption_h_ = query_hops_h_ = nullptr;
    return;
  }
  offered_c_ = &registry->counter("session.packets");
  delivered_c_ = &registry->counter("session.delivered");
  misrouted_c_ = &registry->counter("session.misrouted");
  lost_c_ = &registry->counter("session.lost");
  interruption_h_ = &registry->histogram("session.interruption_s", kInterruptionBuckets);
  query_hops_h_ = &registry->histogram("session.query_hops", kQueryHopBuckets);
}

void SessionWorkload::tick(const routing::RoutingTables& tables, Size node_count, Time dt) {
  MANET_CHECK(dt > 0.0);
  if (node_count < 2) {
    // Crash faults can leave fewer than 2 alive nodes; a tick with no
    // possible pairs is a skipped tick, not a fatal condition.
    ++stats_.skipped_ticks;
    return;
  }
  const double lambda =
      config_.sessions_per_node_per_sec * static_cast<double>(node_count) * dt;
  const std::uint64_t n_sessions = common::poisson(rng_, lambda);

  for (std::uint64_t s = 0; s < n_sessions; ++s) {
    const auto src = static_cast<NodeId>(common::uniform_index(rng_, node_count));
    auto dst = static_cast<NodeId>(common::uniform_index(rng_, node_count - 1));
    if (dst >= src) ++dst;  // uniform over peers != src
    ++stats_.sessions;
    const auto routed = tables.route(src, dst, route_scratch_);
    if (!routed.delivered) {
      ++stats_.undeliverable;
      continue;
    }
    if (routed.recovered) ++stats_.recovered;
    stats_.data_transmissions +=
        static_cast<PacketCount>(kPacketsPerSession) * static_cast<PacketCount>(routed.hops);
  }
  stats_.window += dt;
}

void SessionWorkload::close_window(Live& session, Time now) {
  if (!session.interrupted) return;
  const double length = now - session.interrupted_since;
  session.interrupted = false;
  ++stats_.interruptions;
  stats_.interruption_time += length;
  windows_.push_back(length);
  if (interruption_h_ != nullptr) interruption_h_->observe(length);
}

SessionWorkload::PacketFate SessionWorkload::fate_of(const Live& session,
                                                    const TickContext& ctx,
                                                    routing::RouteScratch& scratch) const {
  PacketFate fate;
  if (is_down(ctx, session.src) || is_down(ctx, session.dst)) return fate;
  LocateOutcome loc{LocateResult::kFresh, session.dst, kInvalidNode};
  if (ctx.locator != nullptr) loc = ctx.locator->locate(session.dst);
  if (loc.result == LocateResult::kMiss) return fate;
  if (loc.result == LocateResult::kStaleHit && loc.holder != kInvalidNode &&
      loc.holder != session.dst) {
    // The packet chases the out-of-date locator to its holder first, then
    // on to the real destination — the user-visible cost of a stale entry.
    fate.misrouted = true;
    const auto chase = ctx.tables->route(session.src, loc.holder, scratch);
    if (!chase.delivered) return fate;
    const auto onward = ctx.tables->route(loc.holder, session.dst, scratch);
    if (!onward.delivered) return fate;
    fate.delivered = true;
    fate.misroute_extra = chase.hops;
    fate.transmissions = static_cast<PacketCount>(chase.hops) + onward.hops;
    return fate;
  }
  const auto routed = ctx.tables->route(session.src, session.dst, scratch);
  fate.delivered = routed.delivered;
  fate.undeliverable = !routed.delivered;  // a genuine routing failure, as in legacy mode
  fate.recovered = routed.recovered;
  fate.transmissions = routed.hops;
  return fate;
}

void SessionWorkload::charge(const PacketFate& fate, Size packets) {
  const auto count = static_cast<PacketCount>(packets);
  stats_.packets_offered += packets;
  if (offered_c_ != nullptr) offered_c_->add(count);
  if (fate.misrouted) {
    stats_.packets_misrouted += packets;
    if (misrouted_c_ != nullptr) misrouted_c_->add(count);
  }
  if (!fate.delivered) {
    stats_.packets_lost += packets;
    if (fate.undeliverable) stats_.undeliverable += packets;
    if (lost_c_ != nullptr) lost_c_->add(count);
    return;
  }
  if (fate.recovered) stats_.recovered += packets;
  stats_.data_transmissions += count * fate.transmissions;
  stats_.misroute_extra += count * fate.misroute_extra;
  stats_.packets_delivered += packets;
  if (delivered_c_ != nullptr) delivered_c_->add(count);
}

void SessionWorkload::tick_sessions(const TickContext& ctx) {
  MANET_CHECK(ctx.dt > 0.0);
  MANET_CHECK(ctx.tables != nullptr);
  if (ctx.node_count < 2) {
    ++stats_.skipped_ticks;
    return;
  }
  stats_.window += ctx.dt;

  // Expire finished sessions (stable order; a session interrupted at its
  // natural end closes its window there).
  const auto expired = std::stable_partition(
      live_.begin(), live_.end(),
      [&](const Live& s) { return s.ends_at > ctx.now; });
  for (auto it = expired; it != live_.end(); ++it) close_window(*it, ctx.now);
  live_.erase(expired, live_.end());

  // Poisson arrivals between uniform random pairs. RNG draws are consumed
  // regardless of endpoint liveness so the stream stays aligned; sessions
  // toward dark endpoints simply are not admitted (their packets would only
  // measure the crash plane, not the handover plane).
  const double lambda =
      config_.sessions_per_node_per_sec * static_cast<double>(ctx.node_count) * ctx.dt;
  const std::uint64_t arrivals = common::poisson(rng_, lambda);
  for (std::uint64_t s = 0; s < arrivals; ++s) {
    const auto src = static_cast<NodeId>(common::uniform_index(rng_, ctx.node_count));
    auto dst = static_cast<NodeId>(common::uniform_index(rng_, ctx.node_count - 1));
    if (dst >= src) ++dst;
    const double duration = common::exponential(rng_, 1.0 / config_.mean_duration);
    if (is_down(ctx, src) || is_down(ctx, dst)) continue;
    ++stats_.sessions;
    live_.push_back(Live{src, dst, ctx.now + duration, false, 0.0});
    // Query-latency sample at session setup: hops from the caller to the
    // answering LM server over the live tables.
    if (query_hops_h_ != nullptr && ctx.locator != nullptr) {
      const LocateOutcome loc = ctx.locator->locate(dst);
      if (loc.result != LocateResult::kMiss && loc.server != kInvalidNode) {
        const auto to_server = ctx.tables->route(src, loc.server, route_scratch_);
        if (to_server.delivered) query_hops_h_->observe(static_cast<double>(to_server.hops));
      }
    }
  }

  // Every live session's one fate this tick, over the shards: fate_of only
  // reads, and each shard writes the slots of its own slice. One route
  // scratch per executing thread, not per shard, as in handoff pricing.
  fates_.resize(live_.size());
  const Size shards = par_->shard_count();
  par_->for_each_shard([&](Size shard) {
    thread_local routing::RouteScratch scratch;
    const auto [begin, end] = sim::ShardExecutor::slice(live_.size(), shard, shards);
    for (Size i = begin; i < end; ++i) fates_[i] = fate_of(live_[i], ctx, scratch);
  });

  // Charged serially in session order to each of the session's per-tick
  // packets; delivered packets close an open interruption window, a failed
  // tick opens one.
  const auto packets_per_tick = static_cast<Size>(
      std::max<long>(1, std::lround(config_.packets_per_sec * ctx.dt)));
  for (Size i = 0; i < live_.size(); ++i) {
    Live& session = live_[i];
    const PacketFate& fate = fates_[i];
    charge(fate, packets_per_tick);
    if (fate.delivered) {
      close_window(session, ctx.now);
    } else if (!session.interrupted) {
      session.interrupted = true;
      session.interrupted_since = ctx.now;
    }
  }
}

void SessionWorkload::finish(Time now) {
  for (auto& session : live_) close_window(session, now);
}

double SessionWorkload::interruption_quantile(double q) const {
  // No closed windows -> the quantile is undefined, not zero. NaN is the
  // repo-wide "metric absent" sentinel (RunMetrics::has() reads it as
  // absent, AggregatedMetrics skips it, JSON writers emit null); returning
  // 0.0 here would conflate "never interrupted" with "p99 of 0 seconds" in
  // every downstream aggregate.
  if (windows_.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::vector<double> sorted = windows_;
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::min(std::max(q, 0.0), 1.0);
  const auto idx = static_cast<Size>(clamped * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace manet::traffic
