#include "net/link_tracker.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace manet::net {

std::vector<graph::Edge> edge_difference(std::span<const graph::Edge> a,
                                         std::span<const graph::Edge> b) {
  std::vector<graph::Edge> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

void ShardedEdgeDiff::run(std::span<const graph::Edge> a, std::span<const graph::Edge> b,
                          const sim::ShardExecutor& executor,
                          std::vector<graph::Edge>& out) {
  const Size shards = executor.shard_count();
  if (shard_out_.size() < shards) shard_out_.resize(shards);
  executor.for_each_shard([&](Size s) {
    const auto [begin, end] = sim::ShardExecutor::slice(a.size(), s, shards);
    auto& mine = shard_out_[s];
    mine.clear();
    if (begin == end) return;
    // Only right-hand entries inside the slice's value range can cancel a
    // slice element; both lists are sorted, so the range is two searches.
    const auto b_lo = std::lower_bound(b.begin(), b.end(), a[begin]);
    const auto b_hi = std::upper_bound(b_lo, b.end(), a[end - 1]);
    std::set_difference(a.begin() + static_cast<std::ptrdiff_t>(begin),
                        a.begin() + static_cast<std::ptrdiff_t>(end), b_lo, b_hi,
                        std::back_inserter(mine));
  });
  for (Size s = 0; s < shards; ++s) {
    out.insert(out.end(), shard_out_[s].begin(), shard_out_[s].end());
  }
}

LinkTracker::LinkTracker(const graph::Graph& initial, Time t0)
    : prev_edges_(initial.edges().begin(), initial.edges().end()),
      node_count_(initial.vertex_count()),
      start_time_(t0),
      last_time_(t0) {}

LinkDelta LinkTracker::update(const graph::Graph& current, Time t) {
  LinkDelta delta;
  update_into(current, t, delta);
  return delta;
}

void LinkTracker::update_into(const graph::Graph& current, Time t, LinkDelta& delta) {
  MANET_CHECK_MSG(t >= last_time_, "link tracker time must be monotone");
  MANET_CHECK_MSG(current.vertex_count() == node_count_,
                  "node count changed between snapshots");
  delta.up.clear();
  delta.down.clear();
  diff_.run(current.edges(), prev_edges_, *par_, delta.up);
  diff_.run(prev_edges_, current.edges(), *par_, delta.down);
  total_events_ += delta.event_count();
  prev_edges_.assign(current.edges().begin(), current.edges().end());
  last_time_ = t;
  if (metrics_ != nullptr) {
    up_c_->add(delta.up.size());
    down_c_->add(delta.down.size());
    metrics_->gauge("net.f0").set(events_per_node_per_second());
  }
}

void LinkTracker::advance_unchanged(Time t) {
  MANET_CHECK_MSG(t >= last_time_, "link tracker time must be monotone");
  last_time_ = t;
  if (metrics_ != nullptr) {
    // update() with an identical edge set adds 0 to both counters; only the
    // window-dependent f0 gauge needs refreshing.
    metrics_->gauge("net.f0").set(events_per_node_per_second());
  }
}

void LinkTracker::set_metrics(common::MetricsRegistry* registry) {
  metrics_ = registry;
  if (registry == nullptr) {
    up_c_ = down_c_ = nullptr;
    return;
  }
  up_c_ = &registry->counter("net.link_up");
  down_c_ = &registry->counter("net.link_down");
}

double LinkTracker::events_per_node_per_second() const {
  const Time window = elapsed();
  if (window <= 0.0 || node_count_ == 0) return 0.0;
  return static_cast<double>(total_events_) /
         (static_cast<double>(node_count_) * window);
}

}  // namespace manet::net
