#include "net/unit_disk.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>

#include "common/check.hpp"

namespace manet::net {

namespace {
/// Grid cell side in units of R_TX: R_TX-sized cells measured no faster.
constexpr double kCellPerRadius = 1.5;
}  // namespace

graph::Graph build_unit_disk_graph(const std::vector<geom::Vec2>& positions,
                                   double tx_radius) {
  UnitDiskBuilder builder(tx_radius);
  return builder.build(positions);
}

UnitDiskBuilder::UnitDiskBuilder(double tx_radius, bool ensure_connected)
    : tx_radius_(tx_radius),
      ensure_connected_(ensure_connected),
      grid_(tx_radius * kCellPerRadius) {
  MANET_CHECK(tx_radius > 0.0);
}

void UnitDiskBuilder::compute_bridges(const std::vector<geom::Vec2>& positions) {
  // Components of the raw graph, labeled by BFS from each unlabeled node in
  // id order (component_labels' numbering); the giant is the first largest.
  // The scratch is per call, as component_labels' was: kept, the labels
  // and the queue would add 8 bytes per node to the peak of every run.
  constexpr std::uint32_t kUnlabeled = std::numeric_limits<std::uint32_t>::max();
  const Size n = positions.size();
  std::vector<std::uint32_t> labels(n, kUnlabeled);
  std::vector<NodeId> queue(n);
  std::vector<Size> comp_size;
  for (NodeId s = 0; s < n; ++s) {
    if (labels[s] != kUnlabeled) continue;
    const auto c = static_cast<std::uint32_t>(comp_size.size());
    Size head = 0, tail = 0;
    labels[s] = c;
    queue[tail++] = s;
    while (head < tail) {
      for (const NodeId w : adj_[queue[head++]]) {
        if (labels[w] != kUnlabeled) continue;
        labels[w] = c;
        queue[tail++] = w;
      }
    }
    comp_size.push_back(tail);
  }
  if (comp_size.size() < 2) return;
  const auto giant = static_cast<std::uint32_t>(
      std::max_element(comp_size.begin(), comp_size.end()) - comp_size.begin());

  // Each minor member in id order asks the grid for its nearest giant node
  // (lowest id on ties) strictly closer than its component's pair so far,
  // so a later member wins only when strictly closer: the first minimum in
  // (u, v) order, as the all-pairs scan found it.
  struct ClosestPair {
    double d2;
    NodeId u, v;
  };
  std::vector<ClosestPair> closest(
      comp_size.size(), {std::numeric_limits<double>::infinity(), kInvalidNode, kInvalidNode});
  const auto in_giant = [&](NodeId w) { return labels[w] == giant; };
  for (NodeId u = 0; u < n; ++u) {
    if (labels[u] == giant) continue;
    ClosestPair& pair = closest[labels[u]];
    const NodeId v = grid_.nearest(positions[u], in_giant, pair.d2);
    if (v != kInvalidNode) {
      pair.u = u;
      pair.v = v;
    }
  }
  for (std::uint32_t c = 0; c < closest.size(); ++c) {
    if (c == giant) continue;
    const ClosestPair& pair = closest[c];
    MANET_CHECK(pair.u != kInvalidNode);
    bridges_.emplace_back(std::min(pair.u, pair.v), std::max(pair.u, pair.v));
  }
}

graph::Graph UnitDiskBuilder::build(const std::vector<geom::Vec2>& positions) {
  rescan(positions);
  seeded_ = false;  // stateless path; next update() re-seeds
  built_ = true;
  return graph_;
}

void UnitDiskBuilder::rescan(const std::vector<geom::Vec2>& positions) {
  const Size n = positions.size();
  last_pos_ = positions;
  grid_.rebuild(positions);
  adj_.resize(n);
  // Sharded adjacency build over contiguous occupied-cell ranges: every node
  // lies in exactly one cell, so each shard writes only its own nodes'
  // sorted lists (with the grid's symmetric distance test) — no staging, no
  // serial merge, and lists that depend on neither the shard nor the thread
  // count.
  const Size shards = par_->shard_count();
  const Size cells = grid_.cell_count();
  par_->for_each_shard([&](Size s) {
    const auto [begin, end] = sim::ShardExecutor::slice(cells, s, shards);
    grid_.for_each_neighbor(tx_radius_, begin, end,
                            [this](NodeId u, std::span<const NodeId> nbrs) {
                              adj_[u].assign(nbrs.begin(), nbrs.end());
                              std::sort(adj_[u].begin(), adj_[u].end());
                            });
  });

  // Sharded canonical-edge fill, written in place: each shard counts the
  // (u, v > u) edges of its node range, a prefix sum over shards places
  // them, and each shard fills its own span of edge_buffer_ — the u-major
  // walk at any shard count.
  shard_offsets_.assign(shards + 1, 0);
  par_->for_each_shard([&](Size s) {
    const auto [begin, end] = sim::ShardExecutor::slice(n, s, shards);
    Size count = 0;
    for (Size u = begin; u < end; ++u) {
      count += static_cast<Size>(adj_[u].end() - std::upper_bound(adj_[u].begin(),
                                                                  adj_[u].end(), u));
    }
    shard_offsets_[s + 1] = count;
  });
  std::partial_sum(shard_offsets_.begin(), shard_offsets_.end(), shard_offsets_.begin());
  edge_buffer_.resize(shard_offsets_[shards]);
  par_->for_each_shard([&](Size s) {
    const auto [begin, end] = sim::ShardExecutor::slice(n, s, shards);
    auto out = edge_buffer_.begin() + static_cast<std::ptrdiff_t>(shard_offsets_[s]);
    for (Size u = begin; u < end; ++u) {
      const auto& a = adj_[u];
      for (auto v = std::upper_bound(a.begin(), a.end(), u); v != a.end(); ++v) {
        *out++ = graph::Edge(static_cast<NodeId>(u), *v);
      }
    }
  });

  // Bridges are re-derived on every rescan: the closest-pair rule reads
  // current positions.
  std::swap(bridges_, prev_bridges_);
  bridges_.clear();
  if (ensure_connected_ && n >= 2) compute_bridges(positions);
  last_augmented_ = bridges_.size();
  // One assembly, of the graph graph() returns: append the bridges, then
  // drop them again — edge_buffer_ must stay the raw set the next tick
  // diffs against.
  edge_buffer_.insert(edge_buffer_.end(), bridges_.begin(), bridges_.end());
  graph_.assign(n, edge_buffer_);
  edge_buffer_.resize(edge_buffer_.size() - bridges_.size());
}

const graph::Graph& UnitDiskBuilder::update(const std::vector<geom::Vec2>& positions) {
  const Size n = positions.size();
  ups_.clear();
  downs_.clear();
  if (!seeded_ || last_pos_.size() != n) {
    // A seed on the very positions build() just scanned takes that rescan's
    // state as it stands: it is exactly what a rescan here would produce.
    if (!built_ || positions != last_pos_) rescan(positions);
    built_ = false;
    seeded_ = true;
    last_moved_ = n;
    full_rescan_ = true;
    changed_ = true;  // (re)seed: callers must treat the topology as new
    return graph();
  }

  // Exact moved-node detection: any approximation here — a movement
  // threshold — could miss a pair crossing R_TX and break bit-identity.
  last_moved_ = 0;
  for (Size v = 0; v < n; ++v) {
    if (positions[v] != last_pos_[v]) ++last_moved_;
  }
  full_rescan_ = last_moved_ > 0;
  if (!full_rescan_) {
    // Nothing moved: the raw set and (position-dependent) bridges are
    // exactly what a full rebuild would produce. Zero work, zero allocation.
    changed_ = false;
    return graph();
  }

  // Keep the previous raw edge set (edge_buffer_ holds it canonical and
  // sorted) to emit an exact delta — the ups/downs contract covers radio
  // links only, never synthetic bridges.
  std::swap(edge_buffer_, prev_edges_);
  rescan(positions);
  diff_.run(edge_buffer_, prev_edges_, *par_, ups_);
  diff_.run(prev_edges_, edge_buffer_, *par_, downs_);
  // A position-only bridge swap (same count, different endpoints) changes
  // the graph with an empty raw delta.
  changed_ = !ups_.empty() || !downs_.empty() || bridges_ != prev_bridges_;
  return graph();
}

}  // namespace manet::net
