#include "net/unit_disk.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>

#include "common/check.hpp"
#include "graph/components.hpp"

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

void UnitDiskBuilder::compute_bridges(const std::vector<geom::Vec2>& positions,
                                      const graph::Graph& raw,
                                      std::vector<graph::Edge>& bridges) {
  // Bridge every minor component to the giant one via the closest node pair
  // (checked against every giant-component node; component populations are
  // tiny in practice, so the quadratic scan is cheap and exact).
  const auto labels = graph::component_labels(raw);
  const std::uint32_t n_comp = 1 + *std::max_element(labels.begin(), labels.end());
  comp_size_.assign(n_comp, 0);
  for (const auto l : labels) ++comp_size_[l];
  const std::uint32_t giant = static_cast<std::uint32_t>(
      std::max_element(comp_size_.begin(), comp_size_.end()) - comp_size_.begin());

  giant_nodes_.clear();
  for (NodeId v = 0; v < labels.size(); ++v) {
    if (labels[v] == giant) giant_nodes_.push_back(v);
  }
  for (std::uint32_t c = 0; c < n_comp; ++c) {
    if (c == giant) continue;
    double best_d2 = std::numeric_limits<double>::infinity();
    NodeId best_u = kInvalidNode, best_v = kInvalidNode;
    for (NodeId u = 0; u < labels.size(); ++u) {
      if (labels[u] != c) continue;
      for (const NodeId v : giant_nodes_) {
        const double d2 = geom::distance2(positions[u], positions[v]);
        if (d2 < best_d2) {
          best_d2 = d2;
          best_u = u;
          best_v = v;
        }
      }
    }
    MANET_CHECK(best_u != kInvalidNode);
    bridges.emplace_back(std::min(best_u, best_v), std::max(best_u, best_v));
  }
}

graph::Graph UnitDiskBuilder::build(const std::vector<geom::Vec2>& positions) {
  seeded_ = false;  // stateless path; next update() re-seeds
  grid_.rebuild(positions);
  edge_buffer_.clear();
  // Each pair is seen from both ends; keep the canonical (u < v) one.
  grid_.for_each_neighbor(tx_radius_, 0, grid_.cell_count(),
                          [this](NodeId u, std::span<const NodeId> nbrs) {
                            for (const NodeId v : nbrs) {
                              if (u < v) edge_buffer_.emplace_back(u, v);
                            }
                          });
  graph::Graph g(positions.size(), edge_buffer_);
  last_augmented_ = 0;
  if (!ensure_connected_ || graph::is_connected(g) || positions.size() < 2) return g;

  const Size raw_edges = edge_buffer_.size();
  compute_bridges(positions, g, edge_buffer_);
  last_augmented_ = edge_buffer_.size() - raw_edges;
  return graph::Graph(positions.size(), edge_buffer_);
}

void UnitDiskBuilder::rescan(const std::vector<geom::Vec2>& positions) {
  const Size n = positions.size();
  last_pos_ = positions;
  grid_.rebuild(positions);
  adj_.resize(n);
  // Sharded adjacency build over contiguous occupied-cell ranges: every node
  // lies in exactly one cell, so each shard writes only its own nodes'
  // sorted lists (with build()'s symmetric distance test) — no staging, no
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
  raw_graph_.assign(n, edge_buffer_);

  // Bridges are re-derived on every rescan: the closest-pair rule reads
  // current positions, exactly as build() would.
  std::swap(bridges_, prev_bridges_);
  bridges_.clear();
  if (ensure_connected_ && n >= 2 && !graph::is_connected(raw_graph_)) {
    compute_bridges(positions, raw_graph_, bridges_);
  }
  augmented_ = !bridges_.empty();
  last_augmented_ = bridges_.size();
  if (augmented_) {
    // Append the bridges for the augmented graph, then drop them again:
    // edge_buffer_ must stay the raw set the next tick diffs against.
    edge_buffer_.insert(edge_buffer_.end(), bridges_.begin(), bridges_.end());
    aug_graph_.assign(n, edge_buffer_);
    edge_buffer_.resize(edge_buffer_.size() - bridges_.size());
  }
}

const graph::Graph& UnitDiskBuilder::update(const std::vector<geom::Vec2>& positions) {
  const Size n = positions.size();
  ups_.clear();
  downs_.clear();
  if (!seeded_ || last_pos_.size() != n) {
    rescan(positions);
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
