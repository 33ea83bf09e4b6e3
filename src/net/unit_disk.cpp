#include "net/unit_disk.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/check.hpp"
#include "graph/components.hpp"

namespace manet::net {

graph::Graph build_unit_disk_graph(const std::vector<geom::Vec2>& positions,
                                   double tx_radius) {
  UnitDiskBuilder builder(tx_radius);
  return builder.build(positions);
}

UnitDiskBuilder::UnitDiskBuilder(double tx_radius, bool ensure_connected, double slack_factor)
    : tx_radius_(tx_radius),
      ensure_connected_(ensure_connected),
      slack_(slack_factor * tx_radius),
      grid_(tx_radius * (1.0 + slack_factor)) {
  MANET_CHECK(tx_radius > 0.0);
  MANET_CHECK(slack_factor >= 0.0);
}

void UnitDiskBuilder::compute_bridges(const std::vector<geom::Vec2>& positions,
                                      const graph::Graph& raw,
                                      std::vector<graph::Edge>& bridges) const {
  // Bridge every minor component to the giant one via the closest node pair
  // (checked against every giant-component node; component populations are
  // tiny in practice, so the quadratic scan is cheap and exact).
  const auto labels = graph::component_labels(raw);
  const std::uint32_t n_comp = 1 + *std::max_element(labels.begin(), labels.end());
  auto comp_size = arena_.alloc_span<Size>(n_comp);
  for (const auto l : labels) ++comp_size[l];
  const std::uint32_t giant = static_cast<std::uint32_t>(
      std::max_element(comp_size.begin(), comp_size.end()) - comp_size.begin());

  auto giant_nodes = arena_.alloc_span<NodeId>(comp_size[giant]);
  Size gi = 0;
  for (NodeId v = 0; v < labels.size(); ++v) {
    if (labels[v] == giant) giant_nodes[gi++] = v;
  }
  for (std::uint32_t c = 0; c < n_comp; ++c) {
    if (c == giant) continue;
    double best_d2 = std::numeric_limits<double>::infinity();
    NodeId best_u = kInvalidNode, best_v = kInvalidNode;
    for (NodeId u = 0; u < labels.size(); ++u) {
      if (labels[u] != c) continue;
      for (const NodeId v : giant_nodes) {
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
  inc_valid_ = false;  // stateless path; next update() re-seeds
  arena_.rewind();
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

  bridge_scratch_.clear();
  compute_bridges(positions, g, bridge_scratch_);
  edge_buffer_.insert(edge_buffer_.end(), bridge_scratch_.begin(), bridge_scratch_.end());
  last_augmented_ = bridge_scratch_.size();
  return graph::Graph(positions.size(), edge_buffer_);
}

void UnitDiskBuilder::refresh_cells() {
  // Node -> occupied-bucket map over the anchored snapshot. Every write is
  // an independent pure function of (anchor_pos_, grid_), so any shard
  // split fills the same map.
  const Size n = anchor_pos_.size();
  const Size shards = par_->shard_count();
  par_->for_each_shard([&](Size s) {
    const auto [begin, end] = sim::ShardExecutor::slice(n, s, shards);
    for (Size v = begin; v < end; ++v) {
      state_.set_cell(static_cast<NodeId>(v), grid_.bucket_index_of(anchor_pos_[v]));
    }
  });
}

void UnitDiskBuilder::full_reset(const std::vector<geom::Vec2>& positions) {
  const Size n = positions.size();
  state_.build_from(positions);
  anchor_pos_ = positions;
  grid_.rebuild(positions);
  refresh_cells();
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
  stale_.assign(n, 0);
  stale_list_.clear();
  moved_now_.assign(n, 0);
  inc_valid_ = true;
  refresh_graphs(/*raw_dirty=*/true);
}

void UnitDiskBuilder::refresh_graphs(bool raw_dirty) {
  const Size n = state_.size();
  if (raw_dirty) {
    // Sharded canonical-edge rebuild, written in place: each shard counts
    // the (u, v > u) edges of its node range, a prefix sum over shards
    // places them, and each shard fills its own span of edge_buffer_ — the
    // u-major walk at any shard count.
    const Size shards = par_->shard_count();
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
  }
  bool aug_dirty = false;
  if (ensure_connected_ && n >= 2) {
    // Bridges must be refreshed when the raw edge set changed, and also when
    // any node moved while bridges were active: the closest-pair rule reads
    // current positions, so the full-rebuild path would re-derive them.
    if (raw_dirty || augmented_) {
      std::swap(bridges_, bridge_scratch_);  // keep the old set for the diff
      bridges_.clear();
      if (!graph::is_connected(raw_graph_)) {
        state_.write_back(pos_scratch_);  // AoS bridge for the cold path
        compute_bridges(pos_scratch_, raw_graph_, bridges_);
      }
      aug_dirty = bridges_ != bridge_scratch_;
      augmented_ = !bridges_.empty();
      if (augmented_ && (raw_dirty || aug_dirty)) {
        combine_scratch_.assign(raw_graph_.edges().begin(), raw_graph_.edges().end());
        combine_scratch_.insert(combine_scratch_.end(), bridges_.begin(), bridges_.end());
        aug_graph_.assign(n, combine_scratch_);
      }
    }
  } else {
    augmented_ = false;
    bridges_.clear();
  }
  last_augmented_ = bridges_.size();
  changed_ = raw_dirty || aug_dirty;
}

const graph::Graph& UnitDiskBuilder::update(const std::vector<geom::Vec2>& positions) {
  const Size n = positions.size();
  arena_.rewind();
  if (!inc_valid_ || state_.size() != n) {
    full_reset(positions);
    last_moved_ = n;
    full_rescan_ = true;
    ups_.clear();
    downs_.clear();
    changed_ = true;  // (re)seed: callers must treat the topology as new
    return graph();
  }

  // Exact moved-node detection (any approximation here — a movement
  // threshold — could miss a pair crossing R_TX and break bit-identity),
  // fused with the position commit: the SoA advance() compares coordinate
  // pairs exactly like Vec2::operator!=, records the displacement and
  // commits the new x/y. Committing before the rescan decision is safe —
  // full_reset() rebuilds the whole state from \p positions anyway.
  moved_scratch_.clear();
  state_.advance(positions, moved_scratch_);
  last_moved_ = moved_scratch_.size();
  full_rescan_ = false;
  ups_.clear();
  downs_.clear();
  if (moved_scratch_.empty()) {
    // Nothing moved: the raw set and (position-dependent) bridges are
    // exactly what a full rebuild would produce. Zero work, zero allocation.
    changed_ = false;
    return graph();
  }

  if (4 * last_moved_ > n) {
    // Mostly-moving tick (the exact "> n/4" contract, written without the
    // integer division that would merely obscure it): a full rescan is
    // cheaper than point updates. Preserve the previous *raw* edge set to
    // emit an exact delta — the ups/downs contract covers radio links only,
    // never synthetic bridges.
    full_rescan_ = true;
    old_edges_scratch_.assign(raw_graph_.edges().begin(), raw_graph_.edges().end());
    full_reset(positions);
    const auto new_edges = raw_graph_.edges();
    diff_.run(new_edges, old_edges_scratch_, *par_, ups_);
    diff_.run(old_edges_scratch_, new_edges, *par_, downs_);
    // full_reset's refresh left the pre-reset bridge set in bridge_scratch_,
    // so a position-only bridge swap (same count, different endpoints) is
    // still visible here.
    const bool aug_changed = ensure_connected_ && n >= 2 && bridges_ != bridge_scratch_;
    changed_ = !ups_.empty() || !downs_.empty() || aug_changed;
    return graph();
  }

  // --- Point updates ---
  // Phase 1 (serial; positions were already committed by advance()): mark
  // movers and refresh stale flags. Phase 2 reads that state without
  // writing it, so it shards over the moved list.
  const double slack2 = slack_ * slack_;
  for (const NodeId v : moved_scratch_) {
    moved_now_[v] = 1;
    if (stale_[v] == 0 && geom::distance2(state_.pos(v), anchor_pos_[v]) > slack2) {
      stale_[v] = 1;
      stale_list_.push_back(v);
    }
  }

  // Phase 2 (sharded): contiguous slices of the moved list, per-shard
  // scratch and delta buffers; concatenating the buffers in shard index
  // order reproduces the moved-list emission order exactly.
  const Size shards = par_->shard_count();
  if (shard_ups_.size() < shards) {
    shard_ups_.resize(shards);
    shard_downs_.resize(shards);
    shard_nbr_.resize(shards);
    shard_fresh_.resize(shards);
  }
  par_->for_each_shard([&](Size s) {
    const auto [begin, end] = sim::ShardExecutor::slice(moved_scratch_.size(), s, shards);
    auto& ups = shard_ups_[s];
    auto& downs = shard_downs_[s];
    ups.clear();
    downs.clear();
    for (Size idx = begin; idx < end; ++idx) {
      recompute_moved(moved_scratch_[idx], shard_nbr_[s], shard_fresh_[s], ups, downs);
    }
  });
  for (Size s = 0; s < shards; ++s) {
    ups_.insert(ups_.end(), shard_ups_[s].begin(), shard_ups_[s].end());
    downs_.insert(downs_.end(), shard_downs_[s].begin(), shard_downs_[s].end());
  }
  for (const NodeId v : moved_scratch_) moved_now_[v] = 0;

  // Apply the delta to both endpoints' adjacency lists (sorted insert/erase).
  for (const auto& [a, b] : ups_) {
    auto& na = adj_[a];
    na.insert(std::lower_bound(na.begin(), na.end(), b), b);
    auto& nb = adj_[b];
    nb.insert(std::lower_bound(nb.begin(), nb.end(), a), a);
  }
  for (const auto& [a, b] : downs_) {
    auto& na = adj_[a];
    na.erase(std::lower_bound(na.begin(), na.end(), b));
    auto& nb = adj_[b];
    nb.erase(std::lower_bound(nb.begin(), nb.end(), a));
  }

  refresh_graphs(/*raw_dirty=*/!ups_.empty() || !downs_.empty());

  // Re-anchor the grid once enough nodes drifted beyond the slack; point
  // queries degrade (the stale list is scanned per moved node) before
  // correctness ever would.
  if (stale_list_.size() > std::max<Size>(16, n / 8)) {
    // The committed SoA state equals \p positions bit-for-bit here (every
    // mover was just committed from it), so re-anchor straight off the
    // caller's AoS vector — no write-back copy needed.
    grid_.rebuild(positions);
    anchor_pos_ = positions;
    refresh_cells();
    std::fill(stale_.begin(), stale_.end(), 0);
    stale_list_.clear();
  }
  return graph();
}

void UnitDiskBuilder::recompute_moved(NodeId u, std::vector<NodeId>& nbr,
                                      std::vector<NodeId>& fresh,
                                      std::vector<graph::Edge>& ups,
                                      std::vector<graph::Edge>& downs) const {
  // New exact neighborhood of u: grid candidates are keyed by anchored
  // positions, so widen the query by the slack (a non-stale candidate sits
  // within slack of its anchor) and re-check true distances; stale nodes
  // are not reliably anchored and are scanned directly. Reads only
  // phase-1-committed state (state_, stale_, adj_, moved_now_, grid_),
  // so concurrent calls on distinct u with private buffers are safe.
  //
  // Distance checks run over the SoA x/y arrays: dx*dx + dy*dy is the same
  // expression tree as geom::distance2 (bit-identical), but the operands
  // are contiguous doubles, which is what lets the compiler vectorize the
  // candidate re-check.
  const double r2 = tx_radius_ * tx_radius_;
  const double query_r = tx_radius_ + slack_;
  const double* xs = state_.x();
  const double* ys = state_.y();
  const double ux = xs[u];
  const double uy = ys[u];
  fresh.clear();
  nbr.clear();
  grid_.neighbors_within({ux, uy}, query_r, u, nbr);
  for (const NodeId v : nbr) {
    const double dx = ux - xs[v];
    const double dy = uy - ys[v];
    if (stale_[v] == 0 && dx * dx + dy * dy <= r2) {
      fresh.push_back(v);
    }
  }
  for (const NodeId v : stale_list_) {
    const double dx = ux - xs[v];
    const double dy = uy - ys[v];
    if (v != u && dx * dx + dy * dy <= r2) {
      fresh.push_back(v);
    }
  }
  std::sort(fresh.begin(), fresh.end());

  // Diff against the maintained adjacency. A pair with both endpoints
  // moved is recomputed twice with identical results; emit it once
  // (from the smaller endpoint).
  const auto& old_nbrs = adj_[u];
  auto record = [&](NodeId v, std::vector<graph::Edge>& out) {
    if (moved_now_[v] == 0 || u < v) {
      out.emplace_back(std::min(u, v), std::max(u, v));
    }
  };
  std::size_t i = 0, j = 0;
  while (i < old_nbrs.size() || j < fresh.size()) {
    if (j == fresh.size() || (i < old_nbrs.size() && old_nbrs[i] < fresh[j])) {
      record(old_nbrs[i++], downs);
    } else if (i == old_nbrs.size() || fresh[j] < old_nbrs[i]) {
      record(fresh[j++], ups);
    } else {
      ++i;
      ++j;
    }
  }
}

}  // namespace manet::net
