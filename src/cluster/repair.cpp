#include "cluster/repair.hpp"

#include <algorithm>
#include <iterator>

#include "common/check.hpp"

namespace manet::cluster {

// ---------------------------------------------------------------------------
// IncrementalAlca
// ---------------------------------------------------------------------------

void IncrementalAlca::seed(const graph::Graph& g, std::span<const NodeId> ids) {
  const Size n = g.vertex_count();
  MANET_CHECK_MSG(ids.size() == n, "ids array size must match vertex count");
  raw_elect_.resize(n);
  raw_votes_.assign(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    NodeId best = u;
    for (const NodeId w : g.neighbors(u)) {
      if (ids[w] > ids[best]) best = w;
    }
    raw_elect_[u] = best;
    ++raw_votes_[best];
  }
  heads_.clear();
  for (NodeId v = 0; v < n; ++v) {
    if (raw_votes_[v] > 0) heads_.push_back(v);
  }
  last_dirty_ = last_gained_ = last_lost_ = 0;
}

void IncrementalAlca::retarget(NodeId u, NodeId to) {
  const NodeId old = raw_elect_[u];
  raw_elect_[u] = to;
  ++last_dirty_;
  if (--raw_votes_[old] == 0) {
    heads_.erase(std::lower_bound(heads_.begin(), heads_.end(), old));
    ++last_lost_;
  }
  if (++raw_votes_[to] == 1) {
    heads_.insert(std::lower_bound(heads_.begin(), heads_.end(), to), to);
    ++last_gained_;
  }
}

void IncrementalAlca::rescan(const graph::Graph& g, std::span<const NodeId> ids,
                             NodeId u) {
  NodeId best = u;
  for (const NodeId w : g.neighbors(u)) {
    if (ids[w] > ids[best]) best = w;
  }
  if (best != raw_elect_[u]) retarget(u, best);
}

void IncrementalAlca::apply(const graph::Graph& g, std::span<const NodeId> ids,
                            std::span<const graph::Edge> ups,
                            std::span<const graph::Edge> downs) {
  last_dirty_ = last_gained_ = last_lost_ = 0;
  // Removals first, each rescanning against the FINAL neighborhood: an
  // endpoint is dirty only if it just lost its elected target (anything else
  // it elected still out-ranks the removed neighbor). Rescanning in the final
  // graph may already observe newly added neighbors — harmless, because the
  // additions pass below only ever *raises* a target, and a rescan that
  // already picked the new maximum leaves nothing to raise.
  for (const auto& [u, v] : downs) {
    if (raw_elect_[u] == v) rescan(g, ids, u);
    if (raw_elect_[v] == u) rescan(g, ids, v);
  }
  // Additions: a new neighbor matters only if it out-ranks the current
  // target — no rescan needed, the current target already dominates the rest
  // of the neighborhood.
  for (const auto& [u, v] : ups) {
    if (ids[v] > ids[raw_elect_[u]]) retarget(u, v);
    if (ids[u] > ids[raw_elect_[v]]) retarget(v, u);
  }
}

void IncrementalAlca::emit(ElectionResult& out) const {
  const Size n = raw_elect_.size();
  out.head_of.resize(n);
  out.votes.assign(n, 0);
  out.clusterheads = heads_;
  // Identical to alca_elect(): v heads iff some raw election (self included)
  // targets it; heads self-affiliate (the Fig. 1 remap); votes count
  // neighbors whose final affiliation is v. A non-head u always has
  // raw_elect_[u] != u (electing itself would make it a head), so its raw
  // target survives the remap unchanged.
  for (NodeId u = 0; u < n; ++u) {
    if (raw_votes_[u] > 0) {
      out.head_of[u] = u;
    } else {
      out.head_of[u] = raw_elect_[u];
      ++out.votes[raw_elect_[u]];
    }
  }
}

// ---------------------------------------------------------------------------
// HierarchyRepairer
// ---------------------------------------------------------------------------

HierarchyRepairer::HierarchyRepairer(HierarchyOptions options) : options_(options) {}

void HierarchyRepairer::repair(const graph::Graph& g,
                               std::span<const graph::Edge> links_up,
                               std::span<const graph::Edge> links_down,
                               std::span<const NodeId> ids,
                               std::span<const geom::Vec2> positions,
                               const Hierarchy& prev, Hierarchy& out,
                               bool level0_delta_exact) {
  // `usable` covers the induction that makes per-level splicing sound: prev
  // is the snapshot this repairer produced last call, so for every prev
  // level with >1 vertices, alca_[k] holds exactly the raw-election state of
  // (prev.level(k).topo, prev.level(k).ids). A builder-produced or
  // differently-sized prev (the sim's fallback ticks) arrives with valid_
  // cleared and re-seeds every level.
  const bool usable = valid_ && prev.level_count() > 0 &&
                      prev.level(0).vertex_count() == g.vertex_count();

  ++stats_.repairs;
  stats_.levels.clear();

  // The builder's recursion with the election replaced by splice / repair /
  // re-seed. No ids-uniqueness audit here: ids are fixed per scenario, and
  // the builder validates them when the scenario's first hierarchy is built.
  auto elect = [&](Level k, const LevelView& cur, ElectionResult& election) {
    if (alca_.size() <= k) alca_.resize(k + 1);
    IncrementalAlca& alca = alca_[k];
    LevelRepairStats& ls = stats_.levels.emplace_back();

    // Matching ids mean prev level k had the same dense vertex set, so
    // alca's state is a valid baseline and the edge diff against prev's
    // level-k topology is the exact flip set.
    const bool have_prev =
        usable && k < prev.level_count() && prev.level(k).ids == cur.ids;
    if (!have_prev) {
      alca.seed(cur.topo, cur.ids);
      ls.reelected = true;
      ++stats_.reseeds;
    } else {
      std::span<const graph::Edge> ups_k, downs_k;
      if (k == 0 && level0_delta_exact) {
        ups_k = links_up;
        downs_k = links_down;
      } else {
        const auto a = prev.level(k).topo.edges();
        const auto b = cur.topo.edges();
        ups_scratch_.clear();
        downs_scratch_.clear();
        std::set_difference(b.begin(), b.end(), a.begin(), a.end(),
                            std::back_inserter(ups_scratch_));
        std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                            std::back_inserter(downs_scratch_));
        ups_k = ups_scratch_;
        downs_k = downs_scratch_;
      }
      ls.edge_flips = ups_k.size() + downs_k.size();
      if (ls.edge_flips == 0) {
        // Clean splice: the level's election state is already current.
        ls.spliced = true;
      } else if (ls.edge_flips * 10 >=
                 cur.topo.edge_count() + prev.level(k).topo.edge_count()) {
        // Saturated churn: applying a flip set this large (per-flip rescans
        // plus sorted-head maintenance) costs more than one linear election
        // pass, so cap the repair bill at the re-seed price. This is the
        // "churn-proportional, rebuild-bounded" half of the contract — under
        // torture-grade mobility the repairer degrades to builder cost
        // instead of paying delta overhead on top of it.
        alca.seed(cur.topo, cur.ids);
        ls.reelected = true;
        ++stats_.reseeds;
      } else {
        alca.apply(cur.topo, cur.ids, ups_k, downs_k);
        ls.dirty_vertices = alca.last_dirty_vertices();
        ls.heads_gained = alca.last_heads_gained();
        ls.heads_lost = alca.last_heads_lost();
      }
    }
    alca.emit(election);
  };
  HierarchyBuilder::grow(g, ids, positions, options_, elect, out);
  valid_ = true;
}

}  // namespace manet::cluster
