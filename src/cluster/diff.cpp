#include "cluster/diff.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "common/check.hpp"

namespace manet::cluster {

const char* to_string(ReorgEventType type) {
  switch (type) {
    case ReorgEventType::kLinkUp: return "i:link_up";
    case ReorgEventType::kLinkDown: return "ii:link_down";
    case ReorgEventType::kElectByMigration: return "iii:elect_migration";
    case ReorgEventType::kRejectByMigration: return "iv:reject_migration";
    case ReorgEventType::kElectRecursive: return "v:elect_recursive";
    case ReorgEventType::kRejectRecursive: return "vi:reject_recursive";
    case ReorgEventType::kNeighborPromoted: return "vii:neighbor_promoted";
  }
  return "?";
}

Size HierarchyDelta::count(ReorgEventType type, Level level) const {
  const auto& per_level = event_counts[static_cast<std::size_t>(type)];
  return level < per_level.size() ? per_level[level] : 0;
}

namespace {

using IdPair = std::pair<NodeId, NodeId>;

/// Fill \p out with the sorted original ids of V_k; empty when the hierarchy
/// lacks level k.
void sorted_head_ids(const Hierarchy& h, Level k, std::vector<NodeId>& out) {
  out.clear();
  if (k >= h.level_count()) return;
  const auto& ids = h.level(k).ids;
  out.assign(ids.begin(), ids.end());
  std::sort(out.begin(), out.end());
}

/// Fill \p out with the canonical sorted id-pair list of E_k; empty when
/// level k is absent.
void sorted_link_ids(const Hierarchy& h, Level k, std::vector<IdPair>& out) {
  out.clear();
  if (k >= h.level_count()) return;
  const auto& view = h.level(k);
  out.reserve(view.topo.edge_count());
  for (const auto& [a, b] : view.topo.edges()) {
    NodeId ia = view.ids[a];
    NodeId ib = view.ids[b];
    if (ia > ib) std::swap(ia, ib);
    out.emplace_back(ia, ib);
  }
  std::sort(out.begin(), out.end());
}

bool contains_sorted(std::span<const NodeId> sorted, NodeId id) {
  return std::binary_search(sorted.begin(), sorted.end(), id);
}

void record(HierarchyDelta& delta, ReorgEventType type, Level level, NodeId a, NodeId b) {
  delta.events.push_back(ReorgEvent{type, level, a, b});
  auto& per_level = delta.event_counts[static_cast<std::size_t>(type)];
  if (per_level.size() <= level) per_level.resize(level + 1, 0);
  ++per_level[level];
}

/// Records an election (iii)/(v) or rejection (iv)/(vi) event for each id in
/// \p heads, the heads V_k gained or lost, judged in \p h, the snapshot where
/// they are heads. A head's voters are the level-(k-1) vertices of its
/// level-k cluster other than its own (head_of[h] == h): the cluster's
/// children, ascending by dense vertex. The event is recursive when a voter
/// is missing from \p other_heads, V_{k-1} of the other snapshot (sorted),
/// and that voter is the witness; otherwise the first voter is. \p dense is
/// scratch for the level's id -> dense index.
void record_head_changes(HierarchyDelta& delta, const Hierarchy& h, Level k,
                         std::span<const NodeId> heads, std::span<const NodeId> other_heads,
                         ReorgEventType recursive_type, ReorgEventType migration_type,
                         IdIndex& dense) {
  if (heads.empty()) return;
  const auto& voter_ids = h.level(k - 1).ids;
  index_ids(h.level(k).ids, dense);
  for (const NodeId head : heads) {
    const NodeId cluster = vertex_of(dense, head);
    MANET_CHECK(cluster != kInvalidNode);
    bool recursive = false;
    NodeId witness = kInvalidNode;
    for (const NodeId u : h.children(k, cluster)) {
      const NodeId voter = voter_ids[u];
      if (voter == head) continue;
      if (witness == kInvalidNode) witness = voter;
      if (k >= 2 && !contains_sorted(other_heads, voter)) {
        recursive = true;
        witness = voter;
        break;
      }
    }
    record(delta, recursive ? recursive_type : migration_type, k, head, witness);
  }
}

}  // namespace

namespace {

/// Clear-and-resize for the per-level vector-of-vectors members: keeps the
/// outer vector and every surviving inner buffer's capacity.
template <typename Inner>
void reset_levels(std::vector<Inner>& levels, Size size) {
  for (auto& inner : levels) inner.clear();
  levels.resize(size);
}

}  // namespace

HierarchyDelta diff_hierarchies(const Hierarchy& before, const Hierarchy& after) {
  HierarchyDelta delta;
  diff_hierarchies(before, after, delta);
  return delta;
}

void diff_hierarchies(const Hierarchy& before, const Hierarchy& after, HierarchyDelta& delta) {
  MANET_CHECK_MSG(before.level(0).vertex_count() == after.level(0).vertex_count(),
                  "hierarchy diff requires identical node populations");
  // Per-thread scratch: campaign workers diff disjoint runs, and the scratch
  // contents never outlive the call, so thread_local reuse is safe and keeps
  // the per-tick diff allocation-free once the vectors have sized themselves.
  thread_local std::vector<std::vector<NodeId>> heads_before, heads_after;
  thread_local std::vector<IdPair> before_links, after_links;
  thread_local IdIndex dense;  // id -> dense, events (iii)-(vii)
  delta.migrations.clear();
  delta.events.clear();
  for (auto& per_level : delta.event_counts) per_level.clear();

  const Level top_before = before.top_level();
  const Level top_after = after.top_level();
  const Level top_common = std::min(top_before, top_after);
  const Level top_any = std::max(top_before, top_after);

  // --- Per-node cluster membership migrations (phi triggers) ---
  const Size n = after.level(0).vertex_count();
  for (Level k = 1; k <= top_common; ++k) {
    for (NodeId v = 0; v < n; ++v) {
      const NodeId from = before.ancestor_id(v, k);
      const NodeId to = after.ancestor_id(v, k);
      if (from != to) delta.migrations.push_back(Migration{v, k, from, to});
    }
  }

  // --- Head and link set changes per level ---
  reset_levels(delta.heads_gained, top_any + 2);
  reset_levels(delta.heads_lost, top_any + 2);
  reset_levels(delta.links_up, top_any + 1);
  reset_levels(delta.links_down, top_any + 1);

  // V_0 (all n ids) is never read: the set differences start at k = 1,
  // events (i)/(ii) read level k + 1 >= 2, and record_head_changes reads
  // V_{k-1} only at k >= 2. So level 0 is left empty, not sorted.
  if (heads_before.size() < top_any + 2) heads_before.resize(top_any + 2);
  if (heads_after.size() < top_any + 2) heads_after.resize(top_any + 2);
  for (Level k = 1; k <= top_any + 1; ++k) {
    sorted_head_ids(before, k, heads_before[k]);
    sorted_head_ids(after, k, heads_after[k]);
  }

  for (Level k = 1; k <= top_any + 1; ++k) {
    std::set_difference(heads_after[k].begin(), heads_after[k].end(), heads_before[k].begin(),
                        heads_before[k].end(), std::back_inserter(delta.heads_gained[k]));
    std::set_difference(heads_before[k].begin(), heads_before[k].end(), heads_after[k].begin(),
                        heads_after[k].end(), std::back_inserter(delta.heads_lost[k]));
  }

  for (Level k = 1; k <= top_any; ++k) {
    sorted_link_ids(before, k, before_links);
    sorted_link_ids(after, k, after_links);
    std::set_difference(after_links.begin(), after_links.end(), before_links.begin(),
                        before_links.end(), std::back_inserter(delta.links_up[k]));
    std::set_difference(before_links.begin(), before_links.end(), after_links.begin(),
                        after_links.end(), std::back_inserter(delta.links_down[k]));
  }

  // --- Events (i)/(ii): level-k cluster link changes touching V_{k+1} ---
  // A level-k link change forces handoff only when an endpoint is a
  // level-(k+1) node, because then level-(k+1) cluster membership shifts
  // (paper Section 5.2 i/ii). Membership is judged in the snapshot where the
  // link exists.
  for (Level k = 1; k <= top_any; ++k) {
    for (const auto& [x, y] : delta.links_up[k]) {
      if (k + 1 < delta.heads_gained.size() &&
          (contains_sorted(heads_after[k + 1], x) || contains_sorted(heads_after[k + 1], y))) {
        record(delta, ReorgEventType::kLinkUp, k, x, y);
      }
    }
    for (const auto& [x, y] : delta.links_down[k]) {
      if (k + 1 < delta.heads_gained.size() &&
          (contains_sorted(heads_before[k + 1], x) || contains_sorted(heads_before[k + 1], y))) {
        record(delta, ReorgEventType::kLinkDown, k, x, y);
      }
    }
  }

  // --- Events (iii)-(vi): clusterhead election / rejection ---
  // Election of h into V_k is "recursive" (v) when some voter that now
  // affiliates with h was itself just promoted into V_{k-1}; otherwise the
  // voter set changed through migration (iii). Rejection mirrors this with
  // the before-snapshot voters (iv)/(vi).
  for (Level k = 1; k <= top_any + 1; ++k) {
    record_head_changes(delta, after, k, delta.heads_gained[k], heads_before[k - 1],
                        ReorgEventType::kElectRecursive, ReorgEventType::kElectByMigration,
                        dense);
    record_head_changes(delta, before, k, delta.heads_lost[k], heads_after[k - 1],
                        ReorgEventType::kRejectRecursive, ReorgEventType::kRejectByMigration,
                        dense);
  }

  // --- Event (vii): a level-k neighbor promoted to level-(k+1) head ---
  // Counted once per (affected level-k neighbor, new head) pair, per the
  // paper's note that (vii) applies to each u_k in N_k(v).
  for (Level k = 1; k <= top_any; ++k) {
    if (k + 1 >= delta.heads_gained.size()) break;
    if (k >= after.level_count()) break;
    const auto& view = after.level(k);
    index_ids(view.ids, dense);
    for (const NodeId h : delta.heads_gained[k + 1]) {
      const NodeId found = vertex_of(dense, h);
      if (found == kInvalidNode) continue;
      for (const NodeId u : view.topo.neighbors(found)) {
        record(delta, ReorgEventType::kNeighborPromoted, k, view.ids[u], h);
      }
    }
  }
}

}  // namespace manet::cluster
