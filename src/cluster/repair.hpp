#pragma once

#include <span>
#include <vector>

#include "cluster/hierarchy_builder.hpp"
#include "geom/vec2.hpp"
#include "graph/graph.hpp"

/// \file repair.hpp
/// Churn-proportional hierarchy maintenance: event-driven, localized repair
/// of the recursive ALCA hierarchy (ROADMAP item 1).
///
/// The full builder re-derives every level's election from scratch each
/// tick — O(|V| + |E|) at level 0 no matter how little actually moved. The
/// repairer instead consumes the exact level-0 edge delta (in the simulator,
/// net::LinkTracker's delta between consecutive changed ticks) and
/// re-evaluates elections only inside the delta's dirty region:
///
///   * A raw election target raw_elect[u] = argmax_{w in N[u] + {u}} id(w)
///     depends only on u's closed neighborhood, so a link flip (u, v) can
///     change raw elections at u and v only (the 1-hop dirty region).
///   * Clusterhead status is derived: v heads iff someone (possibly v
///     itself) elects it. Maintaining the raw elector count per vertex turns
///     head gain/loss into 0 <-> >0 transitions of that count — reachable
///     only from vertices within 2 hops of a flipped link.
///   * A level k >= 1 exists only through the level-(k-1) head set, so
///     repairs bubble upward only when a level's head set (or its level-k
///     link set) actually changed; otherwise the level's election state is
///     spliced through untouched.
///
/// Bit-identity contract: HierarchyRepairer::repair() produces a Hierarchy
/// equal member-for-member to `HierarchyBuilder(Alca, options).build(g, ids,
/// positions)`. Both run the one recursion, HierarchyBuilder::grow(), and
/// differ only in how a level's election is produced. That election is a
/// canonical pure function of the level's (topology, ids) — ties break by
/// unique ids, heads are emitted in ascending dense order — so producing it
/// from incremental state instead of a full scan cannot change a single
/// byte. tests/cluster/repair_test.cpp re-verifies this against the builder
/// on randomized dynamic topologies; the golden-artifact suite enforces it
/// end-to-end.
///
/// See docs/ARCHITECTURE.md "Incremental hierarchy repair" for the worked
/// example and docs/PAPER_NOTES.md for how the paper's Section 5 events
/// (i)-(vii) map onto the repair triggers here.

namespace manet::cluster {

/// Incrementally maintained ALCA election over one level's (topology, ids).
///
/// State: raw_elect (each vertex's closed-neighborhood argmax by id) and
/// raw_votes (number of raw electors per vertex, self included). The
/// canonical ElectionResult of cluster/alca.cpp is a pure projection of
/// this state, written by emit().
class IncrementalAlca {
 public:
  /// Full (re)seed from \p g: O(|V| + |E|). Equivalent to forgetting all
  /// state and observing the topology whole.
  void seed(const graph::Graph& g, std::span<const NodeId> ids);

  /// Consume the edge flips that turned the previously observed topology
  /// into \p g (same vertex set, same ids). Cost is proportional to the
  /// dirty region: a removed edge rescans an endpoint only when it lost its
  /// elected target; an added edge retargets an endpoint only when the new
  /// neighbor out-ranks its current target.
  void apply(const graph::Graph& g, std::span<const NodeId> ids,
             std::span<const graph::Edge> ups, std::span<const graph::Edge> downs);

  /// Write the election for the last observed (g, ids) — bit-identical to
  /// alca_elect(g, ids).
  void emit(ElectionResult& out) const;

  /// Sorted dense vertices with at least one raw elector (the clusterheads).
  const std::vector<NodeId>& heads() const { return heads_; }

  // Dirty-region accounting for the last apply() (zeroed by seed()).
  Size last_dirty_vertices() const { return last_dirty_; }
  Size last_heads_gained() const { return last_gained_; }
  Size last_heads_lost() const { return last_lost_; }

 private:
  /// Move u's raw election to \p to, maintaining votes and the head set.
  void retarget(NodeId u, NodeId to);
  /// Recompute u's raw election from its current closed neighborhood.
  void rescan(const graph::Graph& g, std::span<const NodeId> ids, NodeId u);

  std::vector<NodeId> raw_elect_;  ///< closed-neighborhood argmax by id
  std::vector<Size> raw_votes_;    ///< raw electors per vertex (self included)
  std::vector<NodeId> heads_;      ///< sorted vertices with raw_votes_ > 0
  Size last_dirty_ = 0;
  Size last_gained_ = 0;
  Size last_lost_ = 0;
};

/// Dirty-region accounting for one level of one repair() call.
struct LevelRepairStats {
  Size edge_flips = 0;      ///< level-k link flips consumed
  Size dirty_vertices = 0;  ///< vertices whose raw election changed
  Size heads_gained = 0;
  Size heads_lost = 0;
  bool reelected = false;  ///< vertex set changed: level fully re-seeded
  bool spliced = false;    ///< no flips: election spliced through unchanged
};

struct RepairStats {
  /// Per-level accounting of the most recent repair() call (entry k covers
  /// the election run on level k, i.e. the one producing level k+1).
  std::vector<LevelRepairStats> levels;
  Size repairs = 0;  ///< repair() calls serviced
  Size reseeds = 0;  ///< level re-elections across all calls (bubbled repairs)
};

/// Event-driven replacement for the per-tick HierarchyBuilder::build() call
/// on the incremental simulation path (RunOptions::localized_repair).
///
/// Usage contract: repair() must be handed the snapshot it produced for the
/// previous tick (`prev`) together with the exact level-0 edge delta between
/// prev's topology and \p g. run_simulation passes net::LinkTracker's delta:
/// the tracker and prev's level 0 both last saw the effective graph of the
/// previous changed tick (bridges included, down nodes stripped), so its
/// update_into() against \p g is that delta on every changed tick. Whenever
/// a tick's snapshot is produced by any other means — a builder call, a
/// different election algorithm — call invalidate() so the next repair()
/// re-seeds instead of trusting stale state. ALCA only: max-min elections
/// have no incremental form here and take the builder path.
class HierarchyRepairer {
 public:
  explicit HierarchyRepairer(HierarchyOptions options = {});

  /// Drop all incremental election state; the next repair() re-seeds every
  /// level (O(full build), after which repairs are churn-proportional again).
  void invalidate() { valid_ = false; }

  /// Produce into \p out the hierarchy for (\p g, \p ids, \p positions) —
  /// bit-identical to HierarchyBuilder(Alca, options).build(g, ids,
  /// positions). \p links_up / \p links_down are the exact edge delta
  /// from prev.level(0).topo to g; they are ignored on re-seeding calls.
  /// A caller without that delta (the raw unit-disk spans exclude bridges
  /// and stripped edges) passes \p level0_delta_exact = false: the repairer
  /// then edge-diffs level 0 against prev itself, exactly as it already does
  /// for every higher level — O(|E|) set differences instead of O(delta),
  /// still far cheaper than re-electing.
  void repair(const graph::Graph& g, std::span<const graph::Edge> links_up,
              std::span<const graph::Edge> links_down, std::span<const NodeId> ids,
              std::span<const geom::Vec2> positions, const Hierarchy& prev,
              Hierarchy& out, bool level0_delta_exact = true);

  const RepairStats& stats() const { return stats_; }

 private:
  HierarchyOptions options_;
  bool valid_ = false;
  std::vector<IncrementalAlca> alca_;  ///< per-level election state
  RepairStats stats_;
  // Scratch reused across ticks (level-k edge diffs).
  std::vector<graph::Edge> ups_scratch_, downs_scratch_;
};

}  // namespace manet::cluster
