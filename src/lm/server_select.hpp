#pragma once

#include <cstdint>
#include <vector>

#include "cluster/hierarchy.hpp"

/// \file server_select.hpp
/// CHLM location-server selection (paper Section 3.2).
///
/// For owner v and hierarchy level k >= 2, the level-k LM server of v is one
/// level-0 node of v's level-k cluster, chosen by a deterministic function of
/// v's id and the cluster — so any node can recompute it with no
/// coordination. Level 1 needs no server (complete topology is known within
/// a level-1 cluster).
///
/// The paper states the requirements (unambiguous selection, equitable load)
/// and explicitly leaves the function open. Three strategies are provided:
/// the default applies the successor-ID rule over the cluster's flat member
/// set — stable under clusterhead renames and perfectly load-balanced (it is
/// a cyclic permutation within each cluster) — while the two hash-chain
/// descent variants reproduce the paper's worked example (node 63: a hash
/// picks level-1 cluster 59 inside 63's level-2 cluster, then node 33 inside
/// cluster 59) and exist as ablations: keying on mutable head ids makes them
/// cascade on renames (see DESIGN.md §6.4 and EXPERIMENTS.md E13).

namespace manet::lm {

/// Server-selection strategy. The paper prescribes the *goals* (unambiguous
/// selection, equitable load) but explicitly leaves the function open; the
/// strategies below trade load equity against assignment stability, and the
/// clustering-ablation bench measures the difference.
enum class SelectStrategy {
  /// Successor-ID rule over the *flat level-0 member set* of the owner's
  /// level-k cluster (consistent hashing). Stable: head renames move
  /// nothing; membership churn moves only the affected id arcs — the
  /// locality the paper's handoff accounting assumes (each reorganization
  /// event moves only the implicated cluster's Theta(log n) entries).
  /// Default.
  kFlatSuccessor,
  /// Hash-chain descent through the cluster tree (the paper's worked
  /// example), with subtree-size-weighted rendezvous at each step. Load is
  /// near-uniform, but selections key on mutable clusterhead ids, so head
  /// renames cascade reassignments through every higher level — measurably
  /// super-polylog handoff (see EXPERIMENTS.md).
  kWeightedDescent,
  /// Descent with unweighted rendezvous (uniform over child clusters);
  /// both unstable under renames and load-skewed toward small clusters.
  kUnweightedDescent,
};

const char* to_string(SelectStrategy strategy);

struct ServerSelectConfig {
  SelectStrategy strategy = SelectStrategy::kFlatSuccessor;
};

/// Level-k LM server (a dense level-0 vertex) for \p owner, selected inside
/// the owner's own level-k cluster. Requires 2 <= k <= h.top_level().
/// Deterministic given (hierarchy, config).
NodeId select_server(const cluster::Hierarchy& h, NodeId owner, Level k,
                     const ServerSelectConfig& config = {});

/// Same descent, but rooted at an explicit level-k cluster \p cluster
/// (dense index at level k) instead of the owner's own. This is what a
/// *requester* computes during a query: "where would the target's level-k
/// server be if the target lived in my level-k cluster?" — the probe chain
/// of GLS-style lookup.
NodeId select_server_in(const cluster::Hierarchy& h, NodeId cluster, Level k, NodeId owner,
                        const ServerSelectConfig& config = {});

/// First level that carries an explicit LM server (levels below it rely on
/// intra-cluster topology knowledge, per the paper).
inline constexpr Level kFirstServedLevel = 2;

/// Bulk assignment: servers for every (owner, level in [2, top]) at once.
/// Fills \p out with out[owner * width + (k - kFirstServedLevel)], width =
/// number of served levels (top - 1 when top >= 2, else 0), and returns
/// width. Each value equals select_server(h, owner, k, config) exactly, but
/// the flat-successor strategy sorts the level-0 vertices by (id, vertex)
/// once and then walks that order once per level, chaining each cluster's
/// members into their cyclic successor ring: one O(n log n) sort plus an
/// O(n) walk per level, with no per-cluster sort or buffer. It is the hot
/// path of every handoff capture and query publish. Reuses \p out's
/// capacity for the result; the flat-successor walk allocates only its id
/// order (n words) and two per-cluster ring ends per call.
Size select_all_servers_into(const cluster::Hierarchy& h, const ServerSelectConfig& config,
                             std::vector<NodeId>& out);

}  // namespace manet::lm
