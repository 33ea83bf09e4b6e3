#pragma once

#include <cstdint>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/graph.hpp"
#include "sim/shard.hpp"

/// \file hop_oracle.hpp
/// Landmark-guided exact hop queries for the per-tick pricing loops.
///
/// The LM handoff engine prices every server move at hops(old, new) on the
/// level-0 topology. Bidirectional BFS (graph/bfs.hpp) already avoids full
/// sweeps, but a high-mobility tick at n = 4096 issues thousands of pricing
/// queries spread almost uniformly over all distances, and at 20+ hops each
/// bidirectional ball covers most of the graph. Per-tick caching cannot help
/// — measured query streams touch ~3.4k distinct endpoints with ~4 queries
/// each, so per-source sweeps cost more than they save. What does help is a
/// stronger per-query algorithm: A* with landmark (ALT) lower bounds, which
/// expands a corridor along the path instead of distance-radius balls.
///
/// Heuristic: pick K landmarks by farthest-point sampling, run one BFS sweep
/// per landmark per prepare(), and bound
///
///   h(u) = max_k |d(L_k, u) - d(L_k, t)|  <=  d(u, t)
///
/// by the triangle inequality; the same table also upper-bounds the query
/// distance as min_k (d(L_k, s) + d(L_k, t)). The bounds need nothing but
/// the graph — they are valid on connectivity-augmentation bridges,
/// fault-stripped topologies and any other edge set, unlike a Euclidean
/// bound, which over-length bridge edges would break. (A Euclidean ceil
/// heuristic was measured on exactly this workload and shaved < 0.1% of A*
/// expansions: at the paper's degree-12 density, hop-count detours are large
/// enough that |pos(u) - pos(t)| / R sits far below the true distance, so it
/// never dominates the landmark bound.)
///
/// Exactness: each |d(L, u) - d(L, v)| changes by at most 1 across an edge
/// (both sweeps change by at most 1), so h is consistent (and h(t) = 0). A*
/// with a consistent heuristic settles every vertex at its true distance, so
/// the returned count equals plain BFS bit for bit. With unit edges, keys
/// f = g + h change by at most +2 per expansion, so a 3-slot rotating bucket
/// queue replaces the heap with O(1) push/pop.
///
/// Tie order: on a hop-metric unit-disk graph most vertices near the s-t
/// corridor share the minimum key f = d(s, t). The current bucket pops LIFO,
/// so the vertex just pushed at that key expands next and the search dives
/// along the band to t instead of sweeping it breadth-first (on four
/// n = 16 384, mu 1 ticks: 2.4-3.0 M expansions per tick, against 5.3-6.5 M
/// for a FIFO pop). The order inside the minimum bucket cannot change a
/// result: if a popped vertex u held g(u) > d(s, u), the first unsettled
/// vertex v on a shortest s-u path would be open with g(v) + h(v) =
/// d(s, v) + h(v) <= d(s, u) + h(u) < g(u) + h(u), below the minimum key —
/// a contradiction whatever the ties.
///
/// Disconnected graphs: a landmark that reaches exactly one of the endpoints
/// proves they lie in different components (kUnreachable without any
/// search); landmarks reaching neither contribute no bound and are skipped.
namespace manet::net {

/// Exact point-to-point hop distances on one prepared graph snapshot.
///
/// prepare(g, pairs, executor) selects K landmarks and runs one BFS sweep
/// per landmark (O(K (V + E)), amortized over the tick's queries); hops(s, t)
/// answers one query. On a 4-core host at the simulator's mobile radius,
/// 16 landmarks take 3.2 ms inline at n = 4096 and 16 ms at n = 16 384, and
/// 8 ms over 4 threads at n = 16 384, where 32 take 14 ms; the 4 round-1
/// sweeps (about 4 ms there) stay serial. The landmark table is stored
/// interleaved, all K distances of a vertex in one 16-bit row (2K bytes,
/// row stride K), because the A* inner loop reads all K entries of each
/// touched vertex.
///
/// Width by load: K is 32 when the tick prices at least n / 2 distinct pairs
/// (2 * pairs >= n), else 16. On dumped n = 16 384 ticks, 32 landmarks cut
/// A* heuristic evaluations by a fifth to a quarter (mu 1) but cost 16 more
/// sweeps, which paid only above about 5 k pairs. The rule reads (n, pairs)
/// only, never the thread or shard count; every width is exact, so it picks
/// a speed, never a value. hops() dispatches to one search instantiated per
/// width.
///
/// Two-round selection. Farthest-point sampling starts from the
/// highest-degree vertex (lowest id on ties): one pass over the degrees that
/// lands in the main component on the simulator's topologies, and never on
/// an isolated vertex while any edge exists (the fault plane strips crashed
/// vertices to degree 0, and a start on one of them would read eccentricity
/// 0 and disarm the whole tick).
///   * Round 1 runs 4 farthest-point sweeps serially, each pick reading the
///     sweeps before it; the shallow-graph gate reads sweeps 0 and 1.
///   * Round 2 picks the other K - 4 landmarks by farthest-point over the
///     round-1 bound max_j |d(L_j, u) - d(L_j, v)| instead of true distances,
///     so it needs no sweep: one vectorized pass over the four contiguous
///     16-bit round-1 columns per pick. On dumped mu 1 ticks its picks read
///     within -5..+5 % of full farthest-point in A* heuristic evaluations.
///   * The K - 4 round-2 sweeps then run as tasks on the executor's shards,
///     claiming landmarks from one atomic cursor; each executing thread
///     sweeps into its own 16-bit column and copies it into the rows. The
///     table is the same at any thread and shard count.
/// Landmarks never leave landmark 0's component: vertices it does not reach
/// are never promoted, and when every reached vertex is covered (a component
/// with fewer vertices than K) the remaining slots repeat landmark 0.
///
/// 16-bit rows: each landmark lies within ecc0 (sweep 0's eccentricity) of
/// landmark 0, so no sweep reaches 2 * ecc0 hops; prepare() leaves the oracle
/// in pass-through mode when 2 * ecc0 >= 65 535, and below that every finite
/// distance fits under the kFar marker. The A* bound is evaluated in the
/// rows' own width: every row A* reads is all-finite, so each |a - b| is at
/// most 65 534 and the 16-bit max equals the 32-bit one exactly, while the
/// K-entry scan vectorizes in 16-bit lanes (saturating subtracts) instead of
/// widening every entry to 32 bits.
///
/// The oracle is cost-adaptive, because goal-directed search only pays off
/// when there is distance to direct across:
///
///   * Shallow graphs: prepare() estimates the diameter from its first one
///     or two sweeps (see kMinEccentricity / kMinDiameter) and, below the
///     cutoffs, skips the remaining sweeps entirely — every query passes
///     through to bidirectional BFS and the tick paid at most two sweeps
///     for the measurement.
///   * Near queries on deep graphs: hops() first evaluates the landmark
///     bounds alone (a few comparisons); below kNearCut the bidirectional
///     balls are tiny and A*'s per-vertex heuristic work would dominate, so
///     the query routes to BFS. When the lower and upper bound meet, the
///     distance is returned outright with no search at all.
///
/// Every route is exact, so the dispatch never changes a returned value.
class HopOracle {
 public:
  /// Per-caller query state: the A* vertex slots / bucket queue plus the
  /// bidirectional-BFS scratch the near/shallow routes dispatch to. The
  /// prepared landmark table is shared-read, so concurrent queries against
  /// one prepared oracle are safe as long as each thread brings its own
  /// Scratch — the sharded pricing pass in lm::HandoffEngine keeps one per
  /// executing thread.
  struct Scratch {
    graph::BfsPairScratch pair_bfs;  ///< near-query + shallow-graph route
    /// A* state of one vertex in query epoch e: stamp 2e marks it open with
    /// tentative distance dist, 2e + 1 settled; older stamps mean unseen.
    struct Slot {
      std::uint32_t stamp, dist;
    };
    std::vector<Slot> slot;
    std::vector<NodeId> buckets[3];  ///< rotating bucket queue, keys mod 3
    std::uint32_t epoch = 0;
  };

  /// Bind the oracle to this tick's pricing graph: landmark selection and
  /// one BFS sweep per landmark, 32 landmarks when 2 * \p pairs >= n (the
  /// caller's count of distinct pairs it will price), else 16. The round-2
  /// sweeps run over \p executor's shards. \p g must stay alive and
  /// unchanged until the next prepare(); call again whenever the edge set
  /// changes.
  void prepare(const graph::Graph& g, Size pairs = 0,
               const sim::ShardExecutor& executor = sim::kInlineExecutor);

  /// True once prepare() has run (queries before that would be meaningless).
  bool ready() const { return g_ != nullptr; }

  /// Exact hop distance between \p s and \p t on the prepared graph —
  /// bit-identical to BFS, graph::kUnreachable across components.
  std::uint32_t hops(NodeId s, NodeId t) { return hops(s, t, scratch_); }

  /// Same, with caller-supplied scratch: const on the oracle, so queries
  /// with distinct Scratch instances may run concurrently between two
  /// prepare() calls.
  std::uint32_t hops(NodeId s, NodeId t, Scratch& scratch) const;

 private:
  static constexpr Size kNarrow = 16;  ///< landmarks below the pair threshold
  static constexpr Size kWide = 32;    ///< landmarks at 2 * pairs >= n
  static constexpr Size kRoundOne = 4;  ///< serial farthest-point sweeps
  /// Slots per vectorized block of the round-2 selection pass.
  static constexpr Size kBlock = 16;
  /// Row entry for a vertex the landmark's sweep never reached.
  static constexpr std::uint16_t kFar = 0xFFFF;
  /// Epoch at which the A* stamps (2e, 2e + 1) restart from a cleared array.
  static constexpr std::uint32_t kEpochRestart = 1u << 31;
  /// Below this first-sweep eccentricity the whole graph is within a few
  /// bidirectional-BFS rings of anywhere and landmark prep cannot earn its
  /// sweeps back. The start vertex's eccentricity can read as low as half
  /// the diameter, so this cutoff is intentionally conservative...
  static constexpr std::uint32_t kMinEccentricity = 13;
  /// ...and the second sweep (from the farthest-point landmark, a peripheral
  /// vertex) measures the diameter nearly exactly, deciding the rest.
  static constexpr std::uint32_t kMinDiameter = 27;
  /// Landmark lower bounds under this route to bidirectional BFS. Measured
  /// under the LIFO tie order on four mobile ticks (n = 16 384, mu 1, about
  /// 30 k pairs each, one core): every cutoff from 2 to 8 priced them within
  /// the run-to-run spread (summed medians 2.64-2.77 s; 4 read 2.65 s and
  /// 8 read 2.68 s).
  static constexpr std::uint32_t kNearCut = 4;

  /// The A* search on a width-W table (W == width_).
  template <Size W>
  std::uint32_t search(NodeId s, NodeId t, Scratch& scratch) const;
  /// BFS from \p source into dist[0, n) (kFar = unreached) with \p queue as
  /// scratch; returns the eccentricity, or kFar once a level reaches kFar
  /// hops (the sweep stops there).
  static std::uint32_t sweep(const graph::Graph& g, NodeId source, std::uint16_t* dist,
                             NodeId* queue);
  /// Farthest-point step: min_dist_[v] = min(min_dist_[v], bound(v)) over
  /// every padded slot; returns the first vertex of the largest min_dist_,
  /// kInvalidNode when that is 0 (every vertex covered).
  template <class Bound>
  NodeId cover(Bound&& bound);

  const graph::Graph* g_ = nullptr;
  Size n_ = 0;
  Size width_ = kNarrow;             ///< landmarks K, the row stride
  bool active_ = false;              ///< landmark table populated this bind
  std::vector<std::uint16_t> land_;  ///< interleaved: land_[v * K + k], kFar unreached

  // Landmark-selection scratch, padded to stride_ (a multiple of kBlock):
  // the round-1 columns hold kFar in the padding, so min_dist_ reads 0 there.
  Size stride_ = 0;
  std::vector<std::uint16_t> round_one_;  ///< column j at [j * stride_, +n)
  std::vector<std::uint16_t> min_dist_;
  std::vector<NodeId> landmarks_;

  Scratch scratch_;  ///< backing state for the sequential hops(s, t) overload
};

}  // namespace manet::net
