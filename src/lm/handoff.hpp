#pragma once

#include <algorithm>
#include <map>
#include <vector>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "graph/bfs.hpp"
#include "lm/database.hpp"
#include "lm/reliable.hpp"
#include "lm/server_select.hpp"
#include "net/hop_oracle.hpp"
#include "sim/shard.hpp"
#include "sim/trace.hpp"

/// \file handoff.hpp
/// The LM handoff engine — the measurement core of this reproduction.
///
/// Between consecutive hierarchy snapshots the CHLM server assignment table
/// is recomputed; every (owner, level) entry whose serving node changed is a
/// *handoff*: the old server transfers the entry to the new one, costing
/// hops(old, new) packet transmissions under strict hierarchical routing.
/// Each move is attributed:
///   phi_k   (paper Section 4)  — the owner's level-k cluster changed, i.e.
///           the owner migrated across a level-k boundary;
///   gamma_k (paper Section 5)  — the owner's level-k cluster is unchanged
///           but the assignment moved because the cluster's internal
///           composition changed (link change, election, rejection, ...).
/// Summing per-level rates reproduces the paper's phi = Theta(log^2 |V|) and
/// gamma = Theta(log^2 |V|) claims (experiments E8/E9).
/// The engine is the one owner of that table: registration, the session
/// locator and the benches read a primed engine's servers (current_server()).

namespace manet::lm {

/// Entry transfers are priced at exact shortest-path hops on the level-0
/// graph.
struct HandoffConfig {
  ServerSelectConfig select;
};

/// Consumer of the engine's committed entry events — the handover FSM plane
/// (lm/handover_fsm.hpp) rides on these. The engine stays the measurement
/// core: it commits every move instantly and prices it as before; observers
/// only *watch* (they may not mutate the database). Detached (nullptr, the
/// default) the engine is bit-identical to a build without this hook.
class HandoverObserver {
 public:
  virtual ~HandoverObserver() = default;
  /// A committed (owner, k) entry move from -> to priced at \p hops;
  /// \p migrated carries the phi/gamma attribution.
  virtual void on_entry_move(NodeId owner, Level k, NodeId from, NodeId to, Time t,
                             bool migrated, PacketCount hops) = 0;
  /// The (owner, k) entry went stale: transfer failed or its holder crashed.
  /// \p holder is the node still holding an out-of-date copy, kInvalidNode
  /// when the copy is gone entirely.
  virtual void on_entry_stale(NodeId owner, Level k, NodeId holder, Time t) = 0;
  /// A stale (owner, k) entry was re-delivered to server \p server.
  virtual void on_entry_repaired(NodeId owner, Level k, NodeId server, Time t) = 0;
  /// Level k retired for \p owner (the hierarchy lost the level); any
  /// in-flight procedure for the entry is moot.
  virtual void on_entry_retired(NodeId owner, Level k, Time t) = 0;
};

/// Accumulated overhead at one hierarchy level.
struct LevelOverhead {
  PacketCount phi_packets = 0;
  PacketCount gamma_packets = 0;
  Size phi_entries = 0;    ///< entry moves attributed to migration
  Size gamma_entries = 0;  ///< entry moves attributed to reorganization
};

class HandoffEngine {
 public:
  explicit HandoffEngine(HandoffConfig config = HandoffConfig{});

  /// Install the initial snapshot at time \p t. No cost is charged (initial
  /// registration is location *registration* overhead, covered by the
  /// companion papers [16][17], not handoff).
  void prime(const cluster::Hierarchy& h, Time t);

  struct TickResult {
    PacketCount phi_packets = 0;
    PacketCount gamma_packets = 0;
    Size entries_moved = 0;
  };

  /// Advance to snapshot \p h (level-0 graph \p g0 prices the transfers) at
  /// time \p t; returns this tick's cost and accumulates totals.
  TickResult update(const cluster::Hierarchy& h, const graph::Graph& g0, Time t);

  /// Advance to \p t when the caller has proven the hierarchy is unchanged
  /// since the last update()/prime() (the change-gated tick pipeline's skip
  /// path). Equivalent to update() with an identical snapshot — no entry
  /// moves, no migration counts — without recomputing the assignment table.
  TickResult advance_unchanged(Time t);

  // --- Accumulated results ---
  Size node_count() const { return node_count_; }
  Time elapsed() const { return last_time_ - start_time_; }

  /// Per-level ledger; index by level k (entries 0 and 1 stay zero).
  const std::vector<LevelOverhead>& per_level() const { return levels_; }

  PacketCount total_phi() const;
  PacketCount total_gamma() const;

  /// Packet transmissions per node per second — the paper's overhead unit.
  double phi_rate() const;
  double gamma_rate() const;
  double phi_rate_at(Level k) const;
  double gamma_rate_at(Level k) const;

  /// Level-k cluster membership changes observed (f_k numerator, E5):
  /// migration_rate(k) = changes / (node_count * elapsed).
  Size migration_count(Level k) const;
  double migration_rate(Level k) const;

  /// Entry moves whose endpoints were disconnected at transfer time (the
  /// transfer is counted as an entry move with zero packets; should be 0 in
  /// connected scenarios).
  Size unreachable_transfers() const { return unreachable_; }

  /// Registrations/retirements caused by the hierarchy gaining/losing
  /// levels (priced like gamma transfers owner<->server).
  Size level_churn_entries() const { return level_churn_; }

  /// The maintained distributed database (kept consistent with the current
  /// assignment table; integration tests verify this invariant).
  const LmDatabase& database() const { return db_; }

  // --- Observability hooks (both optional; nullptr = off, zero cost) ---

  /// Publish live counters/gauges into \p registry (see docs/ARCHITECTURE.md
  /// "Observability" for the lm.* instrument names). phi_k / gamma_k / f_k
  /// become queryable *during* the run, not just from the final ledgers.
  void set_metrics(common::MetricsRegistry* registry);

  /// Emit one typed TraceEvent per entry transfer / level-churn move.
  void set_trace(sim::TraceSink* trace) noexcept { trace_ = trace; }

  /// Feed committed entry moves / stale transitions / repairs to the
  /// handover FSM plane (nullptr = off, zero cost).
  void set_handover_observer(HandoverObserver* observer) noexcept {
    observer_ = observer;
  }

  // --- Read-only assignment view (the locator plane and the registration
  // tracker resolve through these; they never touch the ledgers) ---

  /// Current assignment server for (owner, k); kInvalidNode when the level
  /// is not served or the engine is unprimed.
  NodeId current_server(NodeId owner, Level k) const {
    if (!primed_ || owner >= node_count_ || k < kFirstServedLevel ||
        static_cast<Size>(k - kFirstServedLevel) >= prev_.served_width) {
      return kInvalidNode;
    }
    return prev_.server(owner, k);
  }
  Level top_level() const { return prev_.top; }

  /// True when the (owner, k) entry is flagged stale (lost or out of date).
  bool is_stale(NodeId owner, Level k) const {
    return stale_.find(stale_key(owner, k)) != stale_.end();
  }
  /// Node still holding the out-of-date copy of a stale entry, kInvalidNode
  /// when there is none (or the entry is not stale).
  NodeId stale_holder(NodeId owner, Level k) const {
    return is_stale(owner, k) ? db_.holder(owner, k) : kInvalidNode;
  }

  /// Route transfer pricing through the landmark hop oracle
  /// (net/hop_oracle.hpp) instead of per-pair bidirectional BFS: each
  /// update() then binds the oracle to g0 once it has deduplicated the
  /// tick's pairs — 32 landmark sweeps when the distinct pairs reach n / 2,
  /// else 16 — and every priced move runs goal-directed A* on the bounds.
  /// The oracle is exact on any graph (the bounds are triangle-inequality
  /// facts about the pricing graph itself), so enabling it never changes a
  /// priced value — the disabled default stays the bit-identity reference.
  void set_fast_pricing(bool on) noexcept { fast_pricing_ = on; }

  /// Shard the per-tick pricing work over \p executor. Until this is
  /// called, and again after set_parallel(nullptr), the engine uses
  /// sim::kInlineExecutor (one shard on the calling thread). update() walks
  /// the tick's entry moves once to collect their distinct (from, to)
  /// endpoint pairs in sorted order, prepares the landmark oracle (under
  /// set_fast_pricing; its round-2 sweeps run over the same shards),
  /// computes the hop distances with one task per shard (each executing
  /// thread with a private net::HopOracle::Scratch), and then walks the
  /// same moves again to commit them serially, reading the answers from
  /// the cache. The tasks claim 64-pair chunks of the sorted list from one
  /// shared cursor rather than fixed slices, because pair costs are
  /// heavy-tailed; each answer is written at its pair's index by whichever
  /// thread claims it, so the cache is the same at any thread and shard
  /// count. Hop queries are exact and symmetric, so the cache can never
  /// change a priced value — ledgers, traces, database versions and
  /// observer callbacks are emitted by the serial commit in move order.
  /// That holds with an ARQ layer attached too: the cache covers a superset
  /// of the lossy commit's queries, and the channel RNG is still drawn in
  /// move order.
  void set_parallel(sim::ShardExecutor* executor) noexcept {
    par_ = executor != nullptr ? executor : &sim::kInlineExecutor;
  }

  // --- Resilience plane (fault injection; see sim/fault.hpp) ---
  //
  // With an ARQ layer attached, every entry transfer traverses the lossy
  // control channel: delivered transfers charge the ideal hops into the
  // phi/gamma ledgers exactly as before plus their retransmissions into the
  // retx ledgers; transfers that exhaust the retry budget FAIL and leave the
  // (owner, level) entry stale until the repair path fixes it. Detached
  // (nullptr, the default) the engine is bit-identical to the ideal build.

  /// Accumulated fault-plane accounting. All zero while no ARQ is attached.
  struct ResilienceStats {
    PacketCount phi_retx = 0;        ///< retransmissions on phi-attributed moves
    PacketCount gamma_retx = 0;      ///< retransmissions on gamma-attributed moves
    PacketCount repair_packets = 0;  ///< owner re-registration + audit traffic
    Size failed_transfers = 0;       ///< budget-exhausted entry moves
    Size repairs = 0;                ///< stale entries successfully repaired
    double repair_time_sum = 0.0;    ///< sum of (repair time - stale-since)
    Size entries_dropped = 0;        ///< db entries wiped by node crashes
  };

  /// Attach (or detach with nullptr) the unreliable transfer path. \p down
  /// points at per-node down flags owned by the caller and refreshed every
  /// tick; it must outlive the engine's use (nullptr = nobody is ever down).
  void set_resilience(ReliableTransfer* arq, const std::vector<std::uint8_t>* down);

  /// Node \p v crashed at time \p t: every entry stored at v is wiped and
  /// flagged for repair.
  void on_node_down(NodeId v, Time t);

  /// Node \p v rejoined at time \p t: it re-registers with each of its
  /// current servers over the lossy channel (repair traffic).
  void on_node_up(const graph::Graph& g0, NodeId v, Time t);

  struct RepairResult {
    Size repaired = 0;
    Size remaining = 0;
    PacketCount packets = 0;
  };

  /// Periodic server audit + owner re-registration: walk the stale set and
  /// re-deliver each entry to its current assignment server. Failed repairs
  /// stay stale and are retried at the next audit.
  RepairResult audit_repair(const graph::Graph& g0, Time t);

  /// Query-consistency probe: sample \p samples alive owners; a query
  /// succeeds when at least one served level's entry is present at its
  /// assignment server and that server is up. Returns the success fraction
  /// (1.0 when nothing is served yet).
  double query_probe(common::Xoshiro256& rng, Size samples) const;

  Size stale_entries() const { return stale_.size(); }
  const ResilienceStats& resilience() const { return resil_; }
  double mean_time_to_repair() const {
    return resil_.repairs > 0 ? resil_.repair_time_sum / static_cast<double>(resil_.repairs)
                              : 0.0;
  }
  double phi_retx_rate() const;
  double gamma_retx_rate() const;

 private:
  /// Capture assignment + ancestor tables for a snapshot. Both tables are
  /// flat row-major (one contiguous buffer each) so per-tick capture reuses
  /// the scratch snapshot's capacity instead of allocating n nested vectors.
  struct Snapshot {
    Level top = 0;
    Size served_width = 0;         ///< levels carrying a server: top - 1 when top >= 2
    std::vector<NodeId> servers;   ///< [owner * served_width + (k - 2)], k in [2, top]
    std::vector<NodeId> anc_ids;   ///< [owner * top + (k - 1)], k in [1, top]
    NodeId server(NodeId owner, Level k) const {
      return servers[static_cast<Size>(owner) * served_width + (k - kFirstServedLevel)];
    }
    NodeId anc_id(NodeId owner, Level k) const {
      return anc_ids[static_cast<Size>(owner) * top + (k - 1)];
    }
  };
  void capture(const cluster::Hierarchy& h, Snapshot& snap) const;

  /// One (owner, level k) entry move from prev_ to the captured snapshot.
  enum class MoveKind : std::uint8_t {
    kTransfer,  ///< served in both snapshots, by different servers
    kRetire,    ///< the hierarchy lost level k: from the server to the owner
    kRegister,  ///< the hierarchy gained level k: from the owner to the server
  };
  struct Move {
    NodeId owner = kInvalidNode;
    Level k = 0;
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    MoveKind kind = MoveKind::kTransfer;
    bool migrated = false;  ///< the owner's level-k cluster changed (phi, else gamma)
  };
  /// Call \p fn(const Move&) for every entry move from prev_ to \p next, in
  /// (owner, level) order. Pricing and the commit both read this one walk.
  template <class Fn>
  void for_each_move(const Snapshot& next, Fn&& fn) const;

  LevelOverhead& ledger(Level k);
  PacketCount price(const graph::Graph& g0, NodeId from, NodeId to);

  /// Exact BFS hop count; graph::kUnreachable when no path exists. Unlike
  /// price() this never touches the unreachable ledger.
  std::uint32_t hops_between(const graph::Graph& g0, NodeId from, NodeId to);
  bool is_down(NodeId v) const {
    return down_ != nullptr && v < down_->size() && (*down_)[v] != 0;
  }
  /// One reliable delivery over from->to: unroutable when either endpoint is
  /// down or no path exists.
  TransferOutcome attempt_transfer(const graph::Graph& g0, NodeId from, NodeId to);

  HandoffConfig config_;
  Size node_count_ = 0;
  Time start_time_ = 0.0;
  Time last_time_ = 0.0;
  bool primed_ = false;

  Snapshot prev_;
  Snapshot next_scratch_;  ///< swap target for update(); keeps buffer capacity
  std::vector<LevelOverhead> levels_;
  std::vector<Size> migrations_;  ///< per level k
  Size unreachable_ = 0;
  Size level_churn_ = 0;
  LmDatabase db_;
  std::uint64_t version_counter_ = 0;

  // Resilience plane (inert until set_resilience attaches an ARQ layer).
  /// Packed (owner << 16) | k; the level must fit the low 16 bits.
  static std::uint64_t stale_key(NodeId owner, Level k) {
    MANET_CHECK_MSG(k < (Level{1} << 16), "level out of packed-key range");
    return (static_cast<std::uint64_t>(owner) << 16) | k;
  }
  /// Stale entry -> when it went stale; the node still holding its copy,
  /// if any, is the database's holder. Ordered so audits iterate
  /// deterministically.
  std::map<std::uint64_t, Time> stale_;
  ReliableTransfer* arq_ = nullptr;
  const std::vector<std::uint8_t>* down_ = nullptr;
  ResilienceStats resil_;

  /// Reusable bidirectional BFS workspace: transfer endpoints are typically
  /// a few hops apart, so a pair query explores a small neighborhood instead
  /// of sweeping the whole graph per unique source.
  graph::BfsPairScratch pair_bfs_;

  // Landmark pricing oracle (inert until set_fast_pricing(true)). Re-bound
  // to the pricing graph by each update()'s price_moves(); audit_repair()
  // and on_node_up() price against the same graph as the last update() by
  // the caller's tick structure, so the binding stays valid between updates.
  net::HopOracle oracle_;
  bool fast_pricing_ = false;

  /// Pre-computed hop distances for this update()'s pricing queries, keyed
  /// by canonical packed pair (min << 32 | max), sorted for binary search.
  /// Filled by price_moves() at the start of every update(); cleared at its
  /// end so between-tick callers (audit_repair, on_node_up) never read
  /// answers computed on an older graph.
  void price_moves(const graph::Graph& g0, const Snapshot& next);
  static std::uint64_t pack_pair(NodeId a, NodeId b) {
    return (static_cast<std::uint64_t>(std::min(a, b)) << 32) | std::max(a, b);
  }
  const sim::ShardExecutor* par_ = &sim::kInlineExecutor;
  std::vector<std::uint64_t> price_keys_;
  std::vector<std::uint64_t> price_sort_buffer_;  ///< radix_sort_unique's ping-pong buffer
  std::vector<std::uint32_t> price_vals_;

  // Observability (resolved once in set_metrics; hot path is pointer adds).
  common::MetricsRegistry* metrics_ = nullptr;
  sim::TraceSink* trace_ = nullptr;
  HandoverObserver* observer_ = nullptr;
  common::Counter* phi_packets_c_ = nullptr;
  common::Counter* gamma_packets_c_ = nullptr;
  common::Counter* phi_entries_c_ = nullptr;
  common::Counter* gamma_entries_c_ = nullptr;
  common::Counter* level_churn_c_ = nullptr;
  common::Counter* unreachable_c_ = nullptr;
  common::RateMeter* entry_moves_rate_ = nullptr;
  common::Histogram* transfer_hops_h_ = nullptr;
  std::vector<common::Counter*> phi_level_c_;    ///< lm.phi_packets.k
  std::vector<common::Counter*> gamma_level_c_;  ///< lm.gamma_packets.k
  std::vector<common::Counter*> migration_level_c_;  ///< lm.migrations.k

  common::Counter* level_counter(std::vector<common::Counter*>& cache, const char* base,
                                 Level k);
  void publish_rates();
};

}  // namespace manet::lm
