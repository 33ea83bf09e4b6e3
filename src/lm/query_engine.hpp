#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "lm/database.hpp"
#include "lm/server_select.hpp"
#include "sim/shard.hpp"

/// \file query_engine.hpp
/// Read-optimized concurrent query front over the LM database.
///
/// The simulator's write plane (HandoffEngine) mutates the
/// (owner, level) LmDatabase table during the tick's write phase; this engine turns
/// that state into a *serving* surface: many reader threads answering
/// location lookups at memory speed while the handoff plane churns the
/// hierarchy underneath (ROADMAP item 3, bench_query E31).
///
/// Concurrency model — epoch-gated double buffering (RCU-lite):
///  - The single writer (the tick's write phase) calls publish() with the
///    fresh hierarchy + database. publish() builds the *inactive* snapshot
///    slot — the server assignment serially (recomputed from the hierarchy),
///    the per-owner record rows over the executor given to set_parallel() —
///    then flips the front-slot index with one atomic store. Each publish is
///    one **epoch**; epoch() exposes the monotone counter.
///  - Readers pin the front slot through a Reader, with a pin -> validate
///    -> retry protocol: bump the reader count, then re-check the front
///    index; if it moved, retract and retry. A validated pin guarantees the
///    writer cannot rebuild that slot until the Reader unpins, so every
///    answer is a consistent pre- or post-flip value — never a torn mix
///    (tests/lm/query_engine_test.cpp proves this at 1/2/8/24 threads and
///    under TSan). lookup() and lookup_batch() are one-call Readers.
///  - Each slot's reader count is split into kReaderStripes cache-line-padded
///    stripes, and a thread always pins the stripe it maps to. Readers on
///    distinct stripes never write a shared cache line, so they neither block
///    nor slow each other; the writer drains every stripe of the slot it is
///    about to rebuild. It waits only for readers still pinned there — pins
///    taken before the previous publish and not yet released. The
///    pin/validate pair, the drain and the flip use seq_cst, so the
///    Dekker-style "reader pinned a stale slot" vs "writer saw zero readers"
///    race cannot occur on any stripe.
/// See docs/QUERY_ENGINE.md for the user-facing contract.

namespace manet::lm {

/// One lookup answer. `server` is the level-k location server the owner's
/// entry hashes to under the published hierarchy; `found` says whether that
/// server actually held the (owner, k) record at publish time (false also
/// covers out-of-range owners/levels, with server == kInvalidNode).
struct QueryResult {
  NodeId server = kInvalidNode;
  std::uint64_t version = 0;  ///< the record's monotone version, 0 if !found
  Time updated = 0.0;         ///< the record's last refresh time, 0 if !found
  bool found = false;
};

/// Single-writer / many-reader location query engine. Writer methods
/// (publish, set_parallel) must come from one thread at a time — the tick
/// structure's write phase provides that naturally; reader methods (Reader,
/// lookup, lookup_batch, epoch) are safe from any number of concurrent
/// threads.
class QueryEngine {
  struct Slot;

 public:
  /// Reader-count stripes per snapshot slot. Threads map to stripes
  /// round-robin on first use, so up to this many reader threads pin
  /// without sharing a cache line; more threads share stripes, which costs
  /// contention but never correctness.
  static constexpr Size kReaderStripes = 16;

  /// A scoped read pin: one validated pin on the front snapshot, held for
  /// the Reader's lifetime, so every answer it gives comes from one epoch.
  /// A publish() that must rebuild the pinned slot — the second publish
  /// after the pin — waits until the Reader is destroyed, so hold one for a
  /// bounded unit of work and never on the writer's thread across a
  /// publish().
  class Reader {
   public:
    explicit Reader(const QueryEngine& engine);
    ~Reader();
    Reader(const Reader&) = delete;
    Reader& operator=(const Reader&) = delete;

    /// Answer one (owner, level-k) location query.
    QueryResult lookup(NodeId owner, Level k) const;

    /// Answer a batch of same-level queries, one QueryResult per owner
    /// (out.size() must equal owners.size()). Returns the number of found
    /// entries.
    Size lookup_batch(std::span<const NodeId> owners, Level k, std::span<QueryResult> out) const;

    /// The pinned snapshot's epoch (0 for a never-published engine).
    std::uint64_t epoch() const;

   private:
    const Slot* slot_;
    std::atomic<Size>* pin_;
  };

  explicit QueryEngine(ServerSelectConfig select = ServerSelectConfig{});

  /// Writer: snapshot the (hierarchy, database) pair as the next epoch and
  /// flip readers onto it. Blocks only while readers are still pinned on the
  /// slot being rebuilt (pins taken before the previous publish). \p now
  /// is not recorded: an epoch is identified by its number alone.
  void publish(const cluster::Hierarchy& h, const LmDatabase& db, Time now);

  /// Writer: fill publish()'s per-owner record rows over \p executor's
  /// shards. Until this is called, and again after set_parallel(nullptr),
  /// the engine uses sim::kInlineExecutor. Every row is a pure function of
  /// (hierarchy, database), so the snapshot is identical at any shard and
  /// thread count.
  void set_parallel(sim::ShardExecutor* executor) noexcept {
    par_ = executor != nullptr ? executor : &sim::kInlineExecutor;
  }

  /// Reader: answer one (owner, level-k) location query against the current
  /// epoch through a one-call Reader. Lock-free with respect to the writer.
  QueryResult lookup(NodeId owner, Level k) const;

  /// Reader: Reader::lookup_batch through a one-call Reader — the whole
  /// batch is served from a single pinned epoch, so its answers are
  /// mutually consistent.
  Size lookup_batch(std::span<const NodeId> owners, Level k, std::span<QueryResult> out) const;

  /// Reader: the current epoch number (0 before the first publish; each
  /// publish increments it by one).
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

 private:
  /// Immutable-once-published flat view of one (hierarchy, database) state.
  /// Indexed [owner * width + (k - kFirstServedLevel)], mirroring the
  /// handoff engine's row-major snapshot layout.
  struct Snapshot {
    std::uint64_t epoch = 0;
    Size n = 0;
    Level top = 0;
    Size width = 0;
    std::vector<NodeId> servers;
    std::vector<std::uint64_t> versions;
    std::vector<Time> updated;
    std::vector<std::uint8_t> present;
  };

  /// One reader-count stripe on its own cache line pair (128 bytes also
  /// keeps the adjacent-line prefetcher from pairing two stripes).
  struct alignas(128) Stripe {
    std::atomic<Size> readers{0};
  };

  struct Slot {
    Snapshot snap;
    mutable Stripe stripes[kReaderStripes];
  };

  static QueryResult lookup_in(const Snapshot& s, NodeId owner, Level k);

  ServerSelectConfig select_;
  const sim::ShardExecutor* par_ = &sim::kInlineExecutor;
  Slot slots_[2];
  std::atomic<std::uint32_t> front_{0};
  std::atomic<std::uint64_t> epoch_{0};
  std::uint64_t epoch_counter_ = 0;  ///< writer-only
};

}  // namespace manet::lm
