#include "lm/handoff.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <utility>

#include "common/check.hpp"
#include "common/radix_sort.hpp"

namespace manet::lm {

namespace {
/// Transfer-cost histogram buckets (hops per moved entry).
constexpr double kHopBuckets[] = {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0};
/// Pairs a pricing task claims at a time: small enough that the threads
/// finish together, large enough that the shared cursor is rarely contended.
constexpr Size kPriceChunk = 64;
}  // namespace

HandoffEngine::HandoffEngine(HandoffConfig config) : config_(config) {}

void HandoffEngine::set_metrics(common::MetricsRegistry* registry) {
  metrics_ = registry;
  phi_level_c_.clear();
  gamma_level_c_.clear();
  migration_level_c_.clear();
  if (registry == nullptr) {
    phi_packets_c_ = gamma_packets_c_ = phi_entries_c_ = gamma_entries_c_ = nullptr;
    level_churn_c_ = unreachable_c_ = nullptr;
    entry_moves_rate_ = nullptr;
    transfer_hops_h_ = nullptr;
    return;
  }
  phi_packets_c_ = &registry->counter("lm.phi_packets");
  gamma_packets_c_ = &registry->counter("lm.gamma_packets");
  phi_entries_c_ = &registry->counter("lm.phi_entries");
  gamma_entries_c_ = &registry->counter("lm.gamma_entries");
  level_churn_c_ = &registry->counter("lm.level_churn");
  unreachable_c_ = &registry->counter("lm.unreachable");
  entry_moves_rate_ = &registry->rate_meter("lm.entry_moves", 10.0);
  transfer_hops_h_ = &registry->histogram("lm.transfer_hops", kHopBuckets);
}

common::Counter* HandoffEngine::level_counter(std::vector<common::Counter*>& cache,
                                              const char* base, Level k) {
  if (cache.size() <= k) cache.resize(k + 1, nullptr);
  if (cache[k] == nullptr) {
    char name[64];
    std::snprintf(name, sizeof(name), "%s.%u", base, k);
    cache[k] = &metrics_->counter(name);
  }
  return cache[k];
}

void HandoffEngine::publish_rates() {
  metrics_->gauge("lm.phi_rate").set(phi_rate());
  metrics_->gauge("lm.gamma_rate").set(gamma_rate());
  metrics_->gauge("lm.total_rate").set(phi_rate() + gamma_rate());
  if (arq_ != nullptr) {
    metrics_->gauge("lm.fault.stale_entries").set(static_cast<double>(stale_.size()));
    metrics_->gauge("lm.fault.phi_retx_rate").set(phi_retx_rate());
    metrics_->gauge("lm.fault.gamma_retx_rate").set(gamma_retx_rate());
  }
}

void HandoffEngine::capture(const cluster::Hierarchy& h, Snapshot& snap) const {
  const Size n = h.level(0).vertex_count();
  snap.top = h.top_level();
  snap.served_width = select_all_servers_into(h, config_.select, snap.servers);
  snap.anc_ids.resize(n * snap.top);  // row-major [owner][k-1], k = 1..top
  for (NodeId v = 0; v < n; ++v) {
    NodeId* anc = snap.anc_ids.data() + static_cast<Size>(v) * snap.top;
    for (Level k = 1; k <= snap.top; ++k) anc[k - 1] = h.ancestor_id(v, k);
  }
}

void HandoffEngine::prime(const cluster::Hierarchy& h, Time t) {
  capture(h, prev_);
  node_count_ = h.level(0).vertex_count();
  start_time_ = last_time_ = t;
  primed_ = true;
  migrations_.assign(prev_.top + 2, 0);
  levels_.assign(prev_.top + 2, LevelOverhead{});

  db_.reset(node_count_);
  for (NodeId owner = 0; owner < node_count_; ++owner) {
    for (Size i = 0; i < prev_.served_width; ++i) {
      const Level k = static_cast<Level>(i) + kFirstServedLevel;
      db_.put(prev_.server(owner, k), LocationRecord{owner, k, t, version_counter_++});
    }
  }
}

LevelOverhead& HandoffEngine::ledger(Level k) {
  if (levels_.size() <= k) levels_.resize(k + 1, LevelOverhead{});
  return levels_[k];
}

std::uint32_t HandoffEngine::hops_between(const graph::Graph& g0, NodeId from, NodeId to) {
  // All branches are exact on g0, so this dispatch can never change a
  // priced value — only how fast it is produced. The batch cache (filled by
  // price_moves) is consulted first; hop distance is symmetric, so the
  // canonical pair key covers both directions.
  if (!price_keys_.empty()) {
    const std::uint64_t key = pack_pair(from, to);
    const auto it = std::lower_bound(price_keys_.begin(), price_keys_.end(), key);
    if (it != price_keys_.end() && *it == key) {
      return price_vals_[static_cast<Size>(it - price_keys_.begin())];
    }
  }
  if (oracle_.ready()) return oracle_.hops(from, to);
  return pair_bfs_.hops(g0, from, to);
}

template <class Fn>
void HandoffEngine::for_each_move(const Snapshot& next, Fn&& fn) const {
  const Level max_top = std::max(prev_.top, next.top);
  for (NodeId v = 0; v < node_count_; ++v) {
    for (Level k = kFirstServedLevel; k <= max_top; ++k) {
      const bool had = k <= prev_.top;
      const bool has = k <= next.top;
      const NodeId from = had ? prev_.server(v, k) : v;
      const NodeId to = has ? next.server(v, k) : v;
      if (had && has) {
        if (from == to) continue;
        // Attribution: migration when the owner's level-k cluster changed;
        // otherwise the cluster kept its head but recomposed (reorg).
        fn(Move{v, k, from, to, MoveKind::kTransfer, prev_.anc_id(v, k) != next.anc_id(v, k)});
      } else {
        fn(Move{v, k, from, to, had ? MoveKind::kRetire : MoveKind::kRegister, false});
      }
    }
  }
}

void HandoffEngine::price_moves(const graph::Graph& g0, const Snapshot& next) {
  // The pair set is the set of hops_between() queries the commit issues
  // without ARQ (price() never queries equal endpoints), and a superset of
  // them with ARQ. Runs before any mutation, so this walk and the commit's
  // see identical prev_/next state.
  price_keys_.clear();
  price_vals_.clear();
  for_each_move(next, [&](const Move& m) {
    if (m.from != m.to) price_keys_.push_back(pack_pair(m.from, m.to));
  });
  // Both halves of a key are vertex ids, so a radix sort over their
  // significant bits orders the pairs in a few linear passes.
  const Size n = g0.vertex_count();
  common::radix_sort_unique(price_keys_, price_sort_buffer_,
                            static_cast<unsigned>(std::bit_width(n > 0 ? n - 1 : 0)));
  // The landmark table is sized to this tick's distinct pairs. It is bound
  // even with none to price: on_node_up() and audit_repair() price against
  // the binding after update().
  if (fast_pricing_) oracle_.prepare(g0, price_keys_.size(), *par_);
  if (price_keys_.empty()) return;

  price_vals_.resize(price_keys_.size());
  // Pair costs are heavy-tailed, so fixed slices leave threads idle behind
  // the slowest one: every shard task instead claims kPriceChunk pairs at a
  // time from one shared cursor until none are left. Each answer lands at
  // its pair's index whichever thread claims it, so the cache is the same
  // at any thread and shard count.
  const Size count = price_keys_.size();
  std::atomic<Size> cursor{0};
  par_->for_each_shard([&](Size) {
    // One scratch per executing thread, not per shard: a thread runs its
    // shards one at a time, so scratch memory follows the worker count.
    thread_local net::HopOracle::Scratch scratch;
    for (Size begin = cursor.fetch_add(kPriceChunk, std::memory_order_relaxed); begin < count;
         begin = cursor.fetch_add(kPriceChunk, std::memory_order_relaxed)) {
      const Size end = std::min(begin + kPriceChunk, count);
      for (Size i = begin; i < end; ++i) {
        const auto a = static_cast<NodeId>(price_keys_[i] >> 32);
        const auto b = static_cast<NodeId>(price_keys_[i] & 0xFFFFFFFF);
        price_vals_[i] = oracle_.ready() ? oracle_.hops(a, b, scratch)
                                         : scratch.pair_bfs.hops(g0, a, b);
      }
    }
  });
}

PacketCount HandoffEngine::price(const graph::Graph& g0, NodeId from, NodeId to) {
  if (from == to) return 0;
  const std::uint32_t hops = hops_between(g0, from, to);
  if (hops == graph::kUnreachable) {
    ++unreachable_;
    if (unreachable_c_ != nullptr) unreachable_c_->add(1);
    return 0;
  }
  return hops;
}

TransferOutcome HandoffEngine::attempt_transfer(const graph::Graph& g0, NodeId from,
                                                NodeId to) {
  if (is_down(from) || is_down(to)) return arq_->transfer_unroutable();
  const std::uint32_t hops = hops_between(g0, from, to);
  if (hops == graph::kUnreachable) return arq_->transfer_unroutable();
  return arq_->transfer(hops);
}

void HandoffEngine::set_resilience(ReliableTransfer* arq,
                                   const std::vector<std::uint8_t>* down) {
  arq_ = arq;
  down_ = down;
}

void HandoffEngine::on_node_down(NodeId v, Time t) {
  if (arq_ == nullptr) return;
  const auto dropped = db_.drop_all(v);
  resil_.entries_dropped += dropped.size();
  for (const auto& rec : dropped) {
    // The entry is gone; if it was already stale keep the original
    // stale-since timestamp (repair latency is measured from first loss).
    stale_.try_emplace(stale_key(rec.owner, rec.level), t);
    if (observer_ != nullptr) observer_->on_entry_stale(rec.owner, rec.level, kInvalidNode, t);
  }
  if (trace_ != nullptr) {
    trace_->record(sim::TraceEvent{t, sim::TraceEventType::kNodeCrash, 0, v, kInvalidNode,
                                   static_cast<double>(dropped.size())});
  }
}

void HandoffEngine::on_node_up(const graph::Graph& g0, NodeId v, Time t) {
  if (arq_ == nullptr) return;
  if (trace_ != nullptr) {
    trace_->record(sim::TraceEvent{t, sim::TraceEventType::kNodeRejoin, 0, v, kInvalidNode});
  }
  if (v >= node_count_) return;
  // The rejoined node re-registers with each of its current servers so its
  // own entries are fresh again; successful refreshes also clear any stale
  // flag for the (owner, level).
  for (Size i = 0; i < prev_.served_width; ++i) {
    const Level k = static_cast<Level>(i) + kFirstServedLevel;
    const NodeId s = prev_.server(v, k);
    if (s == kInvalidNode) continue;
    const TransferOutcome out = attempt_transfer(g0, v, s);
    resil_.repair_packets += out.packets;
    if (out.delivered) {
      // A stale copy elsewhere goes before the refresh lands: the database
      // holds one copy per entry.
      const auto st = stale_.find(stale_key(v, k));
      const NodeId holder = db_.holder(v, k);
      if (st != stale_.end() && holder != kInvalidNode && holder != s) db_.take(holder, v, k);
      db_.put(s, LocationRecord{v, k, t, version_counter_++});
      if (st != stale_.end()) {
        ++resil_.repairs;
        resil_.repair_time_sum += t - st->second;
        stale_.erase(st);
        if (observer_ != nullptr) observer_->on_entry_repaired(v, k, s, t);
        if (trace_ != nullptr) {
          trace_->record(sim::TraceEvent{t, sim::TraceEventType::kRepair, k, v, s,
                                         static_cast<double>(out.packets)});
        }
      }
    } else if (db_.find(s, v, k) == nullptr) {
      const bool fresh = stale_.try_emplace(stale_key(v, k), t).second;
      if (fresh && observer_ != nullptr) observer_->on_entry_stale(v, k, kInvalidNode, t);
    }
  }
}

HandoffEngine::RepairResult HandoffEngine::audit_repair(const graph::Graph& g0, Time t) {
  RepairResult result;
  if (arq_ == nullptr) {
    result.remaining = stale_.size();
    return result;
  }
  for (auto it = stale_.begin(); it != stale_.end();) {
    const auto owner = static_cast<NodeId>(it->first >> 16);
    const auto k = static_cast<Level>(it->first & 0xFFFF);
    if (k > prev_.top || owner >= node_count_ ||
        static_cast<Size>(k - kFirstServedLevel) >= prev_.served_width) {
      // Level no longer served: discard the residue, nothing to repair.
      const NodeId holder = db_.holder(owner, k);
      if (holder != kInvalidNode) db_.take(holder, owner, k);
      it = stale_.erase(it);
      if (observer_ != nullptr) observer_->on_entry_retired(owner, k, t);
      continue;
    }
    if (is_down(owner)) {
      ++it;  // the owner re-registers on rejoin
      continue;
    }
    const NodeId s = prev_.server(owner, k);
    const TransferOutcome out = attempt_transfer(g0, owner, s);
    resil_.repair_packets += out.packets;
    result.packets += out.packets;
    if (!out.delivered) {
      ++it;  // stays stale; retried at the next audit
      continue;
    }
    const NodeId holder = db_.holder(owner, k);
    if (holder != kInvalidNode && holder != s) db_.take(holder, owner, k);
    db_.put(s, LocationRecord{owner, k, t, version_counter_++});
    ++resil_.repairs;
    resil_.repair_time_sum += t - it->second;
    ++result.repaired;
    if (observer_ != nullptr) observer_->on_entry_repaired(owner, k, s, t);
    if (trace_ != nullptr) {
      trace_->record(sim::TraceEvent{t, sim::TraceEventType::kRepair, k, owner, s,
                                     static_cast<double>(out.packets)});
    }
    it = stale_.erase(it);
  }
  result.remaining = stale_.size();
  return result;
}

double HandoffEngine::query_probe(common::Xoshiro256& rng, Size samples) const {
  if (node_count_ == 0 || prev_.top < kFirstServedLevel) return 1.0;
  Size asked = 0;
  Size ok = 0;
  for (Size attempt = 0; attempt < samples * 4 && asked < samples; ++attempt) {
    const auto owner = static_cast<NodeId>(common::uniform_index(rng, node_count_));
    if (is_down(owner)) continue;  // nobody queries a dead node's location
    ++asked;
    bool found = false;
    for (Size i = 0; i < prev_.served_width && !found; ++i) {
      const Level k = static_cast<Level>(i) + kFirstServedLevel;
      const NodeId s = prev_.server(owner, k);
      if (s == kInvalidNode || is_down(s)) continue;
      found = db_.find(s, owner, k) != nullptr;
    }
    if (found) ++ok;
  }
  return asked > 0 ? static_cast<double>(ok) / static_cast<double>(asked) : 1.0;
}

double HandoffEngine::phi_retx_rate() const {
  const double denom = static_cast<double>(node_count_) * elapsed();
  return denom > 0.0 ? static_cast<double>(resil_.phi_retx) / denom : 0.0;
}

double HandoffEngine::gamma_retx_rate() const {
  const double denom = static_cast<double>(node_count_) * elapsed();
  return denom > 0.0 ? static_cast<double>(resil_.gamma_retx) / denom : 0.0;
}

HandoffEngine::TickResult HandoffEngine::update(const cluster::Hierarchy& h,
                                                const graph::Graph& g0, Time t) {
  MANET_CHECK_MSG(primed_, "HandoffEngine::update before prime");
  MANET_CHECK_MSG(t >= last_time_, "handoff time must be monotone");
  MANET_CHECK_MSG(h.level(0).vertex_count() == node_count_, "node population changed");

  capture(h, next_scratch_);
  const Snapshot& next = next_scratch_;
  TickResult tick;

  // Sharded pricing: compute every hop distance the commit below may ask for
  // up front, over the executor's shards. Under ARQ the commit skips stale
  // entries and down endpoints, so the cache is a superset of its queries;
  // the lossy channel's RNG is still drawn by the commit, in move order.
  price_moves(g0, next);

  // Count per-level cluster membership changes (f_k numerators).
  const Level common_top = std::min(prev_.top, next.top);
  if (migrations_.size() <= common_top) migrations_.resize(common_top + 1, 0);
  for (Level k = 1; k <= common_top; ++k) {
    Size changed = 0;
    for (NodeId v = 0; v < node_count_; ++v) {
      if (prev_.anc_id(v, k) != next.anc_id(v, k)) ++changed;
    }
    migrations_[k] += changed;
    if (metrics_ != nullptr && changed > 0) {
      level_counter(migration_level_c_, "lm.migrations", k)->add(changed);
    }
  }

  // Commit the entry moves.
  for_each_move(next, [&](const Move& m) {
    const NodeId v = m.owner;
    const Level k = m.k;
    // Every retirement counts as level churn, whatever its delivery: the
    // level is gone, so its entry is dropped wherever it is held.
    const auto retire = [&](NodeId holder) {
      if (holder != kInvalidNode) db_.take(holder, v, k);
      ++level_churn_;
      if (level_churn_c_ != nullptr) level_churn_c_->add(1);
      if (observer_ != nullptr) observer_->on_entry_retired(v, k, t);
    };
    PacketCount cost = 0;
    if (arq_ == nullptr) {
      cost = price(g0, m.from, m.to);
    } else {
      // Unreliable path. A stale entry is not at its old server, so there
      // is nothing to send: the repair path owns a stale transfer, and a
      // stale entry whose level retired is discarded by whoever holds it.
      // A registration creates its entry, so it has no stale check.
      if (m.kind != MoveKind::kRegister) {
        const auto st = stale_.find(stale_key(v, k));
        if (st != stale_.end()) {
          if (m.kind == MoveKind::kRetire) {
            stale_.erase(st);
            retire(db_.holder(v, k));
          }
          return;
        }
      }
      const TransferOutcome out = attempt_transfer(g0, m.from, m.to);
      auto& retx_ledger = m.migrated ? resil_.phi_retx : resil_.gamma_retx;
      if (!out.delivered) {
        retx_ledger += out.packets;
        ++resil_.failed_transfers;
        if (m.kind == MoveKind::kRetire) {
          // The retirement notice was lost; the serving plane drops the
          // entry regardless (level k no longer exists), the owner just
          // never hears the final ack. Harmless data loss.
          retire(m.from);
        } else {
          // The entry stays stale until repaired: left at the old server by
          // a failed transfer, held nowhere after a failed registration.
          const NodeId holder = m.kind == MoveKind::kTransfer ? m.from : kInvalidNode;
          const bool fresh = stale_.try_emplace(stale_key(v, k), t).second;
          if (fresh && observer_ != nullptr) observer_->on_entry_stale(v, k, holder, t);
        }
        if (trace_ != nullptr) {
          trace_->record(sim::TraceEvent{t, sim::TraceEventType::kPacketDropped, k, m.from,
                                         m.to, static_cast<double>(out.packets)});
        }
        return;
      }
      retx_ledger += out.retx;
      if (trace_ != nullptr && m.kind == MoveKind::kTransfer && out.attempts > 1) {
        trace_->record(sim::TraceEvent{t, sim::TraceEventType::kRetransmit, k, m.from, m.to,
                                       static_cast<double>(out.attempts - 1)});
      }
      cost = out.packets - out.retx;  // the ideal hops(from, to)
    }

    auto& lvl = ledger(k);
    if (m.migrated) {
      lvl.phi_packets += cost;
      ++lvl.phi_entries;
      tick.phi_packets += cost;
    } else {
      lvl.gamma_packets += cost;
      ++lvl.gamma_entries;
      tick.gamma_packets += cost;
    }
    ++tick.entries_moved;
    if (metrics_ != nullptr) {
      (m.migrated ? phi_packets_c_ : gamma_packets_c_)->add(cost);
      (m.migrated ? phi_entries_c_ : gamma_entries_c_)->add(1);
      level_counter(m.migrated ? phi_level_c_ : gamma_level_c_,
                    m.migrated ? "lm.phi_packets" : "lm.gamma_packets", k)
          ->add(cost);
      entry_moves_rate_->mark(t);
      transfer_hops_h_->observe(static_cast<double>(cost));
    }
    // A level-churn move lands before its trace event, a transfer after it.
    if (m.kind == MoveKind::kRetire) {
      retire(m.from);
    } else if (m.kind == MoveKind::kRegister) {
      ++level_churn_;
      if (level_churn_c_ != nullptr) level_churn_c_->add(1);
      db_.put(m.to, LocationRecord{v, k, t, version_counter_++});
    }
    if (trace_ != nullptr) {
      const auto type = m.kind != MoveKind::kTransfer ? sim::TraceEventType::kLevelChurn
                        : m.migrated                  ? sim::TraceEventType::kHandoffPhi
                                                      : sim::TraceEventType::kHandoffGamma;
      trace_->record(sim::TraceEvent{t, type, k, m.from, m.to, static_cast<double>(cost)});
    }
    if (m.kind == MoveKind::kTransfer) {
      const LocationRecord rec = db_.take(m.from, v, k);
      db_.put(m.to, LocationRecord{v, k, t, rec.owner == kInvalidNode ? version_counter_++
                                                                       : rec.version + 1});
      if (observer_ != nullptr) observer_->on_entry_move(v, k, m.from, m.to, t, m.migrated, cost);
    }
  });

  std::swap(prev_, next_scratch_);  // both snapshots keep their buffer capacity
  last_time_ = t;
  price_keys_.clear();  // answers are only valid against this tick's g0
  price_vals_.clear();
  if (metrics_ != nullptr) publish_rates();
  return tick;
}

HandoffEngine::TickResult HandoffEngine::advance_unchanged(Time t) {
  MANET_CHECK_MSG(primed_, "HandoffEngine::advance_unchanged before prime");
  MANET_CHECK_MSG(t >= last_time_, "handoff time must be monotone");
  // An identical snapshot diffs to zero everywhere: update() would leave the
  // ledgers, migration counts and database untouched and only move the
  // clock. Reproduce exactly that end state.
  last_time_ = t;
  if (metrics_ != nullptr) publish_rates();
  return TickResult{};
}

PacketCount HandoffEngine::total_phi() const {
  PacketCount sum = 0;
  for (const auto& lvl : levels_) sum += lvl.phi_packets;
  return sum;
}

PacketCount HandoffEngine::total_gamma() const {
  PacketCount sum = 0;
  for (const auto& lvl : levels_) sum += lvl.gamma_packets;
  return sum;
}

double HandoffEngine::phi_rate() const {
  const double denom = static_cast<double>(node_count_) * elapsed();
  return denom > 0.0 ? static_cast<double>(total_phi()) / denom : 0.0;
}

double HandoffEngine::gamma_rate() const {
  const double denom = static_cast<double>(node_count_) * elapsed();
  return denom > 0.0 ? static_cast<double>(total_gamma()) / denom : 0.0;
}

double HandoffEngine::phi_rate_at(Level k) const {
  const double denom = static_cast<double>(node_count_) * elapsed();
  if (denom <= 0.0 || k >= levels_.size()) return 0.0;
  return static_cast<double>(levels_[k].phi_packets) / denom;
}

double HandoffEngine::gamma_rate_at(Level k) const {
  const double denom = static_cast<double>(node_count_) * elapsed();
  if (denom <= 0.0 || k >= levels_.size()) return 0.0;
  return static_cast<double>(levels_[k].gamma_packets) / denom;
}

Size HandoffEngine::migration_count(Level k) const {
  return k < migrations_.size() ? migrations_[k] : 0;
}

double HandoffEngine::migration_rate(Level k) const {
  const double denom = static_cast<double>(node_count_) * elapsed();
  return denom > 0.0 ? static_cast<double>(migration_count(k)) / denom : 0.0;
}

}  // namespace manet::lm
