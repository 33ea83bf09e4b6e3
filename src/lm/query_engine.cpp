#include "lm/query_engine.hpp"

#include <thread>

#include "cluster/hierarchy.hpp"
#include "common/check.hpp"

namespace manet::lm {

namespace {

/// The calling thread's reader stripe: threads take stripes round-robin on
/// first use, so the first kReaderStripes reader threads of a process each
/// own a stripe, whatever engine they read.
Size this_thread_stripe() {
  static std::atomic<Size> next{0};
  thread_local const Size stripe =
      next.fetch_add(1, std::memory_order_relaxed) % QueryEngine::kReaderStripes;
  return stripe;
}

}  // namespace

QueryResult QueryEngine::lookup_in(const Snapshot& s, NodeId owner, Level k) {
  QueryResult r;
  if (owner >= s.n || k < kFirstServedLevel || k > s.top || s.width == 0) {
    return r;  // out of range: not found, server == kInvalidNode
  }
  const Size idx = static_cast<Size>(owner) * s.width + (k - kFirstServedLevel);
  r.server = s.servers[idx];
  r.found = s.present[idx] != 0;
  if (r.found) {
    r.version = s.versions[idx];
    r.updated = s.updated[idx];
  }
  return r;
}

QueryEngine::QueryEngine(ServerSelectConfig select) : select_(select) {}

void QueryEngine::publish(const cluster::Hierarchy& h, const LmDatabase& db, Time /*now*/) {
  const std::uint32_t back = 1u - front_.load(std::memory_order_relaxed);
  Slot& slot = slots_[back];

  // Drain stragglers still pinned on the back slot (Readers that validated
  // it before the previous publish), stripe by stripe. seq_cst pairs with
  // the readers' pin/validate on each stripe, so a reader that validated the
  // back slot as front is always visible here, and a reader we observe as
  // gone has finished its data reads.
  for (const Stripe& stripe : slot.stripes) {
    while (stripe.readers.load(std::memory_order_seq_cst) != 0) {
      std::this_thread::yield();
    }
  }

  Snapshot& s = slot.snap;
  s.epoch = ++epoch_counter_;
  s.n = h.level(0).vertex_count();
  s.top = h.top_level();
  s.width = select_all_servers_into(h, select_, s.servers);
  const Size total = s.n * s.width;
  s.versions.resize(total);
  s.updated.resize(total);
  s.present.resize(total);
  // Every cell of an owner row is written by the shard owning that row, so
  // the rows need no clearing and the snapshot is partition-invariant.
  const Size shards = par_->shard_count();
  par_->for_each_shard([&](Size shard) {
    const auto [begin, end] = sim::ShardExecutor::slice(s.n, shard, shards);
    for (auto owner = static_cast<NodeId>(begin); owner < end; ++owner) {
      const Size row = static_cast<Size>(owner) * s.width;
      for (Size i = 0; i < s.width; ++i) {
        const LocationRecord* rec =
            db.find(s.servers[row + i], owner, static_cast<Level>(kFirstServedLevel + i));
        s.present[row + i] = rec != nullptr ? 1 : 0;
        s.versions[row + i] = rec != nullptr ? rec->version : 0;
        s.updated[row + i] = rec != nullptr ? rec->updated : 0.0;
      }
    }
  });

  front_.store(back, std::memory_order_seq_cst);
  epoch_.store(s.epoch, std::memory_order_release);
}

QueryEngine::Reader::Reader(const QueryEngine& engine) {
  const Size stripe = this_thread_stripe();
  for (;;) {
    const std::uint32_t f = engine.front_.load(std::memory_order_seq_cst);
    const Slot& slot = engine.slots_[f];
    std::atomic<Size>& pin = slot.stripes[stripe].readers;
    pin.fetch_add(1, std::memory_order_seq_cst);
    if (engine.front_.load(std::memory_order_seq_cst) == f) {
      slot_ = &slot;  // validated: the writer cannot rebuild this slot now
      pin_ = &pin;
      return;
    }
    // The front moved between pin and validation: the pin may be on a slot
    // the writer is about to rebuild. Retract without having read any data
    // and retry against the new front.
    pin.fetch_sub(1, std::memory_order_seq_cst);
  }
}

QueryEngine::Reader::~Reader() { pin_->fetch_sub(1, std::memory_order_seq_cst); }

QueryResult QueryEngine::Reader::lookup(NodeId owner, Level k) const {
  return lookup_in(slot_->snap, owner, k);
}

Size QueryEngine::Reader::lookup_batch(std::span<const NodeId> owners, Level k,
                                       std::span<QueryResult> out) const {
  MANET_CHECK(out.size() == owners.size());
  const Snapshot& s = slot_->snap;
  Size found = 0;
  for (Size i = 0; i < owners.size(); ++i) {
    out[i] = lookup_in(s, owners[i], k);
    if (out[i].found) ++found;
  }
  return found;
}

std::uint64_t QueryEngine::Reader::epoch() const { return slot_->snap.epoch; }

QueryResult QueryEngine::lookup(NodeId owner, Level k) const {
  return Reader(*this).lookup(owner, k);
}

Size QueryEngine::lookup_batch(std::span<const NodeId> owners, Level k,
                               std::span<QueryResult> out) const {
  return Reader(*this).lookup_batch(owners, k, out);
}

}  // namespace manet::lm
