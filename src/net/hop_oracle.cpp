#include "net/hop_oracle.hpp"

#include <algorithm>
#include <array>
#include <atomic>

#include "common/check.hpp"
#include "graph/bfs.hpp"

namespace manet::net {

std::uint32_t HopOracle::sweep(const graph::Graph& g, NodeId source, std::uint16_t* dist,
                               NodeId* queue) {
  std::fill_n(dist, g.vertex_count(), static_cast<std::uint16_t>(kFar));
  Size head = 0, tail = 0;
  dist[source] = 0;
  queue[tail++] = source;
  while (head < tail) {
    const NodeId u = queue[head++];
    const std::uint32_t d = dist[u] + 1u;
    if (d == kFar) return kFar;  // kFar marks "unreached": a deeper sweep does not fit
    for (const NodeId w : g.neighbors(u)) {
      if (dist[w] != kFar) continue;
      dist[w] = static_cast<std::uint16_t>(d);
      queue[tail++] = w;
    }
  }
  // BFS dequeues in distance order, so the last vertex is the farthest.
  return dist[queue[tail - 1]];
}

namespace {
/// One executing thread's sweep scratch: a 16-bit distance column and a BFS
/// queue. Thread-local, as the pricing pass's Scratch is, so its memory
/// follows the worker count; the calling thread's queue serves round 1.
struct SweepScratch {
  std::vector<std::uint16_t> column;
  std::vector<NodeId> queue;
};
SweepScratch& sweep_scratch(Size n) {
  thread_local SweepScratch scratch;
  if (scratch.queue.size() < n) {
    scratch.column.resize(n);
    scratch.queue.resize(n);
  }
  return scratch;
}
}  // namespace

template <class Bound>
NodeId HopOracle::cover(Bound&& bound) {
  // Blocks of kBlock slots: the bound lands in a local block first, so the
  // min_dist_ update cannot alias the columns it reads, and per-lane maxima
  // keep the reduction out of the loop — both loops vectorize at -O2.
  std::uint16_t* const dist = min_dist_.data();
  std::array<std::uint16_t, kBlock> top{}, block{};
  for (Size b = 0; b < stride_; b += kBlock) {
    for (Size i = 0; i < kBlock; ++i) block[i] = bound(b + i);
    for (Size i = 0; i < kBlock; ++i) {
      const std::uint16_t m = std::min(dist[b + i], block[i]);
      dist[b + i] = m;
      top[i] = std::max(top[i], m);
    }
  }
  const std::uint16_t best = *std::max_element(top.begin(), top.end());
  if (best == 0) return kInvalidNode;
  return static_cast<NodeId>(std::find(dist, dist + stride_, best) - dist);
}

void HopOracle::prepare(const graph::Graph& g, Size pairs, const sim::ShardExecutor& executor) {
  g_ = &g;
  n_ = g.vertex_count();
  active_ = false;
  width_ = 2 * pairs >= n_ ? kWide : kNarrow;
  if (n_ == 0) return;
  stride_ = (n_ + kBlock - 1) / kBlock * kBlock;
  round_one_.resize(kRoundOne * stride_);
  for (Size j = 0; j < kRoundOne; ++j) {
    std::fill(round_one_.begin() + static_cast<std::ptrdiff_t>(j * stride_ + n_),
              round_one_.begin() + static_cast<std::ptrdiff_t>((j + 1) * stride_), kFar);
  }
  min_dist_.assign(stride_, kFar);
  landmarks_.resize(width_);
  NodeId* const queue = sweep_scratch(n_).queue.data();

  // Farthest-point sampling: each landmark is the vertex maximizing its
  // distance to all previous ones (ties -> lowest id), which spreads them
  // toward the deployment boundary where the bounds are tightest. It starts
  // from the highest-degree vertex (lowest id on ties), never a crashed
  // vertex the fault plane stripped to degree 0 while any edge exists: a
  // sweep from one of those would read eccentricity 0 and disarm the tick.
  // Vertices outside landmark 0's component keep distance 0 and are never
  // promoted, so every landmark shares its component — minor components
  // keep h = 0 and degrade to plain BFS, which their size makes cheap.
  // When every vertex is covered (a component with fewer vertices than
  // landmarks), the remaining slots repeat landmark 0.
  NodeId next = 0;
  for (NodeId v = 1; v < n_; ++v) {
    if (g.degree(v) > g.degree(next)) next = v;
  }
  const std::uint16_t* col[kRoundOne];
  for (Size k = 0; k < width_; ++k) {
    landmarks_[k] = next;
    if (k < kRoundOne) {
      // Round 1: a true sweep per landmark, serial, since each pick reads
      // the sweeps before it.
      std::uint16_t* out = &round_one_[k * stride_];
      col[k] = out;
      const std::uint32_t ecc = sweep(g, next, out, queue);
      // Every later landmark lies within ecc of landmark 0, so no later
      // sweep reaches 2 * ecc hops: below kFar, every finite distance fits
      // a 16-bit row. A deeper graph stays in pass-through mode.
      if (k == 0 && 2 * ecc >= kFar) return;
      // Shallow-graph gate, decided on the cheapest usable depth estimates.
      // Sweep 0 starts from the highest-degree vertex, whose eccentricity
      // only brackets the diameter within [D/2, D] — a conclusive lower
      // reading stops after one sweep. Sweep 1 starts from the graph's
      // first landmark (the vertex farthest from the start, necessarily
      // peripheral), whose eccentricity is a tight diameter estimate — it
      // cleanly separates mid-size deployments (D ~ 20, where bidirectional
      // BFS wins at every distance) from large ones (D ~ 40+) regardless of
      // where the start landed. Below the cutoffs the remaining sweeps would
      // be pure overhead: stop, leave the oracle in pass-through mode, and
      // every query routes to bidirectional BFS.
      if (k == 0 && ecc < kMinEccentricity) return;
      if (k == 1 && ecc < kMinDiameter) return;
      // kFar + 1 wraps to 0: vertices this sweep never reached are never
      // promoted.
      next = cover([out](Size v) { return static_cast<std::uint16_t>(out[v] + (out[v] == kFar)); });
    } else if (k + 1 < width_) {
      // Round 2: no sweep. The landmark's distance to v is bounded below by
      // the round-1 columns, max_j |d(L_j, landmark) - d(L_j, v)|, and
      // farthest-point runs on that bound.
      const std::uint16_t *c0 = col[0], *c1 = col[1], *c2 = col[2], *c3 = col[3];
      const std::uint16_t a0 = c0[next], a1 = c1[next], a2 = c2[next], a3 = c3[next];
      // Value selects, not std::max on references: those stay branches and
      // keep the loop scalar.
      const auto diff = [](std::uint16_t a, std::uint16_t b) {
        return static_cast<std::uint16_t>(a > b ? a - b : b - a);
      };
      const auto hi = [](std::uint16_t a, std::uint16_t b) { return a > b ? a : b; };
      next = cover([=](Size v) {
        return hi(hi(diff(c0[v], a0), diff(c1[v], a1)), hi(diff(c2[v], a2), diff(c3[v], a3)));
      });
    }
    if (next == kInvalidNode) next = landmarks_[0];
  }

  // The table: all width_ distances of a vertex in one row. The round-1
  // columns are copied in here; the round-2 landmarks are swept over the
  // executor's shards, each task claiming landmarks from one cursor and
  // sweeping into its thread's own column before copying it in.
  land_.resize(n_ * width_);
  for (NodeId v = 0; v < n_; ++v) {
    for (Size j = 0; j < kRoundOne; ++j) land_[v * width_ + j] = col[j][v];
  }
  std::atomic<Size> cursor{kRoundOne};
  executor.for_each_shard([&](Size) {
    SweepScratch& own = sweep_scratch(n_);
    for (Size k = cursor.fetch_add(1, std::memory_order_relaxed); k < width_;
         k = cursor.fetch_add(1, std::memory_order_relaxed)) {
      sweep(g, landmarks_[k], own.column.data(), own.queue.data());
      for (NodeId v = 0; v < n_; ++v) land_[v * width_ + k] = own.column[v];
    }
  });
  active_ = true;
}

std::uint32_t HopOracle::hops(NodeId s, NodeId t, Scratch& scratch) const {
  MANET_CHECK_MSG(ready(), "HopOracle::hops before prepare");
  MANET_CHECK(s < n_ && t < n_);
  if (s == t) return 0;
  if (!active_) return scratch.pair_bfs.hops(*g_, s, t);  // shallow graph: prep skipped
  return width_ == kWide ? search<kWide>(s, t, scratch) : search<kNarrow>(s, t, scratch);
}

template <Size W>
std::uint32_t HopOracle::search(NodeId s, NodeId t, Scratch& scratch) const {
  const graph::Graph& g = *g_;
  const std::uint16_t* lt = &land_[static_cast<Size>(t) * W];
  const std::uint16_t* ls = &land_[static_cast<Size>(s) * W];
  // Component screen and landmark bounds in one pass. By the triangle
  // inequality each landmark L yields |d(L,s) - d(L,t)| <= d(s,t) <=
  // d(L,s) + d(L,t). A landmark reaching exactly one endpoint separates
  // them; all landmarks share landmark 0's component (farthest-point never
  // promotes a vertex outside it, and an exhausted selection repeats
  // landmark 0), so a vertex's row is either all-finite or all-kFar — one
  // kFar entry (with the screen already passed) means both endpoints sit in
  // a minor component about which the table knows nothing.
  std::uint32_t lb = 0, ub = graph::kUnreachable;
  for (Size k = 0; k < W; ++k) {
    const std::uint32_t a = ls[k], b = lt[k];
    if ((a == kFar) != (b == kFar)) return graph::kUnreachable;
    if (a == kFar) break;
    const std::uint32_t d = a > b ? a - b : b - a;
    if (d > lb) lb = d;
    if (a + b < ub) ub = a + b;
  }
  // Certified distance: when the bounds meet (the pair is radially aligned
  // with some landmark) the answer costs nothing beyond the scan above.
  if (lb == ub) return lb;
  // Near-query dispatch: a small lower bound means the endpoints are close
  // enough that bidirectional BFS meets in a couple of rings — cheaper than
  // A*'s per-vertex h() work. Minor-component pairs (lb 0) land here too.
  if (lb < kNearCut) return scratch.pair_bfs.hops(g, s, t);

  // From here s and t share the landmarks' component, and so does every
  // vertex A* reaches: each row it reads is all-finite, so every entry is
  // below kFar and |a - b| <= 65 534 fits 16 bits. The difference and the
  // running max stay in 16-bit lanes, which the compiler vectorizes W
  // entries wide (saturating subtracts) instead of widening to 32 bits.
  const auto h = [&](NodeId u) -> std::uint32_t {
    const std::uint16_t* lu = &land_[static_cast<Size>(u) * W];
    std::uint16_t best = 0;
    for (Size k = 0; k < W; ++k) {
      const std::uint16_t a = lu[k], b = lt[k];
      const auto d = static_cast<std::uint16_t>(a > b ? a - b : b - a);
      if (d > best) best = d;
    }
    return best;
  };

  auto& slot = scratch.slot;
  auto& buckets = scratch.buckets;
  if (slot.size() < n_) slot.resize(n_, Scratch::Slot{0, 0});
  // Stamps 2e (open) and 2e + 1 (settled) must not wrap: restart the epochs
  // before 2e overflows, clearing every stamp an older query left behind.
  if (++scratch.epoch == kEpochRestart) {
    std::fill(slot.begin(), slot.end(), Scratch::Slot{0, 0});
    scratch.epoch = 1;
  }
  const std::uint32_t open = 2 * scratch.epoch, settled = open + 1;

  for (auto& b : buckets) b.clear();
  slot[s] = {open, 0};
  std::uint32_t f = h(s);
  buckets[f % 3].push_back(s);

  // Unit edges + consistent h keep every pushed key in [f, f + 2], so three
  // rotating buckets form a complete priority queue. The current bucket pops
  // LIFO: a same-key vertex pushed while expanding is the next one expanded,
  // so the search dives along the f = d(s, t) band toward t instead of
  // sweeping the whole tie band breadth-first. Any order inside the minimum
  // bucket is exact — under a consistent h a vertex popped at the minimum
  // key already holds its true distance. Entries are settled lazily: a
  // vertex re-pushed with an improved distance leaves its stale copy
  // behind, skipped by its settled stamp when popped.
  while (true) {
    auto& bucket = buckets[f % 3];
    while (!bucket.empty()) {
      const NodeId u = bucket.back();
      bucket.pop_back();
      Scratch::Slot& su = slot[u];
      if (su.stamp == settled) continue;
      if (u == t) return su.dist;
      su.stamp = settled;
      const std::uint32_t ng = su.dist + 1;
      for (const NodeId w : g.neighbors(u)) {
        Scratch::Slot& sw = slot[w];
        if (sw.stamp == settled || (sw.stamp == open && sw.dist <= ng)) continue;
        sw = {open, ng};
        // Upper-bound prune: any s-t path through w is at least ng + h(w)
        // long, so when that exceeds the certified upper bound, w cannot lie
        // on a shortest path — record the tentative distance (so equal-or-
        // worse revisits are skipped cheaply above) but skip the push. A
        // strictly shorter prefix found later re-tests the prune.
        const std::uint32_t key = ng + h(w);
        if (key > ub) continue;
        buckets[key % 3].push_back(w);
      }
    }
    ++f;
    if (buckets[0].empty() && buckets[1].empty() && buckets[2].empty()) {
      return graph::kUnreachable;
    }
  }
}

}  // namespace manet::net
