#include "net/hop_oracle.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "graph/bfs.hpp"

namespace manet::net {

void HopOracle::prepare(const graph::Graph& g) {
  g_ = &g;
  n_ = g.vertex_count();
  active_ = false;
  const Size k_count = std::min<Size>(kLandmarks, n_);
  land_.resize(n_ * kLandmarks);
  if (sweep_dist_.size() < n_) {
    sweep_dist_.resize(n_);
    sweep_queue_.resize(n_);
  }
  min_dist_.assign(n_, graph::kUnreachable);

  // Farthest-point sampling: each landmark is the vertex maximizing the
  // distance to all previous ones (ties -> lowest id), which spreads them
  // toward the deployment boundary where the bounds are tightest. It starts
  // from the highest-degree vertex (lowest id on ties), never a crashed
  // vertex the fault plane stripped to degree 0 while any edge exists: a
  // sweep from one of those would read eccentricity 0 and disarm the tick.
  // Vertices outside landmark 0's component report kUnreachable and are
  // never promoted — minor components keep h = 0 and degrade to plain BFS,
  // which their size makes cheap anyway.
  NodeId next = 0;
  for (NodeId v = 1; v < n_; ++v) {
    if (g.degree(v) > g.degree(next)) next = v;
  }
  for (Size k = 0; k < kLandmarks; ++k) {
    if (k >= k_count) {
      // Fewer vertices than table slots: duplicate the last sweep so every
      // slot stays a valid bound.
      for (NodeId v = 0; v < n_; ++v) land_[v * kLandmarks + k] = land_[v * kLandmarks + k - 1];
      continue;
    }
    // Plain BFS sweep into reusable scratch.
    std::fill_n(sweep_dist_.begin(), n_, graph::kUnreachable);
    Size head = 0, tail = 0;
    sweep_dist_[next] = 0;
    sweep_queue_[tail++] = next;
    while (head < tail) {
      const NodeId u = sweep_queue_[head++];
      const std::uint32_t d = sweep_dist_[u] + 1;
      for (const NodeId w : g.neighbors(u)) {
        if (sweep_dist_[w] != graph::kUnreachable) continue;
        sweep_dist_[w] = d;
        sweep_queue_[tail++] = w;
      }
    }
    // BFS dequeues in distance order, so the last vertex is the farthest.
    const std::uint32_t ecc = sweep_dist_[sweep_queue_[tail - 1]];
    // The 16-bit rows reserve kFar for "unreachable": a deeper sweep cannot
    // be stored, so the oracle stays in pass-through mode.
    if (ecc >= kFar) return;
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
    for (NodeId v = 0; v < n_; ++v) {
      const std::uint32_t dv = sweep_dist_[v];
      land_[v * kLandmarks + k] = static_cast<std::uint16_t>(dv == graph::kUnreachable ? kFar : dv);
      const std::uint32_t reach = dv == graph::kUnreachable ? 0 : dv;
      if (reach < min_dist_[v]) min_dist_[v] = reach;
    }
    next = 0;
    for (NodeId v = 1; v < n_; ++v) {
      if (min_dist_[v] > min_dist_[next]) next = v;
    }
  }
  active_ = true;
}

std::uint32_t HopOracle::hops(NodeId s, NodeId t, Scratch& scratch) const {
  MANET_CHECK_MSG(ready(), "HopOracle::hops before prepare");
  MANET_CHECK(s < n_ && t < n_);
  if (s == t) return 0;
  const graph::Graph& g = *g_;
  if (!active_) return scratch.pair_bfs.hops(g, s, t);  // shallow graph: prep skipped

  const std::uint16_t* lt = &land_[static_cast<Size>(t) * kLandmarks];
  const std::uint16_t* ls = &land_[static_cast<Size>(s) * kLandmarks];
  // Component screen and landmark bounds in one pass. By the triangle
  // inequality each landmark L yields |d(L,s) - d(L,t)| <= d(s,t) <=
  // d(L,s) + d(L,t). A landmark reaching exactly one endpoint separates
  // them; all landmarks share a component by construction, so a vertex's
  // row is either all-finite or all-kFar — one kFar entry (with the screen
  // already passed) means both endpoints sit in a minor component about
  // which the table knows nothing.
  std::uint32_t lb = 0, ub = graph::kUnreachable;
  for (Size k = 0; k < kLandmarks; ++k) {
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
  // running max stay in 16-bit lanes, which the compiler vectorizes 16
  // entries wide (saturating subtracts) instead of widening to 32 bits.
  const auto h = [&](NodeId u) -> std::uint32_t {
    const std::uint16_t* lu = &land_[static_cast<Size>(u) * kLandmarks];
    std::uint16_t best = 0;
    for (Size k = 0; k < kLandmarks; ++k) {
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
