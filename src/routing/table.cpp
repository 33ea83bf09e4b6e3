#include "routing/table.hpp"

#include <algorithm>
#include <atomic>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "graph/bfs.hpp"
#include "graph/components.hpp"
#include "lm/address.hpp"

namespace manet::routing {

void RouteScratch::begin(Size n) {
  if (visited_.size() < n) {
    visited_.assign(n, 0);
    labeled_.assign(n, 0);
    dist_.resize(n);
    epoch_ = 0;
  }
  if (++epoch_ == 0) {  // stamp wraparound: old stamps become ambiguous
    std::fill(visited_.begin(), visited_.end(), 0u);
    std::fill(labeled_.begin(), labeled_.end(), 0u);
    epoch_ = 1;
  }
}

void RouteScratch::label_until(const graph::Graph& g, NodeId root, NodeId a, NodeId b) {
  const auto done = [&] {
    return labeled_[a] == epoch_ && (b == kInvalidNode || labeled_[b] == epoch_);
  };
  labeled_[root] = epoch_;
  dist_[root] = 0;
  queue_.assign(1, root);
  for (Size head = 0; head < queue_.size(); ++head) {
    const NodeId u = queue_[head];
    for (const NodeId w : g.neighbors(u)) {
      if (labeled_[w] == epoch_) continue;
      labeled_[w] = epoch_;
      dist_[w] = dist_[u] + 1;
      queue_.push_back(w);
      if ((w == a || w == b) && done()) return;
    }
  }
}

namespace {

/// One thread's workspace for the table build: the induced-subgraph and
/// fallback distance fields (kUnreachable between children: each child's
/// BFS resets them through its queue), the component stamps and both
/// queues, each sized to the largest n the thread has built for.
struct BuildScratch {
  std::vector<std::uint32_t> dist, global, component_stamp;
  std::vector<NodeId> queue, global_queue;
  std::uint32_t stamp = 0;
};

BuildScratch& build_scratch(Size n) {
  thread_local BuildScratch scratch;
  if (scratch.dist.size() < n) {
    scratch.dist.resize(n, graph::kUnreachable);
    scratch.global.resize(n, graph::kUnreachable);
    scratch.component_stamp.resize(n, 0);
    scratch.queue.resize(n);
    scratch.global_queue.resize(n);
  }
  return scratch;
}

/// Append, to the table of every member of level-\p parent_level cluster
/// \p parent, its entry toward each of the parent's children in child
/// order. Writes no other node's table; \p component labels g's components.
void fill_parent(const graph::Graph& g, const cluster::Hierarchy& h,
                 const std::vector<std::uint32_t>& component, Level parent_level,
                 NodeId parent, BuildScratch& s, std::vector<std::vector<RouteEntry>>& tables) {
  const Level child_level = parent_level - 1;
  const auto& children = h.children(parent_level, parent);
  if (children.size() < 2) return;  // no siblings, no entries
  const auto& parent_members = h.members0(parent_level, parent);
  const auto inside = [&](NodeId w) { return h.ancestor(w, parent_level) == parent; };

  for (const NodeId child : children) {
    const auto& targets = h.members0(child_level, child);

    // Multi-source BFS over the induced subgraph of parent_members.
    Size tail = 0;
    for (const NodeId t : targets) {
      s.dist[t] = 0;
      s.queue[tail++] = t;
    }
    for (Size head = 0; head < tail; ++head) {
      const NodeId u = s.queue[head];
      for (const NodeId w : g.neighbors(u)) {
        if (s.dist[w] != graph::kUnreachable || !inside(w)) continue;
        s.dist[w] = s.dist[u] + 1;
        s.queue[tail++] = w;
      }
    }

    // Fallback field for members the induced subgraph cannot reach
    // (cluster membership is not always level-0 contiguous): a global BFS
    // from the targets that stops once every cut-off member in the targets'
    // components is labeled. Members in other components (a crashed node is
    // an isolated member) stay unreachable, as under a full BFS, and cost
    // nothing. When the last cut-off member, at distance D, is labeled,
    // every node at D - 1 already is, so each next-hop scan below reads
    // exact distances.
    if (++s.stamp == 0) {  // stamp wraparound: old stamps become ambiguous
      std::fill(s.component_stamp.begin(), s.component_stamp.end(), 0u);
      s.stamp = 1;
    }
    for (const NodeId t : targets) s.component_stamp[component[t]] = s.stamp;
    Size cut_off = 0;
    for (const NodeId v : parent_members) {
      if (s.dist[v] == graph::kUnreachable && s.component_stamp[component[v]] == s.stamp) {
        ++cut_off;
      }
    }
    Size global_tail = 0;
    if (cut_off > 0) {
      for (const NodeId t : targets) {
        if (s.global[t] == 0) continue;
        s.global[t] = 0;
        s.global_queue[global_tail++] = t;
      }
      for (Size head = 0; head < global_tail && cut_off > 0; ++head) {
        const NodeId u = s.global_queue[head];
        for (const NodeId w : g.neighbors(u)) {
          if (s.global[w] != graph::kUnreachable) continue;
          s.global[w] = s.global[u] + 1;
          s.global_queue[global_tail++] = w;
          if (s.dist[w] == graph::kUnreachable && inside(w) && --cut_off == 0) break;
        }
      }
    }

    for (const NodeId v : parent_members) {
      const auto& field = s.dist[v] != graph::kUnreachable ? s.dist : s.global;
      const std::uint32_t dv = field[v];
      if (dv == 0) continue;  // v inside the target cluster
      if (dv == graph::kUnreachable) continue;  // cut off from every target
      // Next hop: the smallest-id neighbor strictly closer to the target
      // (deterministic tie-break).
      NodeId hop = kInvalidNode;
      for (const NodeId w : g.neighbors(v)) {
        if (field[w] == dv - 1 && (hop == kInvalidNode || w < hop)) hop = w;
      }
      MANET_CHECK(hop != kInvalidNode);
      tables[v].push_back(RouteEntry{child_level, child, hop, dv});
    }
    for (Size i = 0; i < tail; ++i) s.dist[s.queue[i]] = graph::kUnreachable;
    for (Size i = 0; i < global_tail; ++i) s.global[s.global_queue[i]] = graph::kUnreachable;
  }
}

}  // namespace

RoutingTables::RoutingTables(const graph::Graph& g, const cluster::Hierarchy& h,
                             const sim::ShardExecutor& executor)
    : g_(&g), h_(&h) {
  const Size n = g.vertex_count();
  MANET_CHECK(h.level(0).vertex_count() == n);
  tables_.resize(n);
  // Each node gets at most one entry per sibling of its own branch at every
  // level, so reserving that bound here, on the calling thread, keeps the
  // workers' push_backs from allocating (and the heap out of their arenas).
  for (NodeId v = 0; v < n; ++v) {
    Size bound = 0;
    for (Level k = 1; k <= h.top_level(); ++k) {
      bound += h.children(k, h.ancestor(v, k)).size() - 1;
    }
    tables_[v].reserve(bound);
  }

  // For every cluster c at every level L-1 .. 0: BFS toward c's members
  // *restricted to the parent cluster's induced subgraph*, so that forwarded
  // packets stay inside the cluster whose address prefix they have already
  // matched — this is what keeps strict hierarchical routing loop-free (a
  // path that left the parent would raise the longest-matched prefix again
  // and could oscillate). Members cut off inside the induced subgraph fall
  // back to the global shortest-path field.
  //
  // The parents of one level partition the nodes, so each level is one pass
  // over the executor's shards whose tasks claim parents from one cursor:
  // a task writes only its parent's members' tables, reads membership from
  // the hierarchy, and keeps its fields in its thread's scratch. Levels run
  // in order, so every table holds its entries in (level, child) order at
  // any shard and thread count.
  const std::vector<std::uint32_t> component = graph::component_labels(g);
  for (Level parent_level = 1; parent_level <= h.top_level(); ++parent_level) {
    const Size parents = h.cluster_count(parent_level);
    std::atomic<Size> cursor{0};
    executor.for_each_shard([&](Size) {
      BuildScratch& s = build_scratch(n);
      for (Size p = cursor.fetch_add(1, std::memory_order_relaxed); p < parents;
           p = cursor.fetch_add(1, std::memory_order_relaxed)) {
        fill_parent(g, h, component, parent_level, static_cast<NodeId>(p), s, tables_);
      }
    });
  }
}

const std::vector<RouteEntry>& RoutingTables::entries(NodeId v) const {
  MANET_CHECK(v < tables_.size());
  return tables_[v];
}

double RoutingTables::mean_table_size() const {
  if (tables_.empty()) return 0.0;
  Size total = 0;
  for (const auto& t : tables_) total += t.size();
  return static_cast<double>(total) / static_cast<double>(tables_.size());
}

const RouteEntry* RoutingTables::find_entry(NodeId u, Level level, NodeId cluster) const {
  for (const auto& entry : tables_[u]) {
    if (entry.level == level && entry.target == cluster) return &entry;
  }
  return nullptr;
}

NodeId RoutingTables::next_hop(NodeId u, NodeId dest) const {
  MANET_CHECK(u < tables_.size() && dest < tables_.size());
  if (u == dest) return u;
  // Lowest level where u and dest share a cluster; the packet heads for the
  // destination's cluster one level below the shared one.
  const Level shared = lm::lowest_common_level(*h_, u, dest);
  MANET_CHECK(shared >= 1);
  const NodeId target = h_->ancestor(dest, shared - 1);
  const RouteEntry* entry = find_entry(u, shared - 1, target);
  return entry != nullptr ? entry->next_hop : kInvalidNode;
}

RoutingTables::RouteResult RoutingTables::route(NodeId u, NodeId dest, RouteScratch& scratch,
                                                std::vector<NodeId>* path) const {
  MANET_CHECK(u < tables_.size() && dest < tables_.size());
  scratch.begin(tables_.size());
  if (path != nullptr) path->assign(1, u);
  RouteResult result;
  scratch.visit(u);
  // Hierarchical forwarding visits a new node per hop, so it ends within
  // n - 1 hops: at dest, or at the first revisit (or missing entry).
  NodeId cur = u;
  NodeId hop = kInvalidNode;
  while (cur != dest) {
    hop = next_hop(cur, dest);
    if (hop == kInvalidNode || scratch.visited(hop)) break;
    scratch.visit(hop);
    if (path != nullptr) path->push_back(hop);
    ++result.hops;
    cur = hop;
  }
  result.delivered = cur == dest;
  if (result.delivered) return result;

  // Recovery (rule in the header): one BFS from dest, stopped once cur and
  // the oscillating hop are labeled, decides the first step and prices the
  // descent from it.
  result.recovered = true;
  scratch.label_until(*g_, dest, cur, hop);
  if (scratch.hops(cur) == graph::kUnreachable) return result;
  // The smallest of `seed` and x's neighbors one hop closer to dest.
  const auto closer = [&](NodeId x, NodeId seed) {
    const std::uint32_t dx = scratch.hops(x);
    for (const NodeId w : g_->neighbors(x)) {
      if (scratch.hops(w) == dx - 1 && (seed == kInvalidNode || w < seed)) seed = w;
    }
    return seed;
  };
  const NodeId step = closer(cur, hop);
  result.delivered = true;
  result.hops += 1 + scratch.hops(step);
  if (path != nullptr) {
    path->push_back(step);
    for (cur = step; cur != dest; path->push_back(cur)) cur = closer(cur, kInvalidNode);
  }
  return result;
}

StretchStats measure_stretch(const RoutingTables& tables, const graph::Graph& g, Size pairs,
                             std::uint64_t seed) {
  StretchStats stats;
  common::Xoshiro256 rng(seed);
  graph::BfsPairScratch bfs;
  RouteScratch scratch;
  const Size n = g.vertex_count();
  if (n < 2) return stats;

  double stretch_sum = 0.0;
  double hier_sum = 0.0;
  double short_sum = 0.0;
  while (stats.sampled_pairs + stats.failures < pairs) {
    const auto u = static_cast<NodeId>(common::uniform_index(rng, n));
    const auto v = static_cast<NodeId>(common::uniform_index(rng, n));
    if (u == v) continue;
    const auto shortest = bfs.hops(g, u, v);
    if (shortest == graph::kUnreachable) continue;

    const auto routed = tables.route(u, v, scratch);
    if (!routed.delivered) {
      ++stats.failures;
      continue;
    }
    if (routed.recovered) ++stats.recoveries;
    const double hier = static_cast<double>(routed.hops);
    const double stretch = hier / static_cast<double>(shortest);
    stretch_sum += stretch;
    hier_sum += hier;
    short_sum += shortest;
    stats.max_stretch = std::max(stats.max_stretch, stretch);
    ++stats.sampled_pairs;
  }
  if (stats.sampled_pairs > 0) {
    const auto m = static_cast<double>(stats.sampled_pairs);
    stats.mean_stretch = stretch_sum / m;
    stats.mean_hier_hops = hier_sum / m;
    stats.mean_shortest_hops = short_sum / m;
  }
  return stats;
}

}  // namespace manet::routing
