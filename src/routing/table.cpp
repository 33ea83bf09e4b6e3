#include "routing/table.hpp"

#include <algorithm>

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
constexpr std::uint32_t kNoCluster = 0xFFFFFFFFu;
}  // namespace

RoutingTables::RoutingTables(const graph::Graph& g, const cluster::Hierarchy& h)
    : g_(&g), h_(&h) {
  const Size n = g.vertex_count();
  MANET_CHECK(h.level(0).vertex_count() == n);
  tables_.resize(n);

  // For every cluster c at every level L-1 .. 0: BFS toward c's members
  // *restricted to the parent cluster's induced subgraph*, so that forwarded
  // packets stay inside the cluster whose address prefix they have already
  // matched — this is what keeps strict hierarchical routing loop-free (a
  // path that left the parent would raise the longest-matched prefix again
  // and could oscillate). Members cut off inside the induced subgraph fall
  // back to the global shortest-path field. Both fields are built in place
  // and reset through their queues, so a build allocates O(n) once.
  const std::vector<std::uint32_t> component = graph::component_labels(g);
  std::vector<std::uint32_t> component_stamp(n, 0);
  std::uint32_t stamp = 0;
  std::vector<std::uint32_t> membership(n, kNoCluster);  // node -> parent cluster id
  std::vector<std::uint32_t> dist(n, graph::kUnreachable);    // induced-subgraph field
  std::vector<std::uint32_t> global(n, graph::kUnreachable);  // fallback field
  std::vector<NodeId> queue, global_queue;
  for (Level parent_level = 1; parent_level <= h.top_level(); ++parent_level) {
    const Level child_level = parent_level - 1;
    for (NodeId parent = 0; parent < h.cluster_count(parent_level); ++parent) {
      const auto& children = h.children(parent_level, parent);
      if (children.size() < 2) continue;  // no siblings, no entries
      const auto& parent_members = h.members0(parent_level, parent);
      for (const NodeId v : parent_members) membership[v] = parent;

      for (const NodeId child : children) {
        const auto& targets = h.members0(child_level, child);

        // Multi-source BFS over the induced subgraph of parent_members.
        queue.clear();
        for (const NodeId s : targets) {
          dist[s] = 0;
          queue.push_back(s);
        }
        for (Size head = 0; head < queue.size(); ++head) {
          const NodeId u = queue[head];
          for (const NodeId w : g.neighbors(u)) {
            if (membership[w] != parent || dist[w] != graph::kUnreachable) continue;
            dist[w] = dist[u] + 1;
            queue.push_back(w);
          }
        }

        // Fallback field for members the induced subgraph cannot reach
        // (cluster membership is not always level-0 contiguous): a global
        // BFS from the targets that stops once every cut-off member in the
        // targets' components is labeled. Members in other components (a
        // crashed node is an isolated member) stay unreachable, as under a
        // full BFS, and cost nothing. When the last cut-off member, at
        // distance D, is labeled, every node at D - 1 already is, so each
        // next-hop scan below reads exact distances.
        ++stamp;
        for (const NodeId s : targets) component_stamp[component[s]] = stamp;
        Size cut_off = 0;
        for (const NodeId v : parent_members) {
          if (dist[v] == graph::kUnreachable && component_stamp[component[v]] == stamp) ++cut_off;
        }
        global_queue.clear();
        if (cut_off > 0) {
          for (const NodeId s : targets) {
            if (global[s] == 0) continue;
            global[s] = 0;
            global_queue.push_back(s);
          }
          for (Size head = 0; head < global_queue.size() && cut_off > 0; ++head) {
            const NodeId u = global_queue[head];
            for (const NodeId w : g.neighbors(u)) {
              if (global[w] != graph::kUnreachable) continue;
              global[w] = global[u] + 1;
              global_queue.push_back(w);
              if (membership[w] == parent && dist[w] == graph::kUnreachable && --cut_off == 0) {
                break;
              }
            }
          }
        }

        for (const NodeId v : parent_members) {
          const auto& field = dist[v] != graph::kUnreachable ? dist : global;
          const std::uint32_t dv = field[v];
          if (dv == 0) continue;  // v inside the target cluster
          if (dv == graph::kUnreachable) continue;  // cut off from every target
          // Next hop: the smallest-id neighbor strictly closer to the
          // target (deterministic tie-break).
          NodeId hop = kInvalidNode;
          for (const NodeId w : g.neighbors(v)) {
            if (field[w] == dv - 1 && (hop == kInvalidNode || w < hop)) hop = w;
          }
          MANET_CHECK(hop != kInvalidNode);
          tables_[v].push_back(RouteEntry{child_level, child, hop, dv});
        }
        for (const NodeId v : queue) dist[v] = graph::kUnreachable;
        for (const NodeId v : global_queue) global[v] = graph::kUnreachable;
      }
      for (const NodeId v : parent_members) membership[v] = kNoCluster;
    }
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
