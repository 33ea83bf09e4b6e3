#include "lm/server_select.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "lm/rendezvous.hpp"

namespace manet::lm {

const char* to_string(SelectStrategy strategy) {
  switch (strategy) {
    case SelectStrategy::kFlatSuccessor: return "flat_successor";
    case SelectStrategy::kWeightedDescent: return "weighted_descent";
    case SelectStrategy::kUnweightedDescent: return "unweighted_descent";
  }
  return "?";
}

namespace {

/// Base salt of the descent strategies' rendezvous hashing.
constexpr std::uint64_t kSelectSalt = 0x53554345435F4C4DULL;  // "SUCEC_LM"

/// Salt for one descent step, independent per (target level, depth).
std::uint64_t step_salt(Level k, Level depth) {
  return common::hash_combine(kSelectSalt, (static_cast<std::uint64_t>(k) << 32) | depth);
}

/// Successor-ID rule over the level-k cluster's flat member set: the member
/// whose id minimizes (id_z - id_owner - 1) mod 2^32 — the least id above
/// the owner's, cyclically (the paper's eq. (5) applied to members, where it
/// IS equitable because ids are uniform). The owner scores 2^32 - 1 and is
/// chosen only when alone in the cluster. The salt deliberately does not
/// enter: stability under cluster relabeling is the point.
NodeId flat_successor(const cluster::Hierarchy& h, NodeId cluster, Level k, NodeId owner) {
  const auto& members = h.members0(k, cluster);
  MANET_CHECK(!members.empty());
  const NodeId owner_id = h.level(0).ids[owner];
  const auto& ids0 = h.level(0).ids;
  NodeId best = kInvalidNode;
  std::uint32_t best_score = 0xFFFFFFFFu;
  for (const NodeId z : members) {
    if (ids0[z] == owner_id) continue;
    const std::uint32_t score = ids0[z] - owner_id - 1;  // mod 2^32 wraparound
    if (best == kInvalidNode || score < best_score) {
      best = z;
      best_score = score;
    }
  }
  return best == kInvalidNode ? owner : best;  // singleton cluster: self-serve
}

/// Hash-chain descent from a level-k cluster down to a level-0 node.
NodeId descend(const cluster::Hierarchy& h, NodeId cluster, Level k, NodeId owner,
               const ServerSelectConfig& config) {
  const NodeId owner_id = h.level(0).ids[owner];
  const bool weighted = config.strategy == SelectStrategy::kWeightedDescent;
  for (Level lvl = k; lvl >= 1; --lvl) {
    const auto& kids = h.children(lvl, cluster);  // dense at lvl-1
    MANET_CHECK(!kids.empty());

    const std::uint64_t salt = step_salt(k, lvl);
    const auto& child_ids = h.level(lvl - 1).ids;
    NodeId best = kInvalidNode;
    double best_score = 0.0;
    for (const NodeId child : kids) {
      double weight = 1.0;
      if (weighted && lvl >= 2) {
        weight = static_cast<double>(h.members0(lvl - 1, child).size());
      }
      // Weighting children by their level-0 member counts makes the
      // descended-to node uniform over members (weighted HRW; see
      // rendezvous_weighted_score).
      const double score = rendezvous_weighted_score(salt, owner_id, child_ids[child], weight);
      if (best == kInvalidNode || score > best_score ||
          (score == best_score && child_ids[child] < child_ids[best])) {
        best = child;
        best_score = score;
      }
    }
    cluster = best;
  }
  return cluster;  // dense level-0 vertex index
}

}  // namespace

NodeId select_server(const cluster::Hierarchy& h, NodeId owner, Level k,
                     const ServerSelectConfig& config) {
  MANET_CHECK_MSG(k >= kFirstServedLevel, "levels below 2 carry no explicit LM server");
  MANET_CHECK_MSG(k <= h.top_level(), "level beyond hierarchy top");
  return select_server_in(h, h.ancestor(owner, k), k, owner, config);
}

NodeId select_server_in(const cluster::Hierarchy& h, NodeId cluster, Level k, NodeId owner,
                        const ServerSelectConfig& config) {
  MANET_CHECK_MSG(k >= 1, "descent requires a clustered level");
  MANET_CHECK_MSG(k <= h.top_level(), "level beyond hierarchy top");
  MANET_CHECK(cluster < h.level(k).vertex_count());
  if (config.strategy == SelectStrategy::kFlatSuccessor) {
    return flat_successor(h, cluster, k, owner);
  }
  return descend(h, cluster, k, owner, config);
}

Size select_all_servers_into(const cluster::Hierarchy& h, const ServerSelectConfig& config,
                             std::vector<NodeId>& out) {
  const Size n = h.level(0).vertex_count();
  const Level top = h.top_level();
  const Size width = top >= kFirstServedLevel ? top - kFirstServedLevel + 1 : 0;
  out.assign(n * width, kInvalidNode);
  if (width == 0) return width;

  if (config.strategy != SelectStrategy::kFlatSuccessor) {
    for (NodeId owner = 0; owner < n; ++owner) {
      for (Level k = kFirstServedLevel; k <= top; ++k) {
        out[owner * width + (k - kFirstServedLevel)] = select_server(h, owner, k, config);
      }
    }
    return width;
  }

  // Flat successor: one walk of the level-0 vertices in (id, vertex) order
  // per level. Each vertex is chained as the server of the previous member
  // of its level-k cluster met in the walk, and after the walk each
  // cluster's last member wraps to its first. That is the cyclic id
  // successor of flat_successor() — a singleton cluster's only member is
  // both first and last, so it serves itself — with no per-cluster sort.
  const auto& ids0 = h.level(0).ids;
  std::vector<std::uint64_t> order(n);  // (original id << 32) | dense vertex
  for (NodeId v = 0; v < n; ++v) order[v] = (static_cast<std::uint64_t>(ids0[v]) << 32) | v;
  std::sort(order.begin(), order.end());
  std::vector<NodeId> first, last;
  for (Level k = kFirstServedLevel; k <= top; ++k) {
    const Size slot = k - kFirstServedLevel;
    first.assign(h.cluster_count(k), kInvalidNode);
    last.assign(h.cluster_count(k), kInvalidNode);
    for (const std::uint64_t key : order) {
      const auto v = static_cast<NodeId>(key);
      const NodeId c = h.ancestor(v, k);
      if (last[c] == kInvalidNode) {
        first[c] = v;
      } else {
        out[last[c] * width + slot] = v;
      }
      last[c] = v;
    }
    for (NodeId c = 0; c < first.size(); ++c) {
      MANET_CHECK(last[c] != kInvalidNode);  // every cluster has a member
      out[last[c] * width + slot] = first[c];
    }
  }
  return width;
}

}  // namespace manet::lm
