#include "cluster/maxmin.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace manet::cluster {

MaxMinDCluster::MaxMinDCluster(Level d) : d_(d) { MANET_CHECK(d >= 1); }

ElectionResult MaxMinDCluster::elect(const graph::Graph& g,
                                     std::span<const NodeId> ids) const {
  const Size n = g.vertex_count();
  MANET_CHECK(ids.size() == n);

  // Round logs: winners_max[r][v] / winners_min[r][v] hold the id held by v
  // after round r (r = 0 is the initial state: own id / floodmax result).
  std::vector<std::vector<NodeId>> wmax(d_ + 1, std::vector<NodeId>(n));
  for (NodeId v = 0; v < n; ++v) wmax[0][v] = ids[v];
  for (Level r = 1; r <= d_; ++r) {
    for (NodeId v = 0; v < n; ++v) {
      NodeId best = wmax[r - 1][v];
      for (const NodeId u : g.neighbors(v)) best = std::max(best, wmax[r - 1][u]);
      wmax[r][v] = best;
    }
  }
  std::vector<std::vector<NodeId>> wmin(d_ + 1, std::vector<NodeId>(n));
  wmin[0] = wmax[d_];
  for (Level r = 1; r <= d_; ++r) {
    for (NodeId v = 0; v < n; ++v) {
      NodeId best = wmin[r - 1][v];
      for (const NodeId u : g.neighbors(v)) best = std::min(best, wmin[r - 1][u]);
      wmin[r][v] = best;
    }
  }

  // Election rules. chosen_id[v] is the id of the head v affiliates with.
  std::vector<NodeId> chosen_id(n);
  for (NodeId v = 0; v < n; ++v) {
    const NodeId self = ids[v];
    // Rule 1: own id seen in floodmin rounds.
    bool own_in_min = false;
    for (Level r = 1; r <= d_; ++r) own_in_min |= (wmin[r][v] == self);
    if (own_in_min) {
      chosen_id[v] = self;
      continue;
    }
    // Rule 2: minimum "node pair" — id present in both phases' round logs.
    NodeId best_pair = kInvalidNode;
    for (Level rm = 1; rm <= d_; ++rm) {
      const NodeId cand = wmin[rm][v];
      bool in_max = false;
      for (Level rx = 1; rx <= d_; ++rx) in_max |= (wmax[rx][v] == cand);
      if (in_max && (best_pair == kInvalidNode || cand < best_pair)) best_pair = cand;
    }
    if (best_pair != kInvalidNode) {
      chosen_id[v] = best_pair;
      continue;
    }
    // Rule 3: maximum id from floodmax.
    chosen_id[v] = wmax[d_][v];
  }

  // Map ids back to dense vertices and close the head set: every chosen id
  // must itself be a head (Amis et al. prove this for connected graphs; the
  // promotion below also covers degenerate cases so the partition is always
  // well formed).
  IdIndex id_to_vertex;
  index_ids(ids, id_to_vertex);

  ElectionResult result;
  result.head_of.resize(n);
  result.votes.assign(n, 0);
  std::vector<bool> is_head(n, false);
  for (NodeId v = 0; v < n; ++v) {
    const NodeId head = vertex_of(id_to_vertex, chosen_id[v]);
    MANET_CHECK_MSG(head != kInvalidNode, "max-min elected an unknown id");
    result.head_of[v] = head;
    is_head[head] = true;
  }
  for (NodeId v = 0; v < n; ++v) {
    if (is_head[v]) {
      result.head_of[v] = v;
      result.clusterheads.push_back(v);
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (result.head_of[v] != v) ++result.votes[result.head_of[v]];
  }
  return result;
}

}  // namespace manet::cluster
