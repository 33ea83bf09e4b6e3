#include "cluster/hierarchy.hpp"

#include "common/check.hpp"

namespace manet::cluster {

const LevelView& Hierarchy::level(Level k) const {
  MANET_CHECK(k < levels_.size());
  return levels_[k];
}

NodeId Hierarchy::ancestor(NodeId v, Level k) const {
  const LevelView& lv = level(k);
  MANET_CHECK(v < levels_[0].ids.size());
  return k == 0 ? v : lv.ancestor[v];
}

NodeId Hierarchy::ancestor_id(NodeId v, Level k) const {
  return level(k).ids[ancestor(v, k)];
}

std::span<const NodeId> Hierarchy::children(Level k, NodeId cluster) const {
  MANET_CHECK(k >= 1 && cluster < cluster_count(k));
  return levels_[k].children.row(cluster);
}

std::span<const NodeId> Hierarchy::members0(Level k, NodeId cluster) const {
  MANET_CHECK(cluster < cluster_count(k));
  if (k == 0) return {levels_[0].node0.data() + cluster, 1};
  return levels_[k].members0.row(cluster);
}

std::vector<NodeId> Hierarchy::address(NodeId v) const {
  std::vector<NodeId> out;
  out.reserve(level_count());
  for (Level k = top_level();; --k) {
    out.push_back(ancestor_id(v, k));
    if (k == 0) break;
  }
  return out;
}

}  // namespace manet::cluster
