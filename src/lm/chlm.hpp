#pragma once

#include <vector>

#include "graph/bfs.hpp"
#include "lm/database.hpp"
#include "lm/server_select.hpp"

/// \file chlm.hpp
/// Clustered-Hierarchy Location Management (CHLM) — the paper's primary
/// contribution (Section 3.2). For every node v and every hierarchy level
/// k in [2, L], a level-k LM server stores v's location. The assignment
/// table is a pure function of (hierarchy snapshot, select config); this
/// class materializes it, populates the distributed database, and answers
/// GLS-style location queries (walk up the enclosing clusters of the
/// requester until a server that covers the target is found).

namespace manet::lm {

class ChlmService {
 public:
  explicit ChlmService(ServerSelectConfig config = ServerSelectConfig{});

  /// Recompute the full assignment table for hierarchy snapshot \p h and
  /// (re)populate the database at time \p now.
  void rebuild(const cluster::Hierarchy& h, Time now = 0.0);

  Size node_count() const { return db_.node_count(); }

  /// Highest served level in the last rebuild (the hierarchy top). Levels
  /// [2, top] carry servers; a hierarchy with top < 2 has none.
  Level top_level() const { return top_level_; }

  /// Level-k server of \p owner, or kInvalidNode when k is outside [2, top].
  NodeId server_of(NodeId owner, Level k) const;

  /// Number of distinct served levels (top - 1 when top >= 2, else 0).
  Size served_levels() const { return width_; }

  const LmDatabase& database() const { return db_; }

  /// Query cost in packet transmissions: \p requester looks up \p target by
  /// probing its candidate level-k servers computed within the requester's
  /// own level-k clusters, k ascending, until the true server is hit; then
  /// the reply returns directly. Requires both nodes in the (connected)
  /// level-0 graph \p g. Implements the paper's Section 6 observation that
  /// query cost is on the order of the requester-target hop count.
  PacketCount query_cost(const cluster::Hierarchy& h, const graph::Graph& g, NodeId requester,
                         NodeId target) const;

  const ServerSelectConfig& config() const { return config_; }

 private:
  ServerSelectConfig config_;
  /// servers_[owner * width_ + (k - 2)] for k in [2, top_level_].
  std::vector<NodeId> servers_;
  Size width_ = 0;
  Level top_level_ = 0;
  LmDatabase db_;
};

}  // namespace manet::lm
