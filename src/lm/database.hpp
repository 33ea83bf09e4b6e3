#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

/// \file database.hpp
/// The distributed LM database: each node stores location entries for the
/// owners that hash to it. The paper's key storage claim (Section 3.2) is
/// that with L = Theta(log|V|) levels each node serves Theta(log|V|) owners
/// on average — this module provides the entry store plus the load census
/// used by experiment E7 to verify equitable distribution.

namespace manet::lm {

/// One stored location record.
struct LocationRecord {
  NodeId owner = kInvalidNode;  ///< whose location this is
  Level level = 0;              ///< which level-k server role stores it
  Time updated = 0.0;           ///< last refresh time
  std::uint64_t version = 0;    ///< monotone per-entry version
};

/// The (owner, level) entry table. In CHLM every owner has exactly one
/// level-k server per level k (Section 3.2), so the database is a function
/// of (owner, level): each level holds one slot per owner, naming the server
/// that holds the entry. One holder per entry is structural, and put()
/// refuses an entry that another server holds.
class LmDatabase {
 public:
  /// Levels at or above this bound are refused (hierarchy depth is
  /// Theta(log |V|), so only a corrupted argument can reach it).
  static constexpr Level kLevelBound = Level{1} << 16;

  explicit LmDatabase(Size n_nodes = 0);

  /// Empty the table for \p n_nodes servers and owners; the level arrays
  /// keep their capacity.
  void reset(Size n_nodes);

  /// Insert or overwrite the (owner, level) record at \p server. The entry
  /// must be held by nobody or by \p server already.
  void put(NodeId server, LocationRecord record);

  /// Remove the (owner, level) record from \p server; returns the record or
  /// a default one with owner == kInvalidNode if \p server does not hold it.
  LocationRecord take(NodeId server, NodeId owner, Level level);

  /// Lookup without removal; nullptr when \p server does not hold it.
  const LocationRecord* find(NodeId server, NodeId owner, Level level) const;

  /// Server holding the (owner, level) entry; kInvalidNode when none does.
  NodeId holder(NodeId owner, Level level) const;

  /// Remove and return every record stored at \p server (a node crash wipes
  /// its store). Records are returned sorted by (owner, level) so callers
  /// iterate deterministically.
  std::vector<LocationRecord> drop_all(NodeId server);

  /// Number of entries held by \p server.
  Size entry_count(NodeId server) const;

  Size total_entries() const { return total_; }

  /// Entry counts for every node (the load histogram source).
  std::vector<Size> load_vector() const { return counts_; }

 private:
  struct Slot {
    NodeId holder = kInvalidNode;
    LocationRecord record;
  };
  /// The (owner, level) slot; nullptr when level \p level has no array yet
  /// or \p owner is out of range.
  const Slot* slot(NodeId owner, Level level) const;

  /// levels_[k][owner]; a level's array is sized on its first put().
  std::vector<std::vector<Slot>> levels_;
  std::vector<Size> counts_;  ///< entries held per server
  Size total_ = 0;
};

/// Server-load summary over a load vector.
struct LoadStats {
  double mean = 0.0;
  double max = 0.0;
  double variance = 0.0;
  double gini = 0.0;  ///< 0 = perfectly equal, -> 1 = concentrated
};

LoadStats load_stats(const std::vector<Size>& loads);

}  // namespace manet::lm
