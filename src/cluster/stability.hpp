#pragma once

#include <utility>
#include <vector>

#include "cluster/hierarchy.hpp"

/// \file stability.hpp
/// Clusterhead tenure tracking — the temporal side of the paper's Section
/// 5.3. The analysis bounds the expected duration before a critical
/// clusterhead is rejected: T_m = Theta(h_m) for migration-driven rejection
/// (Section 5.3.1 applied to level-m links) and T_R >= Theta(h_{k-2}) for
/// the recursive chain (eq. 23a). Both predict that mean clusterhead
/// lifetime *grows with level* like the intra-cluster hop count. This
/// tracker measures the realized tenure distribution per level (experiment
/// E22, reported by bench_alca_states).

namespace manet::cluster {

/// Tenure statistics for one hierarchy level.
struct TenureStats {
  double mean_lifetime = 0.0;   ///< completed tenures only, seconds
  double max_lifetime = 0.0;
  Size completed = 0;           ///< tenures that ended inside the window
  Size ongoing = 0;             ///< heads alive at the end of observation
  double mean_ongoing_age = 0.0;///< censored tenures' current age
};

class HeadLifetimeTracker {
 public:
  /// Observe snapshot \p h at time \p t (monotone). Heads appearing gain a
  /// birth stamp; heads disappearing contribute a completed tenure.
  void observe(const Hierarchy& h, Time t);

  /// Levels with any data (index = hierarchy level, starting at 1).
  Size level_count() const { return levels_.size(); }

  /// Tenure statistics for level \p k as of the last observation.
  TenureStats stats(Level k) const;

  /// Total completed tenures across levels.
  Size total_completed() const;

 private:
  struct LevelState {
    /// (head id, birth time) in birth order: survivors keep their place and
    /// a re-born head goes to the back, so the lifetime and age sums add in
    /// one fixed order.
    std::vector<std::pair<NodeId, Time>> alive;
    double lifetime_sum = 0.0;
    double lifetime_max = 0.0;
    Size completed = 0;
  };

  std::vector<LevelState> levels_;  ///< index: level - 1
  /// Per-observe scratch, sorted for lower_bound (capacity retained): ids
  /// are unique but not dense, so membership is a search, not an index.
  std::vector<NodeId> present_;  ///< the level's current head ids
  std::vector<NodeId> born_;     ///< ids alive before this observe
  Time last_time_ = 0.0;
  bool started_ = false;
};

}  // namespace manet::cluster
