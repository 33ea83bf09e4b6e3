#include "cluster/stability.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace manet::cluster {

void HeadLifetimeTracker::observe(const Hierarchy& h, Time t) {
  MANET_CHECK_MSG(!started_ || t >= last_time_, "observation time must be monotone");

  const Level top = h.top_level();
  if (levels_.size() < top) levels_.resize(top);

  for (Level k = 1; k <= top; ++k) {
    LevelState& state = levels_[k - 1];
    const auto& ids = h.level(k).ids;

    present_.assign(ids.begin(), ids.end());
    std::sort(present_.begin(), present_.end());
    born_.clear();
    for (const auto& [id, birth] : state.alive) born_.push_back(id);
    std::sort(born_.begin(), born_.end());
    // Deaths: heads that vanished complete a tenure; survivors keep their
    // order.
    Size kept = 0;
    for (const auto& entry : state.alive) {
      if (std::binary_search(present_.begin(), present_.end(), entry.first)) {
        state.alive[kept++] = entry;
        continue;
      }
      const double lifetime = t - entry.second;
      state.lifetime_sum += lifetime;
      state.lifetime_max = std::max(state.lifetime_max, lifetime);
      ++state.completed;
    }
    state.alive.resize(kept);
    // Births, in the level's id order.
    for (const NodeId id : ids) {
      if (!std::binary_search(born_.begin(), born_.end(), id)) state.alive.emplace_back(id, t);
    }
  }
  // Levels beyond the current top: everything alive there dies now.
  for (Level k = top + 1; k <= levels_.size(); ++k) {
    LevelState& state = levels_[k - 1];
    for (const auto& [id, birth] : state.alive) {
      const double lifetime = t - birth;
      state.lifetime_sum += lifetime;
      state.lifetime_max = std::max(state.lifetime_max, lifetime);
      ++state.completed;
    }
    state.alive.clear();
  }

  last_time_ = t;
  started_ = true;
}

TenureStats HeadLifetimeTracker::stats(Level k) const {
  TenureStats out;
  MANET_CHECK(k >= 1);
  if (k > levels_.size()) return out;
  const LevelState& state = levels_[k - 1];
  out.completed = state.completed;
  out.max_lifetime = state.lifetime_max;
  if (state.completed > 0) {
    out.mean_lifetime = state.lifetime_sum / static_cast<double>(state.completed);
  }
  out.ongoing = state.alive.size();
  if (!state.alive.empty()) {
    double age_sum = 0.0;
    for (const auto& [id, birth] : state.alive) age_sum += last_time_ - birth;
    out.mean_ongoing_age = age_sum / static_cast<double>(state.alive.size());
  }
  return out;
}

Size HeadLifetimeTracker::total_completed() const {
  Size total = 0;
  for (const auto& state : levels_) total += state.completed;
  return total;
}

}  // namespace manet::cluster
