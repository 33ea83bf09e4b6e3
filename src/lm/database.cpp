#include "lm/database.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace manet::lm {

LmDatabase::LmDatabase(Size n_nodes) { reset(n_nodes); }

void LmDatabase::reset(Size n_nodes) {
  for (auto& slots : levels_) slots.clear();
  counts_.assign(n_nodes, 0);
  total_ = 0;
}

const LmDatabase::Slot* LmDatabase::slot(NodeId owner, Level level) const {
  if (level >= levels_.size() || owner >= levels_[level].size()) return nullptr;
  return &levels_[level][owner];
}

void LmDatabase::put(NodeId server, LocationRecord record) {
  MANET_CHECK(server < counts_.size());
  MANET_CHECK(record.owner < counts_.size());
  MANET_CHECK_MSG(record.level < kLevelBound, "level out of range");
  if (levels_.size() <= record.level) levels_.resize(record.level + 1);
  auto& slots = levels_[record.level];
  if (slots.empty()) slots.resize(counts_.size());
  Slot& s = slots[record.owner];
  MANET_CHECK_MSG(s.holder == kInvalidNode || s.holder == server,
                  "entry already held by another server");
  if (s.holder == kInvalidNode) {
    s.holder = server;
    ++counts_[server];
    ++total_;
  }
  s.record = record;
}

LocationRecord LmDatabase::take(NodeId server, NodeId owner, Level level) {
  MANET_CHECK(server < counts_.size());
  const Slot* found = slot(owner, level);
  if (found == nullptr || found->holder != server) return LocationRecord{};
  Slot& s = levels_[level][owner];
  s.holder = kInvalidNode;
  --counts_[server];
  --total_;
  return s.record;
}

const LocationRecord* LmDatabase::find(NodeId server, NodeId owner, Level level) const {
  MANET_CHECK(server < counts_.size());
  const Slot* s = slot(owner, level);
  return s != nullptr && s->holder == server ? &s->record : nullptr;
}

NodeId LmDatabase::holder(NodeId owner, Level level) const {
  const Slot* s = slot(owner, level);
  return s != nullptr ? s->holder : kInvalidNode;
}

std::vector<LocationRecord> LmDatabase::drop_all(NodeId server) {
  MANET_CHECK(server < counts_.size());
  std::vector<LocationRecord> out;
  out.reserve(counts_[server]);
  for (auto& slots : levels_) {
    for (Slot& s : slots) {
      if (s.holder != server) continue;
      s.holder = kInvalidNode;
      out.push_back(s.record);
    }
  }
  total_ -= out.size();
  counts_[server] = 0;
  std::sort(out.begin(), out.end(), [](const LocationRecord& a, const LocationRecord& b) {
    return a.owner != b.owner ? a.owner < b.owner : a.level < b.level;
  });
  return out;
}

Size LmDatabase::entry_count(NodeId server) const {
  MANET_CHECK(server < counts_.size());
  return counts_[server];
}

LoadStats load_stats(const std::vector<Size>& loads) {
  LoadStats out;
  if (loads.empty()) return out;
  const Size n = loads.size();
  double sum = 0.0, sum2 = 0.0, mx = 0.0;
  for (const Size l : loads) {
    const auto d = static_cast<double>(l);
    sum += d;
    sum2 += d * d;
    mx = std::max(mx, d);
  }
  const double dn = static_cast<double>(n);
  out.mean = sum / dn;
  out.max = mx;
  out.variance = std::max(0.0, sum2 / dn - out.mean * out.mean);
  // Gini via the sorted-rank formula: G = (2*sum_i i*x_(i) / (n*sum x)) -
  // (n+1)/n, with 1-based ranks over ascending x.
  if (sum > 0.0) {
    std::vector<Size> sorted = loads;
    std::sort(sorted.begin(), sorted.end());
    double weighted = 0.0;
    for (Size i = 0; i < n; ++i) {
      weighted += static_cast<double>(i + 1) * static_cast<double>(sorted[i]);
    }
    out.gini = 2.0 * weighted / (dn * sum) - (dn + 1.0) / dn;
  }
  return out;
}

}  // namespace manet::lm
