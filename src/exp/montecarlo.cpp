#include "exp/montecarlo.hpp"

#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace manet::exp {

void AggregatedMetrics::add(const RunMetrics& metrics) {
  for (const auto& [name, value] : metrics.values) {
    if (!std::isnan(value)) acc_[name].add(value);
  }
  ++replications_;
}

bool AggregatedMetrics::has(const std::string& name) const { return acc_.contains(name); }

double AggregatedMetrics::mean(const std::string& name) const {
  const auto it = acc_.find(name);
  return it == acc_.end() ? std::numeric_limits<double>::quiet_NaN() : it->second.mean();
}

analysis::Summary AggregatedMetrics::summary(const std::string& name) const {
  const auto it = acc_.find(name);
  if (it == acc_.end()) return analysis::Summary{};
  const auto& a = it->second;
  return analysis::Summary{a.count(), a.mean(), a.stddev(), a.ci95_halfwidth(), a.min(),
                           a.max()};
}

std::vector<std::string> AggregatedMetrics::names() const {
  std::vector<std::string> out;
  out.reserve(acc_.size());
  for (const auto& [name, acc] : acc_) {
    (void)acc;
    out.push_back(name);
  }
  return out;
}

std::vector<RunMetrics> run_replication_block(const ScenarioConfig& base, Size rep_begin,
                                              Size rep_end, const RunOptions& options,
                                              common::ThreadPool* pool) {
  MANET_CHECK(rep_end > rep_begin);
  const Size count = rep_end - rep_begin;
  std::vector<RunMetrics> results(count);

  auto run_one = [&](Size i) {
    ScenarioConfig cfg = base;
    cfg.seed = common::derive_seed(base.seed, rep_begin + i);
    results[i] = run_simulation(cfg, options);
  };

  if (pool != nullptr && pool->thread_count() > 1 && count > 1) {
    pool->parallel_for(count, run_one);
  } else {
    for (Size i = 0; i < count; ++i) run_one(i);
  }
  return results;
}

AggregatedMetrics run_replications(const ScenarioConfig& base, Size replications,
                                   const RunOptions& options, common::ThreadPool* pool) {
  MANET_CHECK(replications >= 1);
  const auto results = run_replication_block(base, 0, replications, options, pool);
  AggregatedMetrics agg;
  for (const auto& metrics : results) agg.add(metrics);  // index order: deterministic
  return agg;
}

}  // namespace manet::exp
