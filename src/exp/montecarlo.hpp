#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/stats.hpp"
#include "common/thread_pool.hpp"
#include "exp/simulation.hpp"

/// \file montecarlo.hpp
/// Monte-Carlo replication driver. Replications are embarrassingly parallel:
/// replication r runs with seed derive_seed(base, r) and the results are
/// added in index order, so the aggregate is bit-identical regardless of
/// thread count (the HPC-guide determinism requirement).

namespace manet::exp {

/// Per-metric aggregation across replications.
class AggregatedMetrics {
 public:
  void add(const RunMetrics& metrics);

  bool has(const std::string& name) const;
  double mean(const std::string& name) const;  ///< NaN when absent
  analysis::Summary summary(const std::string& name) const;

  std::vector<std::string> names() const;
  Size replication_count() const { return replications_; }

 private:
  std::map<std::string, analysis::Accumulator> acc_;
  Size replications_ = 0;
};

/// Run \p replications of \p base (seeds derived per replication index).
/// When \p pool is non-null the replications fan out across it.
AggregatedMetrics run_replications(const ScenarioConfig& base, Size replications,
                                   const RunOptions& options = RunOptions{},
                                   common::ThreadPool* pool = nullptr);

/// Run the replication block [rep_begin, rep_end) of \p base and return the
/// raw per-replication metric vectors in index order. Replication r always
/// runs with derive_seed(base.seed, r) for the *global* index r, so any
/// block decomposition reproduces exactly the replication set that
/// run_replications(base, rep_end) would produce — this is the campaign
/// work-unit primitive (exp/campaign_runner.hpp).
std::vector<RunMetrics> run_replication_block(const ScenarioConfig& base, Size rep_begin,
                                              Size rep_end,
                                              const RunOptions& options = RunOptions{},
                                              common::ThreadPool* pool = nullptr);

}  // namespace manet::exp
