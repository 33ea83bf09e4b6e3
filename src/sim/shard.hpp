#pragma once

#include <algorithm>
#include <functional>
#include <utility>

#include "common/thread_pool.hpp"
#include "common/types.hpp"

/// \file shard.hpp
/// Deterministic intra-run parallelism: a runtime-chosen shard decomposition,
/// run either over a borrowed worker pool or inline on the calling thread.
///
/// The tick pipeline's heavy phases (unit-disk neighborhoods, link-set
/// differences) are data-parallel over an index space that already has a
/// canonical sequential order. ShardExecutor splits that space into a
/// number of contiguous shards fixed for the executor's lifetime —
/// decoupled from the thread count — and runs one task per shard. Each
/// shard writes its own output buffer; callers concatenate the buffers in
/// shard index order, which reproduces the canonical iteration order
/// exactly. (Batch hop pricing and the landmark sweeps run one task per
/// shard too, but their tasks claim work from a shared cursor and write
/// each result at its index; see lm::HandoffEngine::set_parallel and
/// net::HopOracle.) The result is bit-identical at ANY shard count x ANY thread
/// count (the sharded-tick identity suite pins shards {1, 4, 16, 64} x
/// threads {1, 2, 8}), so the shard count is a pure throughput knob:
/// RunOptions::shards / --shards picks it per run (resolve_shard_count(),
/// power-of-two rounded, 0 = auto from the worker count).
///
/// There is one tick path. Without a pool the executor is inline: shards run
/// 0..S-1 in order on the calling thread. Components that are never given
/// an executor use kInlineExecutor (one shard, no pool).

namespace manet::sim {

/// Default shard grid for a multi-worker tick: comfortably above the thread
/// counts the runner accepts in practice (so slow shards rebalance) while
/// keeping the concatenation step trivial. Used as the floor of the auto
/// topology in resolve_shard_count(); every output is bit-identical at any
/// shard count, so this is a throughput default, not a correctness contract.
inline constexpr Size kDefaultShardCount = 16;

/// Upper bound on the per-run shard count: per-shard output buffers are
/// concatenated sequentially, so thousands of shards only add merge overhead.
inline constexpr Size kMaxShardCount = 1024;

/// Resolve a requested shard topology (RunOptions::shards / --shards) into
/// the executor's shard count. \p requested == 0 means auto: one shard for a
/// single worker (there is nothing to rebalance, and every shard holds its
/// own scratch), otherwise modestly oversubscribe the worker count (4x, so
/// slow shards rebalance) with kDefaultShardCount as the floor. Any explicit
/// request is rounded UP to the next power of two — power-of-two counts keep
/// slice boundaries stable under halving/doubling sweeps — and clamped to
/// [1, kMaxShardCount]. Outputs never depend on the result (bit-identity
/// across shard counts), so this is pure throughput policy.
inline Size resolve_shard_count(Size requested, Size workers) noexcept {
  Size target = requested;
  if (target == 0) target = workers <= 1 ? 1 : std::max<Size>(kDefaultShardCount, 4 * workers);
  if (target > kMaxShardCount) target = kMaxShardCount;
  Size rounded = 1;
  while (rounded < target) rounded *= 2;
  return rounded;
}

class ShardExecutor {
 public:
  /// Shards the run over \p pool. \p shard_count is fixed for the executor's
  /// lifetime; it should modestly exceed the largest thread count in use so
  /// slow shards rebalance, but stay O(tens) — per-shard buffers are
  /// concatenated sequentially. \p pool must outlive the executor.
  ShardExecutor(common::ThreadPool& pool, Size shard_count)
      : pool_(&pool), shard_count_(shard_count) {}

  /// Inline executor: no pool; for_each_shard() runs the shards in index
  /// order on the calling thread.
  constexpr explicit ShardExecutor(Size shard_count) : shard_count_(shard_count) {}

  Size shard_count() const noexcept { return shard_count_; }

  /// Run fn(shard) for every shard in [0, shard_count) and block until all
  /// complete: across the pool, or in index order on the calling thread when
  /// inline. Exceptions propagate (first in shard order).
  void for_each_shard(const std::function<void(Size)>& fn) const {
    if (pool_ == nullptr) {
      for (Size s = 0; s < shard_count_; ++s) fn(s);
    } else {
      pool_->parallel_for(shard_count_, fn);
    }
  }

  /// Contiguous slice [begin, end) of an n-element index space owned by
  /// \p shard: the first n % shard_count shards take one extra element, so
  /// concatenating the slices in shard order walks [0, n) exactly once.
  static std::pair<Size, Size> slice(Size n, Size shard, Size shard_count) {
    const Size base = n / shard_count;
    const Size extra = n % shard_count;
    const Size begin = shard * base + std::min(shard, extra);
    return {begin, begin + base + (shard < extra ? 1 : 0)};
  }

 private:
  common::ThreadPool* pool_ = nullptr;
  Size shard_count_;
};

/// The default executor of every sharded component: one shard, inline. It
/// holds no mutable state, so concurrent replications share it safely.
inline constexpr ShardExecutor kInlineExecutor{1};

}  // namespace manet::sim
