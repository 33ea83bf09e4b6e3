/// ShardExecutor::slice and resolve_shard_count: the decomposition that the
/// bit-identity contract of the sharded tick rests on. slice() must tile
/// [0, n) exactly — concatenating the per-shard slices in shard index order
/// reproduces the canonical sequential order — for EVERY (n, shard_count)
/// pair, including the degenerate ones (empty index space, fewer items than
/// shards, a single shard, and counts that do not divide n).

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "sim/shard.hpp"

using namespace manet;
using sim::ShardExecutor;

namespace {

/// Concatenate slices in shard order and check the result is [0, n) exactly:
/// contiguous, non-overlapping, nothing dropped.
void expect_exact_tiling(Size n, Size shard_count) {
  std::vector<Size> walked;
  Size prev_end = 0;
  for (Size shard = 0; shard < shard_count; ++shard) {
    const auto [begin, end] = ShardExecutor::slice(n, shard, shard_count);
    EXPECT_LE(begin, end) << "inverted slice at shard " << shard;
    EXPECT_EQ(begin, prev_end)
        << "gap or overlap between shard " << shard - 1 << " and " << shard
        << " (n=" << n << ", shards=" << shard_count << ")";
    for (Size i = begin; i < end; ++i) walked.push_back(i);
    prev_end = end;
  }
  EXPECT_EQ(prev_end, n) << "slices do not cover [0, n)";
  ASSERT_EQ(walked.size(), n);
  for (Size i = 0; i < n; ++i) EXPECT_EQ(walked[i], i);
}

TEST(ShardSlice, EmptyIndexSpaceYieldsAllEmptySlices) {
  for (Size shard = 0; shard < 8; ++shard) {
    const auto [begin, end] = ShardExecutor::slice(0, shard, 8);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 0u);
  }
  expect_exact_tiling(0, 8);
}

TEST(ShardSlice, FewerItemsThanShardsPutsOneItemInEachLeadingShard) {
  // 3 items over 8 shards: shards 0..2 take one item each, 3..7 are empty.
  for (Size shard = 0; shard < 8; ++shard) {
    const auto [begin, end] = ShardExecutor::slice(3, shard, 8);
    if (shard < 3) {
      EXPECT_EQ(begin, shard);
      EXPECT_EQ(end, shard + 1);
    } else {
      EXPECT_EQ(begin, end) << "trailing shard " << shard << " not empty";
    }
  }
  expect_exact_tiling(3, 8);
}

TEST(ShardSlice, SingleShardOwnsEverything) {
  const auto [begin, end] = ShardExecutor::slice(97, 0, 1);
  EXPECT_EQ(begin, 0u);
  EXPECT_EQ(end, 97u);
  expect_exact_tiling(97, 1);
}

TEST(ShardSlice, RemainderSpreadsOverLeadingShards) {
  // 10 items over 4 shards: 3,3,2,2 — the first n % shards shards take the
  // extra element, never a trailing one.
  const Size sizes_expected[] = {3, 3, 2, 2};
  for (Size shard = 0; shard < 4; ++shard) {
    const auto [begin, end] = ShardExecutor::slice(10, shard, 4);
    EXPECT_EQ(end - begin, sizes_expected[shard]) << "shard " << shard;
  }
  expect_exact_tiling(10, 4);
}

TEST(ShardSlice, ConcatenatedSlicesReproduceCanonicalOrderEverywhere) {
  // The identity contract, swept over awkward (n, shard_count) pairs:
  // non-power-of-two item counts, shard counts above and below n.
  const Size ns[] = {0, 1, 2, 3, 7, 16, 17, 63, 64, 65, 1000};
  const Size shard_counts[] = {1, 2, 3, 4, 5, 7, 8, 16, 64};
  for (const Size n : ns) {
    for (const Size shards : shard_counts) expect_exact_tiling(n, shards);
  }
}

TEST(ResolveShardCount, ExplicitRequestRoundsUpToPowerOfTwo) {
  EXPECT_EQ(sim::resolve_shard_count(1, 8), 1u);
  EXPECT_EQ(sim::resolve_shard_count(2, 8), 2u);
  EXPECT_EQ(sim::resolve_shard_count(3, 8), 4u);
  EXPECT_EQ(sim::resolve_shard_count(5, 8), 8u);
  EXPECT_EQ(sim::resolve_shard_count(16, 8), 16u);
  EXPECT_EQ(sim::resolve_shard_count(17, 8), 32u);
  EXPECT_EQ(sim::resolve_shard_count(1000, 8), 1024u);
}

TEST(ResolveShardCount, ClampsToMaxShardCount) {
  EXPECT_EQ(sim::resolve_shard_count(4096, 8), sim::kMaxShardCount);
  EXPECT_EQ(sim::resolve_shard_count(sim::kMaxShardCount + 1, 1),
            sim::kMaxShardCount);
}

TEST(ResolveShardCount, AutoUsesOneShardForOneWorker) {
  // One worker has nothing to rebalance, and every shard holds its own
  // scratch: the auto topology is a single shard.
  EXPECT_EQ(sim::resolve_shard_count(0, 1), 1u);
  EXPECT_EQ(sim::resolve_shard_count(0, 0), 1u);
}

TEST(ResolveShardCount, AutoOversubscribesWorkersWithDefaultFloor) {
  // 0 = auto with >= 2 workers: max(kDefaultShardCount, 4 * workers), then
  // power-of-two rounding (a no-op here since both operands already are).
  EXPECT_EQ(sim::resolve_shard_count(0, 2), sim::kDefaultShardCount);
  EXPECT_EQ(sim::resolve_shard_count(0, 3), sim::kDefaultShardCount);
  EXPECT_EQ(sim::resolve_shard_count(0, 4), sim::kDefaultShardCount);
  EXPECT_EQ(sim::resolve_shard_count(0, 8), 32u);
  EXPECT_EQ(sim::resolve_shard_count(0, 16), 64u);
}

TEST(ShardExecutor, RuntimeShardCountDrivesForEachShard) {
  common::ThreadPool pool(2);
  sim::ShardExecutor exec(pool, 8);
  EXPECT_EQ(exec.shard_count(), 8u);
  // Every shard index fires exactly once; per-shard buffers indexed by shard
  // are disjoint, so no synchronization is needed.
  std::vector<int> fired(exec.shard_count(), 0);
  exec.for_each_shard([&](Size shard) { fired[shard] += 1; });
  for (Size shard = 0; shard < exec.shard_count(); ++shard) {
    EXPECT_EQ(fired[shard], 1) << "shard " << shard;
  }
}

TEST(ShardExecutor, InlineRunsEveryShardOnceInOrderOnCallingThread) {
  const sim::ShardExecutor exec(5);
  EXPECT_EQ(exec.shard_count(), 5u);
  std::vector<Size> order;
  std::vector<std::thread::id> runners;
  exec.for_each_shard([&](Size shard) {
    order.push_back(shard);
    runners.push_back(std::this_thread::get_id());
  });
  EXPECT_EQ(order, (std::vector<Size>{0, 1, 2, 3, 4}));
  for (const auto id : runners) EXPECT_EQ(id, std::this_thread::get_id());
  // The components' default executor is the one-shard instance of this mode.
  EXPECT_EQ(sim::kInlineExecutor.shard_count(), 1u);
}

}  // namespace
