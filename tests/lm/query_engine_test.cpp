#include "lm/query_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "cluster/hierarchy_builder.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "geom/region.hpp"
#include "lm/handoff.hpp"
#include "net/unit_disk.hpp"

namespace manet::lm {
namespace {

struct Fixture {
  std::vector<geom::Vec2> pts;
  graph::Graph g{0};
  cluster::Hierarchy h;
  HandoffEngine engine;  ///< primed: holds the CHLM table and database
};

Fixture make(Size n, std::uint64_t seed, Time now = 0.0) {
  common::Xoshiro256 rng(seed);
  const auto disk = geom::DiskRegion::with_density(n, 1.0);
  Fixture f;
  f.pts.resize(n);
  for (auto& p : f.pts) p = disk.sample(rng);
  net::UnitDiskBuilder builder(2.2, true);
  f.g = builder.build(f.pts);
  f.h = cluster::HierarchyBuilder().build(f.g);
  f.engine.prime(f.h, now);
  return f;
}

/// Full (owner, level) reference answer grid from the engine's current epoch.
std::vector<QueryResult> capture(const QueryEngine& qe, Size n, Level top) {
  const Size width = top >= kFirstServedLevel ? top - kFirstServedLevel + 1 : 0;
  std::vector<QueryResult> out(n * width);
  for (NodeId owner = 0; owner < n; ++owner) {
    for (Level k = kFirstServedLevel; k <= top; ++k) {
      out[static_cast<Size>(owner) * width + (k - kFirstServedLevel)] = qe.lookup(owner, k);
    }
  }
  return out;
}

bool same(const QueryResult& a, const QueryResult& b) {
  return a.server == b.server && a.version == b.version && a.updated == b.updated &&
         a.found == b.found;
}

TEST(QueryEngine, UnpublishedEngineAnswersNotFound) {
  QueryEngine qe;
  EXPECT_EQ(qe.epoch(), 0u);
  const QueryResult r = qe.lookup(0, kFirstServedLevel);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.server, kInvalidNode);
}

TEST(QueryEngine, LookupMatchesChlmAssignment) {
  const auto f = make(300, 1, /*now=*/5.0);
  ASSERT_GE(f.engine.top_level(), 2u);
  QueryEngine qe;
  qe.publish(f.h, f.engine.database(), 5.0);
  EXPECT_EQ(qe.epoch(), 1u);
  for (NodeId owner = 0; owner < f.g.vertex_count(); ++owner) {
    for (Level k = kFirstServedLevel; k <= f.engine.top_level(); ++k) {
      const QueryResult r = qe.lookup(owner, k);
      EXPECT_EQ(r.server, f.engine.current_server(owner, k));
      ASSERT_TRUE(r.found);
      const auto* rec = f.engine.database().find(r.server, owner, k);
      ASSERT_NE(rec, nullptr);
      EXPECT_EQ(r.version, rec->version);
      EXPECT_DOUBLE_EQ(r.updated, rec->updated);
      EXPECT_DOUBLE_EQ(r.updated, 5.0);
    }
  }
}

TEST(QueryEngine, OutOfRangeTargetsAnswerNotFound) {
  const auto f = make(200, 2);
  QueryEngine qe;
  qe.publish(f.h, f.engine.database(), 0.0);
  const Level top = f.engine.top_level();
  for (const auto& [owner, k] :
       {std::pair<NodeId, Level>{static_cast<NodeId>(f.g.vertex_count()), kFirstServedLevel},
        std::pair<NodeId, Level>{0, 0},
        std::pair<NodeId, Level>{0, 1},
        std::pair<NodeId, Level>{0, static_cast<Level>(top + 1)}}) {
    const QueryResult r = qe.lookup(owner, k);
    EXPECT_FALSE(r.found) << "owner " << owner << " level " << k;
    EXPECT_EQ(r.server, kInvalidNode);
  }
}

TEST(QueryEngine, BatchMatchesScalarLookups) {
  const auto f = make(250, 3, 1.5);
  QueryEngine qe;
  qe.publish(f.h, f.engine.database(), 1.5);
  common::Xoshiro256 rng(0xBA7C4);
  std::vector<NodeId> owners;
  for (Size i = 0; i < 512; ++i) {
    // Mix in out-of-range owners: the batch path must degrade identically.
    owners.push_back(static_cast<NodeId>(common::uniform_index(rng, f.g.vertex_count() + 8)));
  }
  std::vector<QueryResult> batch(owners.size());
  for (Level k = kFirstServedLevel; k <= f.engine.top_level(); ++k) {
    const Size found = qe.lookup_batch(owners, k, batch);
    Size expected_found = 0;
    for (Size i = 0; i < owners.size(); ++i) {
      const QueryResult r = qe.lookup(owners[i], k);
      EXPECT_TRUE(same(batch[i], r)) << "owner " << owners[i] << " level " << k;
      expected_found += r.found ? 1 : 0;
    }
    EXPECT_EQ(found, expected_found);
  }
}

TEST(QueryEngine, ReaderAnswersEveryCellLikeLookup) {
  const auto f = make(260, 10, 4.0);
  QueryEngine qe;
  qe.publish(f.h, f.engine.database(), 4.0);
  const QueryEngine::Reader reader(qe);
  EXPECT_EQ(reader.epoch(), 1u);
  const Level top = f.engine.top_level();
  std::vector<NodeId> owners;
  // Every (owner, level) cell, plus out-of-range owners and levels.
  for (NodeId owner = 0; owner < f.g.vertex_count() + 3; ++owner) owners.push_back(owner);
  std::vector<QueryResult> batch(owners.size());
  for (Level k = 0; k <= top + 1; ++k) {
    const Size found = reader.lookup_batch(owners, k, batch);
    Size expected_found = 0;
    for (Size i = 0; i < owners.size(); ++i) {
      const QueryResult r = qe.lookup(owners[i], k);
      EXPECT_TRUE(same(reader.lookup(owners[i], k), r))
          << "owner " << owners[i] << " level " << k;
      EXPECT_TRUE(same(batch[i], r)) << "owner " << owners[i] << " level " << k;
      expected_found += r.found ? 1 : 0;
    }
    EXPECT_EQ(found, expected_found);
  }
}

TEST(QueryEngine, ParallelPublishMatchesInline) {
  // publish() fills its rows over the executor's shards; the snapshot must
  // be the same at any shard and thread count.
  const auto f = make(300, 11, 3.0);
  const Level top = f.engine.top_level();
  QueryEngine inline_qe;
  inline_qe.publish(f.h, f.engine.database(), 3.0);
  const auto reference = capture(inline_qe, 300, top);
  common::ThreadPool pool(3);
  for (const Size shards : {Size{1}, Size{7}, Size{64}}) {
    sim::ShardExecutor executor(pool, shards);
    QueryEngine qe;
    qe.set_parallel(&executor);
    qe.publish(f.h, f.engine.database(), 3.0);
    const auto answers = capture(qe, 300, top);
    ASSERT_EQ(answers.size(), reference.size());
    for (Size i = 0; i < answers.size(); ++i) {
      EXPECT_TRUE(same(answers[i], reference[i])) << "shards " << shards << " cell " << i;
    }
  }
}

TEST(QueryEngine, ReaderHeldAcrossPublishKeepsItsEpoch) {
  const auto fa = make(220, 12, 1.0);
  const auto fb = make(220, 13, 2.0);
  const Level top = std::min(fa.engine.top_level(), fb.engine.top_level());
  QueryEngine qe;
  qe.publish(fa.h, fa.engine.database(), 1.0);
  const auto answers_a = capture(qe, 220, top);
  {
    const QueryEngine::Reader reader(qe);
    // The next publish rebuilds the other slot, so it does not wait for
    // the held Reader; the Reader keeps answering epoch 1 while lookup()
    // answers epoch 2.
    qe.publish(fb.h, fb.engine.database(), 2.0);
    EXPECT_EQ(qe.epoch(), 2u);
    EXPECT_EQ(reader.epoch(), 1u);
    const auto answers_b = capture(qe, 220, top);
    const Size width = top - kFirstServedLevel + 1;
    Size diffs = 0;
    for (NodeId owner = 0; owner < 220; ++owner) {
      for (Level k = kFirstServedLevel; k <= top; ++k) {
        const Size idx = static_cast<Size>(owner) * width + (k - kFirstServedLevel);
        EXPECT_TRUE(same(reader.lookup(owner, k), answers_a[idx]));
        EXPECT_EQ(qe.lookup(owner, k).server, fb.engine.current_server(owner, k));
        if (!same(answers_a[idx], answers_b[idx])) ++diffs;
      }
    }
    EXPECT_GT(diffs, 0u);
  }
}

TEST(QueryEngine, PublishWaitsForReaderPinnedOnTheSlotItRebuilds) {
  const auto fa = make(200, 14, 1.0);
  const auto fb = make(200, 15, 2.0);
  QueryEngine qe;
  qe.publish(fa.h, fa.engine.database(), 1.0);
  std::atomic<bool> published{false};
  std::thread writer;
  {
    const QueryEngine::Reader reader(qe);  // pins epoch 1's slot
    qe.publish(fb.h, fb.engine.database(), 2.0);  // other slot: no wait
    // The third publish must rebuild the pinned slot, so it cannot return
    // while the Reader lives.
    writer = std::thread([&] {
      qe.publish(fa.h, fa.engine.database(), 3.0);
      published.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(published.load());
    EXPECT_EQ(reader.epoch(), 1u);
    EXPECT_EQ(qe.epoch(), 2u);
  }
  writer.join();
  EXPECT_TRUE(published.load());
  EXPECT_EQ(qe.epoch(), 3u);
  EXPECT_EQ(QueryEngine::Reader(qe).epoch(), 3u);
}

TEST(QueryEngine, RepublishFlipsEpochAndAnswers) {
  const auto fa = make(220, 4, 1.0);
  const auto fb = make(220, 5, 2.0);
  QueryEngine qe;
  qe.publish(fa.h, fa.engine.database(), 1.0);
  const auto a = capture(qe, 220, fa.engine.top_level());
  qe.publish(fb.h, fb.engine.database(), 2.0);
  EXPECT_EQ(qe.epoch(), 2u);
  // Post-flip answers are exactly the B state's and differ somewhere from A.
  Size diffs = 0;
  const Level top = std::min(fa.engine.top_level(), fb.engine.top_level());
  for (NodeId owner = 0; owner < 220; ++owner) {
    for (Level k = kFirstServedLevel; k <= top; ++k) {
      const QueryResult r = qe.lookup(owner, k);
      EXPECT_EQ(r.server, fb.engine.current_server(owner, k));
      EXPECT_DOUBLE_EQ(r.updated, 2.0);
      const Size wa = fa.engine.top_level() - kFirstServedLevel + 1;
      if (!same(r, a[static_cast<Size>(owner) * wa + (k - kFirstServedLevel)])) ++diffs;
    }
  }
  EXPECT_GT(diffs, 0u);
  // A third publish cycles back onto the first slot without issue.
  qe.publish(fa.h, fa.engine.database(), 3.0);
  EXPECT_EQ(qe.epoch(), 3u);
  EXPECT_EQ(qe.lookup(0, kFirstServedLevel).server, fa.engine.current_server(0, kFirstServedLevel));
}

/// The tentpole concurrency contract: while the writer flips epochs between
/// two published states, every concurrent answer equals the pre- or the
/// post-flip reference exactly — never a torn mix of the two. Run at 1, 2,
/// 8 and 24 reader threads — the last is more than kReaderStripes, so
/// threads share stripes — and under TSan via MANET_SANITIZE=thread.
void churn_torn_check(Size reader_threads) {
  const auto fa = make(200, 6, 1.0);
  const auto fb = make(200, 7, 2.0);
  const Level top = std::min(fa.engine.top_level(), fb.engine.top_level());
  ASSERT_GE(top, kFirstServedLevel);
  const Size width = top - kFirstServedLevel + 1;

  QueryEngine qe;
  qe.publish(fa.h, fa.engine.database(), 1.0);
  const auto answers_a = capture(qe, 200, top);
  qe.publish(fb.h, fb.engine.database(), 2.0);
  const auto answers_b = capture(qe, 200, top);

  std::atomic<bool> stop{false};
  std::atomic<Size> violations{0};
  std::vector<std::thread> readers;
  for (Size t = 0; t < reader_threads; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t q = static_cast<std::uint64_t>(t) << 32;
      Size local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 256; ++i, ++q) {
          const auto owner = static_cast<NodeId>((q * 2654435761ULL) % 200);
          const Level k = kFirstServedLevel + static_cast<Level>(q % width);
          const QueryResult r = qe.lookup(owner, k);
          const Size idx = static_cast<Size>(owner) * width + (k - kFirstServedLevel);
          if (!same(r, answers_a[idx]) && !same(r, answers_b[idx])) ++local;
        }
      }
      violations.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (int flip = 0; flip < 120; ++flip) {
    if (flip % 2 == 0) {
      qe.publish(fa.h, fa.engine.database(), 1.0);
    } else {
      qe.publish(fb.h, fb.engine.database(), 2.0);
    }
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();
  EXPECT_EQ(violations.load(), 0u);
}

TEST(QueryEngine, EpochFlipNeverTearsOneReader) { churn_torn_check(1); }
TEST(QueryEngine, EpochFlipNeverTearsTwoReaders) { churn_torn_check(2); }
TEST(QueryEngine, EpochFlipNeverTearsEightReaders) { churn_torn_check(8); }
TEST(QueryEngine, EpochFlipNeverTearsReadersSharingStripes) {
  static_assert(24 > QueryEngine::kReaderStripes);
  churn_torn_check(24);
}

TEST(QueryEngine, BatchAnswersAreMutuallyConsistentUnderChurn) {
  // A batch pins one epoch: all of its answers must come from the same
  // reference state, not merely each from either state.
  const auto fa = make(180, 8, 1.0);
  const auto fb = make(180, 9, 2.0);
  const Level top = std::min(fa.engine.top_level(), fb.engine.top_level());
  ASSERT_GE(top, kFirstServedLevel);

  QueryEngine qe;
  qe.publish(fa.h, fa.engine.database(), 1.0);
  const auto answers_a = capture(qe, 180, top);
  qe.publish(fb.h, fb.engine.database(), 2.0);
  const auto answers_b = capture(qe, 180, top);
  const Size width = top - kFirstServedLevel + 1;

  std::atomic<bool> stop{false};
  std::atomic<Size> violations{0};
  std::thread reader([&] {
    std::vector<NodeId> owners(64);
    std::vector<QueryResult> batch(owners.size());
    std::uint64_t q = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (auto& o : owners) o = static_cast<NodeId>(((q++) * 2654435761ULL) % 180);
      qe.lookup_batch(owners, kFirstServedLevel, batch);
      bool all_a = true, all_b = true;
      for (Size i = 0; i < owners.size(); ++i) {
        const Size idx = static_cast<Size>(owners[i]) * width;
        all_a = all_a && same(batch[i], answers_a[idx]);
        all_b = all_b && same(batch[i], answers_b[idx]);
      }
      if (!all_a && !all_b) violations.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int flip = 0; flip < 120; ++flip) {
    if (flip % 2 == 0) {
      qe.publish(fa.h, fa.engine.database(), 1.0);
    } else {
      qe.publish(fb.h, fb.engine.database(), 2.0);
    }
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(violations.load(), 0u);
}

}  // namespace
}  // namespace manet::lm
