#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace manet::common {
namespace {

TEST(ThreadPool, RunsSubmittedTask) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, DefaultsToAtLeastOneThread) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroTasksIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ResultsAreIndexAddressable) {
  ThreadPool pool(3);
  std::vector<int> out(50, -1);
  pool.parallel_for(50, [&](std::size_t i) { out[i] = static_cast<int>(i * i); });
  for (int i = 0; i < 50; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(ThreadPool, PropagatesTaskException) {
  // Two failing indices: the one with the smaller index is rethrown,
  // whatever the completion order.
  ThreadPool pool(2);
  try {
    pool.parallel_for(16, [](std::size_t i) {
      if (i == 11) throw std::runtime_error("late");
      if (i == 5) throw std::logic_error("early");
    });
    FAIL() << "expected an exception";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "early");
  }
}

TEST(ThreadPool, ExceptionDoesNotPoisonPool) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(4, [](std::size_t) { throw std::runtime_error("x"); });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ManySmallTasksComplete) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  pool.parallel_for(1000, [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); });
  EXPECT_EQ(sum.load(), 999L * 1000 / 2);
}

TEST(ThreadPool, DestructionDrainsQueue) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      pool.submit([&done] { done.fetch_add(1); });
    }
  }  // destructor must wait for all 20
  EXPECT_EQ(done.load(), 20);
}

TEST(ThreadPool, ShutdownWhileDeeplyQueuedRunsEverything) {
  // A single worker with a long backlog of slow-ish tasks, destroyed while
  // most of them are still queued: the destructor drains the queue rather
  // than dropping it — every future must become ready, none broken.
  std::atomic<int> done{0};
  std::vector<std::future<int>> futures;
  {
    ThreadPool pool(1);
    futures.reserve(64);
    for (int i = 0; i < 64; ++i) {
      futures.push_back(pool.submit([&done, i] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        done.fetch_add(1);
        return i;
      }));
    }
  }  // most of the 64 are still queued here
  EXPECT_EQ(done.load(), 64);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i);
}

}  // namespace
}  // namespace manet::common
