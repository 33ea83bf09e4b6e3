#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

/// \file thread_pool.hpp
/// A fixed-size worker pool for embarrassingly parallel Monte-Carlo work.
///
/// Replications are independent (each owns its RNG stream derived from the
/// campaign seed), so a plain FIFO queue suffices; there is no inter-task
/// communication and therefore no need for work stealing. Determinism is
/// preserved because task *results* are gathered by replication index, never
/// by completion order.

namespace manet::common {

class ThreadPool {
 public:
  /// Spawns \p n_threads workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t n_threads = 0);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Enqueue a callable; returns a future for its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F&>> {
    using R = std::invoke_result_t<F&>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      tasks_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Run fn(i) for i in [0, n) across the pool and block until all complete.
  /// Exceptions from tasks propagate (the first one encountered, in index
  /// order) after all tasks finish.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace manet::common
