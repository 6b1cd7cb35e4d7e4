// Fixed-size worker pool used to run independent simulation points of a
// parameter sweep in parallel.  Tasks are run-to-completion; results are
// collected positionally so sweep output order is deterministic regardless of
// scheduling.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mmr {

/// Far above any machine: a larger thread count on a command line is a
/// typo, rejected before anything starts.
inline constexpr std::uint32_t kMaxThreads = 4096;

class ThreadPool {
 public:
  /// `threads == 0` means hardware concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues a task.  A throwing task does not wedge the pool: the first
  /// exception is captured and rethrown from the next wait_idle() call;
  /// subsequent exceptions are swallowed.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished, then rethrows the first
  /// exception any task raised since the last wait_idle().
  void wait_idle();

  /// Runs `fn(i)` for i in [0, n) on a pool of min(n, threads) workers
  /// (`threads == 0`: hardware concurrency) and waits for completion.
  /// Exact per-task work order is unspecified; use per-index output slots.
  /// Rethrows the first exception `fn` raised (remaining indices may be
  /// skipped once a worker has thrown).
  static void parallel_for(std::size_t n, std::size_t threads,
                           const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;  ///< first task exception, set once
};

}  // namespace mmr
