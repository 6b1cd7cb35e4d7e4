#include "mmr/sim/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "mmr/sim/assert.hpp"

namespace mmr {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  MMR_ASSERT(task != nullptr);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    MMR_ASSERT_MSG(!stopping_, "submit after shutdown");
    queue_.push(std::move(task));
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock, [this] { return in_flight_ == 0; });
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    // The in-flight count must drop even when the task throws, or
    // wait_idle() deadlocks; the guard also hands the first exception to
    // wait_idle() for rethrow.
    struct TaskGuard {
      ThreadPool& pool;
      std::exception_ptr error;
      ~TaskGuard() {
        const std::lock_guard<std::mutex> lock(pool.mutex_);
        if (error && !pool.first_error_) pool.first_error_ = error;
        --pool.in_flight_;
        if (pool.in_flight_ == 0) pool.all_done_.notify_all();
      }
    };
    TaskGuard guard{*this, nullptr};
    try {
      task();
    } catch (...) {
      guard.error = std::current_exception();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n, std::size_t threads,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // min(n, 0) is 0 again, which the pool reads as hardware concurrency.
  ThreadPool pool(std::min<std::size_t>(
      n, threads == 0 ? std::thread::hardware_concurrency() : threads));
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  for (std::size_t lane = 0; lane < pool.size(); ++lane) {
    pool.submit([&] {
      while (!failed.load(std::memory_order_relaxed)) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        try {
          fn(i);
        } catch (...) {
          failed.store(true, std::memory_order_relaxed);
          throw;  // wait_idle() below rethrows the first of these
        }
      }
    });
  }
  pool.wait_idle();
}

}  // namespace mmr
