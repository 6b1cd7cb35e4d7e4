#include "mmr/sim/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace mmr {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 100);
  }
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();
  SUCCEED();
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&counter] { counter.fetch_add(1); });
  }  // destructor joins
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, SizeReflectsRequestedThreads) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  ThreadPool defaulted(0);
  EXPECT_GE(defaulted.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversAllIndicesExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  ThreadPool::parallel_for(kN, 4, [&hits](std::size_t i) {
    hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForZeroItemsIsNoop) {
  ThreadPool::parallel_for(0, 4, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ParallelForSingleThreadIsSequentialAndComplete) {
  std::vector<std::size_t> order;
  ThreadPool::parallel_for(20, 1, [&order](std::size_t i) {
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 20u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ParallelForResultsIndependentOfThreadCount) {
  auto compute = [](std::size_t threads) {
    std::vector<double> out(64);
    ThreadPool::parallel_for(64, threads, [&out](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.5;
    });
    return out;
  };
  EXPECT_EQ(compute(1), compute(4));
}

// A sweep of one point with threads=8 starts one worker, not eight.
TEST(ThreadPool, ParallelForStartsNoMoreWorkersThanTasks) {
  const auto threads = [] {  // the process's threads, as Linux lists them
    using Dir = std::filesystem::directory_iterator;
    return std::distance(Dir("/proc/self/task"), Dir());
  };
  const auto before = threads();
  auto inside = before;
  ThreadPool::parallel_for(1, 8, [&](std::size_t) { inside = threads(); });
  EXPECT_LE(inside, before + 1);
}

TEST(ThreadPool, MoreItemsThanThreads) {
  std::atomic<int> counter{0};
  ThreadPool::parallel_for(257, 3, [&counter](std::size_t) {
    counter.fetch_add(1);
  });
  EXPECT_EQ(counter.load(), 257);
}

// Regression: a throwing task used to skip the in-flight decrement, leaving
// wait_idle() blocked forever (and the escaping exception terminated the
// worker).  Now the exception is captured and rethrown from wait_idle.
TEST(ThreadPool, ThrowingTaskIsRethrownFromWaitIdleWithoutDeadlock) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task failed"); });
  try {
    pool.wait_idle();
    FAIL() << "expected the task's exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "task failed");
  }
}

TEST(ThreadPool, PoolStaysUsableAfterATaskThrows) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("first"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The error was consumed: later batches run and wait cleanly.
  std::atomic<int> counter{0};
  for (int i = 0; i < 20; ++i)
    pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, OnlyFirstOfManyExceptionsIsRethrown) {
  ThreadPool pool(4);
  for (int i = 0; i < 32; ++i) {
    pool.submit([] { throw std::runtime_error("boom"); });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  pool.wait_idle();  // all other exceptions were swallowed, none linger
}

TEST(ThreadPool, ParallelForRethrowsTaskException) {
  std::atomic<int> ran{0};
  try {
    ThreadPool::parallel_for(100, 4, [&ran](std::size_t i) {
      ran.fetch_add(1);
      if (i == 13) throw std::runtime_error("lane failed");
    });
    FAIL() << "expected the lane's exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "lane failed");
  }
  // Every lane observed the failure flag and stopped; no index ran twice.
  EXPECT_LE(ran.load(), 100);
}

}  // namespace
}  // namespace mmr
