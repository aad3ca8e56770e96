#include "reconcile/util/thread_pool.h"

#include <atomic>
#include <vector>

#include <gtest/gtest.h>

namespace reconcile {
namespace {

// Prevents the optimizer from discarding busy-work loops in tests.
std::atomic<long long> benchmark_sink{0};

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&done] {
      // Busy-ish work so Wait() has something to wait for.
      long long sink = 0;
      for (int j = 0; j < 100000; ++j) sink += j;
      benchmark_sink.fetch_add(sink, std::memory_order_relaxed);
      done.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 10);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ClampsNonPositiveThreadCount) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  ThreadPool pool_negative(-3);
  EXPECT_EQ(pool_negative.num_threads(), 1);
}

TEST(ThreadPoolTest, TasksMaySubmitMoreTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&pool, &counter] {
      counter.fetch_add(1);
      pool.Submit([&counter] { counter.fetch_add(1); });
    });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 20; ++i) pool.Submit([&counter] { counter.fetch_add(1); });
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, DefaultThreadsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
}

TEST(ThreadPoolTest, SharedPoolIsAProcessWideSingleton) {
  ThreadPool& a = ThreadPool::Shared();
  ThreadPool& b = ThreadPool::Shared();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.num_threads(), ThreadPool::DefaultThreads());
}

TEST(ThreadPoolTest, SharedPoolRunsTasksAndIsReusable) {
  std::atomic<int> counter{0};
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 50; ++i) {
      ThreadPool::Shared().Submit([&counter] { counter.fetch_add(1); });
    }
    ThreadPool::Shared().Wait();
  }
  EXPECT_EQ(counter.load(), 100);
}

}  // namespace
}  // namespace reconcile
