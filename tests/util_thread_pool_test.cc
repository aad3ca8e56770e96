#include "reconcile/util/thread_pool.h"

#include <pthread.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
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

// A task that throws ends only itself: `Wait()` hands the exception to its
// caller once every other task has run, hands it over once, and the pool
// takes the next batch as before.
TEST(ThreadPoolTest, WaitRethrowsATaskExceptionOnceEveryTaskRan) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 40; ++i) {
    pool.Submit([&ran, i] {
      if (i == 7) throw std::bad_alloc();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ran.fetch_add(1);
    });
  }
  EXPECT_THROW(pool.Wait(), std::bad_alloc);
  EXPECT_EQ(ran.load(), 39);
  pool.Wait();  // already handed back
  pool.Submit([&ran] { ran.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(ran.load(), 40);
}

// Of several throwing tasks, `Wait()` rethrows one, and only one.
TEST(ThreadPoolTest, WaitRethrowsOneOfSeveralExceptions) {
  ThreadPool pool(3);
  for (int i = 0; i < 6; ++i) {
    pool.Submit([i] { throw std::runtime_error("task " + std::to_string(i)); });
  }
  try {
    pool.Wait();
    ADD_FAILURE() << "Wait() did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("task ", 0), 0u) << e.what();
  }
  pool.Wait();
}

// The bytes of this process's address space.
size_t AddressSpaceBytes() {
  size_t pages = 0;
  std::ifstream("/proc/self/statm") >> pages;
  return pages * static_cast<size_t>(::sysconf(_SC_PAGESIZE));
}

// A worker the host will not start: the constructor joins the workers it
// started and throws, where destroying them unjoined would terminate the
// process. A child process caps its address space at room for about two
// more thread stacks, then asks for sixteen workers.
TEST(ThreadPoolDeathTest, ConstructorThrowsWhenAWorkerCannotStart) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer runtimes map shadow memory a cap would refuse";
#endif
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        pthread_attr_t attr;
        size_t stack = 0;
        ::pthread_getattr_default_np(&attr);
        ::pthread_attr_getstacksize(&attr, &stack);
        rlimit cap{};
        ::getrlimit(RLIMIT_AS, &cap);
        cap.rlim_cur = AddressSpaceBytes() + 5 * stack / 2;
        ::setrlimit(RLIMIT_AS, &cap);
        try {
          ThreadPool pool(16);
          std::exit(2);
        } catch (const std::exception&) {
          std::exit(0);
        }
      },
      ::testing::ExitedWithCode(0), "");
}

// A task that waits on its own pool would wait for itself forever (a
// nested parallel loop on a shared pool does): it dies with one FATAL line
// instead. Threadsafe style, like the suite's other death test.
TEST(ThreadPoolDeathTest, WaitFromInsideOwnTaskDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        pool.Submit([&pool] { pool.Wait(); });
        pool.Wait();
      },
      "waits on its own pool");
}

TEST(ThreadPoolTest, DefaultThreadsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
}

// One pool per thread count per process; 0 means the default count.
TEST(ThreadPoolTest, SharedPoolIsAProcessWideSingleton) {
  ThreadPool& a = ThreadPool::Shared();
  ThreadPool& b = ThreadPool::Shared();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.num_threads(), ThreadPool::DefaultThreads());
  ThreadPool& three = ThreadPool::Shared(3);
  EXPECT_EQ(&three, &ThreadPool::Shared(3));
  EXPECT_EQ(three.num_threads(), 3);
  EXPECT_EQ(&ThreadPool::Shared(0),
            &ThreadPool::Shared(ThreadPool::DefaultThreads()));
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
