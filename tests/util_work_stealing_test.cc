// The work-stealing loop: every index of [0, n) must be executed exactly
// once on a disjoint chunk no larger than the grain, for any thread count,
// grain, and steal schedule — including adversarially skewed per-item work,
// which is the loop's reason to exist.
#include "reconcile/util/parallel_for.h"

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace reconcile {
namespace {

TEST(WorkStealingTest, CoversWholeRangeOnce) {
  for (int threads : {1, 2, 4, 7}) {
    ThreadPool pool(threads);
    for (size_t n : {size_t{1}, size_t{5}, size_t{1000}, size_t{4096}}) {
      for (size_t grain : {size_t{1}, size_t{37}, size_t{512}}) {
        std::vector<std::atomic<int>> touched(n);
        ParallelForWorkStealing(&pool, n, grain,
                                [&touched](size_t begin, size_t end) {
                                  for (size_t i = begin; i < end; ++i) {
                                    touched[i].fetch_add(1);
                                  }
                                });
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(touched[i].load(), 1)
              << "threads=" << threads << " n=" << n << " grain=" << grain
              << " i=" << i;
        }
      }
    }
  }
}

TEST(WorkStealingTest, EmptyRangeIsNoOp) {
  ThreadPool pool(3);
  bool called = false;
  ParallelForWorkStealing(&pool, 0, 8,
                          [&called](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(WorkStealingTest, NullPoolRunsSerially) {
  std::atomic<size_t> total{0};
  ParallelForWorkStealing(nullptr, 100, 7,
                          [&total](size_t begin, size_t end) {
                            total.fetch_add(end - begin);
                          });
  EXPECT_EQ(total.load(), 100u);
}

TEST(WorkStealingTest, GrainLargerThanRangeRunsInOneCall) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  std::atomic<size_t> total{0};
  ParallelForWorkStealing(&pool, 5, 1000,
                          [&calls, &total](size_t begin, size_t end) {
                            calls.fetch_add(1);
                            total.fetch_add(end - begin);
                          });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(total.load(), 5u);
}

TEST(WorkStealingTest, ChunksRespectGrain) {
  ThreadPool pool(4);
  constexpr size_t kGrain = 16;
  std::atomic<int> oversized{0};
  ParallelForWorkStealing(&pool, 10000, kGrain,
                          [&oversized](size_t begin, size_t end) {
                            // Initial per-worker split and steals may hand
                            // out large *ranges*, but each fn call claims at
                            // most one grain.
                            if (end - begin > kGrain) oversized.fetch_add(1);
                          });
  EXPECT_EQ(oversized.load(), 0);
}

// Adversarial skew: item 0 costs ~10000x the others (a hub). The stealing
// schedule must still cover everything exactly once.
TEST(WorkStealingTest, SkewedItemCostStillCoversRange) {
  ThreadPool pool(4);
  constexpr size_t kN = 2000;
  std::vector<std::atomic<int>> touched(kN);
  std::atomic<uint64_t> sink{0};
  ParallelForWorkStealing(&pool, kN, 1,
                          [&touched, &sink](size_t begin, size_t end) {
                            for (size_t i = begin; i < end; ++i) {
                              uint64_t burn = i == 0 ? 10000000 : 1000;
                              uint64_t acc = 0;
                              for (uint64_t j = 0; j < burn; ++j) acc += j;
                              sink.fetch_add(acc, std::memory_order_relaxed);
                              touched[i].fetch_add(1);
                            }
                          });
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(touched[i].load(), 1) << i;
}

TEST(WorkStealingSlotsTest, SlotsAreValidAndExclusive) {
  ThreadPool pool(4);
  const int slots = ParallelSlots(&pool);
  ASSERT_EQ(slots, 4);
  // Per-slot accumulation with no synchronization: correct iff a slot is
  // only ever touched by one thread at a time.
  std::vector<uint64_t> per_slot(static_cast<size_t>(slots), 0);
  constexpr size_t kN = 100000;
  ParallelForWorkStealingSlots(
      &pool, kN, 64, [&per_slot, slots](int slot, size_t begin, size_t end) {
        ASSERT_GE(slot, 0);
        ASSERT_LT(slot, slots);
        per_slot[static_cast<size_t>(slot)] += end - begin;
      });
  uint64_t total = 0;
  for (uint64_t c : per_slot) total += c;
  EXPECT_EQ(total, kN);
}

TEST(WorkStealingSlotsTest, SerialFallbackUsesSlotZero) {
  std::vector<int> seen_slots;
  ParallelForWorkStealingSlots(nullptr, 10, 3,
                               [&seen_slots](int slot, size_t, size_t) {
                                 seen_slots.push_back(slot);
                               });
  ASSERT_EQ(seen_slots.size(), 1u);
  EXPECT_EQ(seen_slots[0], 0);
}

TEST(ParallelForEachTest, EachItemRunsOnce) {
  for (int threads : {1, 3}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> touched(777);
    ParallelForEach(&pool, touched.size(),
                    [&touched](size_t i) { touched[i].fetch_add(1); });
    for (size_t i = 0; i < touched.size(); ++i) {
      ASSERT_EQ(touched[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
  bool called = false;
  ParallelForEach(nullptr, 0, [&called](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelProduceTest, OneDeltaPerSlotSummingToRange) {
  ThreadPool pool(4);
  constexpr size_t kN = 50000;
  std::vector<uint64_t> deltas = ParallelProduce<uint64_t>(
      &pool, kN, /*grain=*/64,
      [](uint64_t& delta, size_t begin, size_t end) { delta += end - begin; });
  EXPECT_EQ(deltas.size(), 4u);
  uint64_t total = 0;
  for (uint64_t d : deltas) total += d;
  EXPECT_EQ(total, kN);
}

TEST(ParallelProduceTest, EmptyRangeLeavesDefaultDeltas) {
  ThreadPool pool(2);
  std::vector<int> deltas = ParallelProduce<int>(
      &pool, 0, 1, [](int& delta, size_t, size_t) { delta = -1; });
  for (int d : deltas) EXPECT_EQ(d, 0);
}

// A body that throws reaches the caller of the loop, after every worker
// has stopped: at one index, at the first and the last, and at every index
// (no worker left to drain the others' ranges). The pool then runs the next
// loop over every index.
TEST(WorkStealingTest, ExceptionInBodyReachesTheCaller) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  for (size_t bad : {size_t{437}, size_t{0}, kN - 1, kN}) {
    SCOPED_TRACE("throwing at " + (bad == kN ? std::string("every index")
                                             : std::to_string(bad)));
    std::atomic<size_t> ran{0};
    try {
      ParallelForEach(&pool, kN, [&ran, bad](size_t i) {
        if (bad == kN || i == bad) throw std::runtime_error("bad index");
        ran.fetch_add(1);
      });
      ADD_FAILURE() << "the loop did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "bad index");
    }
    EXPECT_LT(ran.load(), kN);
    std::vector<std::atomic<int>> touched(kN);
    ParallelForEach(&pool, kN, [&touched](size_t i) { touched[i].fetch_add(1); });
    for (size_t i = 0; i < kN; ++i) ASSERT_EQ(touched[i].load(), 1) << i;
  }
}

}  // namespace
}  // namespace reconcile
