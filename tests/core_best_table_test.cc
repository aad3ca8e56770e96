// Unit tests for the packed epoch-stamped atomic best table: word packing,
// tie saturation, epoch staleness / reset, and equivalence of the
// concurrent CAS-max fold with `best_internal::Fold` applied serially under
// real contention.
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/core/best_table.h"
#include "reconcile/util/rng.h"

namespace reconcile {
namespace {

TEST(BestPackingTest, RoundTrips) {
  const uint64_t word = best_internal::Pack(12345, 0xDEADBEEF, 2);
  EXPECT_EQ(best_internal::EpochOf(word), 12345u);
  EXPECT_EQ(best_internal::ScoreOf(word), 0xDEADBEEFu);
  EXPECT_EQ(best_internal::TiesOf(word), 2u);
}

TEST(BestPackingTest, FoldIsMonotone) {
  // Every accepted fold strictly increases the packed word — the property
  // the lock-free CAS loop relies on for termination and determinism.
  uint64_t word = 0;
  const uint32_t scores[] = {3, 1, 3, 7, 7, 7, 7, 2};
  for (uint32_t score : scores) {
    const uint64_t next = best_internal::Fold(word, 1, score);
    EXPECT_GE(next, word);
    word = next;
  }
  EXPECT_EQ(best_internal::ScoreOf(word), 7u);
  // Four observations of 7, saturated at 3.
  EXPECT_EQ(best_internal::TiesOf(word), best_internal::kTieSaturation);
}

TEST(AtomicBestTableTest, TracksUniqueBest) {
  AtomicBestTable table(4);
  table.NextEpoch();
  table.Observe(1, 5);
  table.Observe(1, 3);
  EXPECT_TRUE(table.IsUniqueBest(1, 5));
  EXPECT_FALSE(table.IsUniqueBest(1, 3));
  EXPECT_EQ(table.BestScore(1), 5u);
  // An untouched node has no best.
  EXPECT_EQ(table.BestScore(0), 0u);
  EXPECT_FALSE(table.IsUniqueBest(0, 0));
}

TEST(AtomicBestTableTest, TiesRejectUniqueness) {
  AtomicBestTable table(2);
  table.NextEpoch();
  table.Observe(0, 4);
  table.Observe(0, 4);
  EXPECT_FALSE(table.IsUniqueBest(0, 4));
  // A strictly higher score restores uniqueness.
  table.Observe(0, 9);
  EXPECT_TRUE(table.IsUniqueBest(0, 9));
}

TEST(AtomicBestTableTest, TieCountSaturates) {
  AtomicBestTable table(1);
  table.NextEpoch();
  for (int i = 0; i < 100; ++i) table.Observe(0, 6);
  EXPECT_FALSE(table.IsUniqueBest(0, 6));
  EXPECT_EQ(table.BestScore(0), 6u);
}

TEST(AtomicBestTableTest, EpochBumpInvalidatesWithoutClearing) {
  AtomicBestTable table(3);
  table.NextEpoch();
  table.Observe(2, 8);
  ASSERT_TRUE(table.IsUniqueBest(2, 8));
  table.NextEpoch();
  // The stale entry must read as empty...
  EXPECT_FALSE(table.IsUniqueBest(2, 8));
  EXPECT_EQ(table.BestScore(2), 0u);
  // ...and a smaller new-round score must beat it.
  table.Observe(2, 1);
  EXPECT_TRUE(table.IsUniqueBest(2, 1));
  EXPECT_EQ(table.BestScore(2), 1u);
}

TEST(AtomicBestTableTest, ManyEpochsStayIsolated) {
  AtomicBestTable table(1);
  for (uint32_t round = 1; round <= 200; ++round) {
    table.NextEpoch();
    table.Observe(0, round);
    EXPECT_TRUE(table.IsUniqueBest(0, round));
    if (round > 1) {
      EXPECT_FALSE(table.IsUniqueBest(0, round - 1));
    }
  }
}

TEST(AtomicBestTableTest, ConcurrentObserveMatchesSerialFold) {
  // Hammer one table from several threads with a fixed observation multiset;
  // the result must equal `Fold` applied serially to the same multiset.
  constexpr size_t kNodes = 64;
  constexpr int kThreads = 8;
  constexpr int kObsPerThread = 5000;

  // Deterministic observation schedule, partitioned across threads.
  std::vector<std::pair<NodeId, uint32_t>> schedule;
  Rng rng(99);
  for (int i = 0; i < kThreads * kObsPerThread; ++i) {
    schedule.emplace_back(static_cast<NodeId>(rng.Next() % kNodes),
                          static_cast<uint32_t>(rng.Next() % 16));
  }

  constexpr uint64_t kEpoch = 1;  // the table's after one NextEpoch()
  std::vector<uint64_t> serial(kNodes, 0);
  for (const auto& [node, score] : schedule) {
    serial[node] = best_internal::Fold(serial[node], kEpoch, score);
  }

  AtomicBestTable atomic_table(kNodes);
  atomic_table.NextEpoch();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &schedule, &atomic_table] {
      for (int i = t; i < kThreads * kObsPerThread; i += kThreads) {
        atomic_table.Observe(schedule[static_cast<size_t>(i)].first,
                             schedule[static_cast<size_t>(i)].second);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (NodeId node = 0; node < kNodes; ++node) {
    ASSERT_EQ(best_internal::EpochOf(serial[node]), kEpoch) << "node " << node;
    const uint32_t best = best_internal::ScoreOf(serial[node]);
    EXPECT_EQ(atomic_table.BestScore(node), best) << "node " << node;
    EXPECT_EQ(atomic_table.IsUniqueBest(node, best),
              serial[node] == best_internal::Pack(kEpoch, best, 1))
        << "node " << node;
  }
}

}  // namespace
}  // namespace reconcile
