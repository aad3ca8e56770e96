// TieredCountRuns: a score cell as a base run plus at most one delta, both
// row-major (`RowRun`). It must present exactly the aggregate of every delta
// appended — same pairs, same totals, ascending (u, v) order — and after each
// append the delta must be empty or under a quarter of the base. Totals of
// 255 and more go through the escape list and must survive every path;
// pairs a drop rule names may leave on any rewrite.
#include "reconcile/util/tiered_store.h"

#include <unistd.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "make_run.h"
#include "reconcile/util/rng.h"
#include "reconcile/util/spill_store.h"
#include "scratch_path.h"

namespace reconcile {
namespace {

// Pairs k = lo, ..., hi - 1 once each, as (k / 10, k % 10): rows of ten.
RowRun Range(uint64_t lo, uint64_t hi) {
  std::vector<uint64_t> raw;
  for (uint64_t k = lo; k < hi; ++k) raw.push_back(PackPair(k / 10, k % 10));
  return MakeRun(raw);
}

// Drops the entries of rows in `us` whose v is in `vs`.
struct DropSets {
  std::set<uint32_t> us;
  std::set<uint32_t> vs;
  bool Row(uint32_t u) const { return us.count(u) > 0; }
  bool Entry(uint32_t v) const { return vs.count(v) > 0; }
};

TEST(TieredStoreTest, AggregateAndShapeAfterEveryAppend) {
  size_t two_tier_appends = 0;
  size_t folds = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    TieredCountRuns store;
    std::map<uint64_t, uint32_t> reference;
    for (int round = 0; round < 12; ++round) {
      // Delta sizes spread over two orders of magnitude, so some deltas fold
      // into the base and some stay beside it; pairs spread over 40 rows.
      const size_t size = static_cast<size_t>(rng.UniformIntInRange(0, 600)) /
                          (1 + rng.UniformInt(40));
      std::vector<uint64_t> raw;
      for (size_t i = 0; i < size; ++i) {
        raw.push_back(PackPair(static_cast<NodeId>(rng.UniformInt(40)),
                               static_cast<NodeId>(rng.UniformInt(50))));
      }
      for (uint64_t key : raw) ++reference[key];
      const size_t tiers_before = store.num_tiers();
      store.Append(MakeRun(raw));

      ASSERT_LE(store.num_tiers(), 2u);
      EXPECT_EQ(store.empty(), reference.empty());
      if (store.num_tiers() == 2) {
        ++two_tier_appends;
        EXPECT_LT(4 * store.tier_size(1), store.tier_size(0))
            << "the delta must stay under a quarter of the base";
      } else if (tiers_before == 2 || (tiers_before == 1 && !raw.empty())) {
        ++folds;
      }
      ASSERT_EQ(Aggregate(store), reference) << "round " << round;
    }
  }
  EXPECT_GT(two_tier_appends, 0u);
  EXPECT_GT(folds, 0u);
}

TEST(TieredStoreTest, DeltaFoldsOnceItReachesAQuarterOfTheBase) {
  TieredCountRuns store;
  store.Append(Range(0, 400));
  ASSERT_EQ(store.num_tiers(), 1u);
  store.Append(Range(1000, 1099));  // 400 > 4 * 99: stays beside the base
  ASSERT_EQ(store.num_tiers(), 2u);
  EXPECT_EQ(store.tier_size(0), 400u);
  EXPECT_EQ(store.tier_size(1), 99u);
  store.Append(Range(2000, 2001));  // the delta reaches 100: folds
  ASSERT_EQ(store.num_tiers(), 1u);
  EXPECT_EQ(store.tier_size(0), 500u);
}

TEST(TieredStoreTest, EqualSizedDeltasFoldEveryTime) {
  TieredCountRuns store;
  for (int i = 0; i < 6; ++i) {
    store.Append(Range(0, 64));
    EXPECT_EQ(store.num_tiers(), 1u);
  }
  const std::map<uint64_t, uint32_t> aggregate = Aggregate(store);
  ASSERT_EQ(aggregate.size(), 64u);
  for (const auto& [key, count] : aggregate) EXPECT_EQ(count, 6u) << key;
}

TEST(TieredStoreTest, FilterAppliesToBothTiers) {
  TieredCountRuns store;
  store.Append(MakeRun({10, 11, 12, 14, 16, 18, 20, 22, 24}));
  store.Append(MakeRun({10, 13}));
  ASSERT_EQ(store.num_tiers(), 2u);
  store.Filter(DropSets{{0}, {11, 13}});
  const std::map<uint64_t, uint32_t> expected = {
      {10, 2}, {12, 1}, {14, 1}, {16, 1}, {18, 1}, {20, 1}, {22, 1}, {24, 1}};
  EXPECT_EQ(Aggregate(store), expected);
  EXPECT_EQ(store.num_tiers(), 2u);
  EXPECT_EQ(store.tier_size(1), 1u);
}

TEST(TieredStoreTest, FilterThatEmptiesTheDeltaKeepsTheBase) {
  TieredCountRuns store;
  store.Append(Range(0, 10));
  store.Append(MakeRun({PackPair(7, 1)}));
  ASSERT_EQ(store.num_tiers(), 2u);
  store.Filter(DropSets{{7}, {1}});
  EXPECT_EQ(store.num_tiers(), 1u);
  EXPECT_EQ(store.tier_size(0), 10u);
}

TEST(TieredStoreTest, FilterThatEmptiesTheBasePromotesTheDelta) {
  TieredCountRuns store;
  store.Append(MakeRun({2, 4, 6, 8, 10, 12}));
  store.Append(MakeRun({3}));
  ASSERT_EQ(store.num_tiers(), 2u);
  store.Filter(DropSets{{0}, {2, 4, 6, 8, 10, 12}});
  ASSERT_EQ(store.num_tiers(), 1u);
  EXPECT_EQ(store.tier_size(0), 1u);
  EXPECT_EQ(Aggregate(store), (std::map<uint64_t, uint32_t>{{3, 1}}));
  // The promoted run is the base now: an equal-sized delta folds into it.
  store.Append(MakeRun({5}));
  EXPECT_EQ(store.num_tiers(), 1u);
  EXPECT_EQ(Aggregate(store), (std::map<uint64_t, uint32_t>{{3, 1}, {5, 1}}));
  store.Filter(DropSets{{0}, {3, 5}});
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.num_tiers(), 0u);
}

TEST(TieredStoreTest, EmptyDeltasAreDropped) {
  TieredCountRuns store;
  store.Append(RowRun{});
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.num_tiers(), 0u);
  store.Append(MakeRun({7}));
  store.Append(RowRun{});
  EXPECT_EQ(store.num_tiers(), 1u);
  EXPECT_EQ(store.tier_size(0), 1u);
}

// Totals of 255 and more: the byte says 255 and the escape list holds the
// total. Row 1 holds the pinned totals and meets the deltas (the merge
// path); row 2 has escapes but no delta (the bulk row copy); row 3 has
// escapes behind an entry the filter drops (the per-entry path, where the
// escape cursor must skip the dropped entry's escape). Every step is
// checked against a std::map.
TEST(TieredStoreTest, EscapedTotalsSurviveAppendFoldFilterAndScan) {
  std::map<uint64_t, uint32_t> base = {
      {PackPair(1, 1), 254},   {PackPair(1, 2), 255},
      {PackPair(1, 3), 200},   {PackPair(1, 4), 70000},
      {PackPair(2, 1), 256},   {PackPair(2, 2), 3},
      {PackPair(2, 9), 1000},  {PackPair(3, 1), 400},
      {PackPair(3, 2), 600},   {PackPair(3, 3), 1}};
  for (NodeId v = 10; v < 20; ++v) base[PackPair(4, v)] = 1;  // bulk
  std::map<uint64_t, uint32_t> reference = base;
  TieredCountRuns store;
  store.Append(RunOfTotals(base));
  ASSERT_EQ(Aggregate(store), reference);

  // 254 + 1 and 200 + 100 across the tiers, summed by the scan in u32.
  const std::map<uint64_t, uint32_t> delta = {{PackPair(1, 1), 1},
                                              {PackPair(1, 3), 100}};
  for (const auto& [key, total] : delta) reference[key] += total;
  store.Append(RunOfTotals(delta));
  ASSERT_EQ(store.num_tiers(), 2u);
  EXPECT_EQ(Aggregate(store), reference);
  EXPECT_EQ(reference[PackPair(1, 1)], 255u);
  EXPECT_EQ(reference[PackPair(1, 3)], 300u);

  // Three more pairs take the delta to 5 of 20: it folds, and the merge
  // writes the crossed totals through the escape list. (1, 2) stays 255 + 0.
  const std::map<uint64_t, uint32_t> more = {
      {PackPair(0, 7), 255}, {PackPair(1, 5), 1}, {PackPair(5, 5), 2}};
  for (const auto& [key, total] : more) reference[key] += total;
  store.Append(RunOfTotals(more));
  ASSERT_EQ(store.num_tiers(), 1u);
  EXPECT_EQ(Aggregate(store), reference);

  // The scan's screen: at 256 only totals of 256 and more surface, yet the
  // returned pair count covers the whole cell.
  std::map<uint64_t, uint32_t> at_least_256;
  for (const auto& [key, total] : reference) {
    if (total >= 256) at_least_256.emplace(key, total);
  }
  EXPECT_EQ(Aggregate(store, 256), at_least_256);
  EXPECT_EQ(store.ForEach(256, [](NodeId, NodeId, uint32_t) {}),
            reference.size());
  std::map<uint64_t, uint32_t> at_least_2;
  for (const auto& [key, total] : reference) {
    if (total >= 2) at_least_2.emplace(key, total);
  }
  EXPECT_EQ(Aggregate(store, 2), at_least_2);

  // The filter drops (3, 1), an escaped entry ahead of (3, 2)'s escape.
  store.Filter(DropSets{{3}, {1}});
  reference.erase(PackPair(3, 1));
  EXPECT_EQ(Aggregate(store), reference);
  EXPECT_EQ(Aggregate(store)[PackPair(1, 4)], 70000u);
}

// A drop rule leaves its pairs out of every rewrite: the merge into the
// delta, the fold and the filter. A delta adopted by an empty tier is not
// rewritten, and a pair the rule names may survive in one tier with a
// partial total; every other pair keeps its exact total.
TEST(TieredStoreTest, RewritesLeaveNamedPairsOut) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    DropSets drop;
    TieredCountRuns store;
    std::map<uint64_t, uint32_t> reference;
    for (int round = 0; round < 10; ++round) {
      std::vector<uint64_t> raw;
      const size_t size = 1 + rng.UniformInt(200) / (1 + rng.UniformInt(10));
      for (size_t i = 0; i < size; ++i) {
        raw.push_back(PackPair(static_cast<NodeId>(rng.UniformInt(20)),
                               static_cast<NodeId>(rng.UniformInt(20))));
      }
      for (uint64_t key : raw) ++reference[key];
      store.Append(MakeRun(raw), drop);
      for (const auto& [key, total] : Aggregate(store)) {
        if (drop.Row(PairFirst(key)) && drop.Entry(PairSecond(key))) {
          EXPECT_LE(total, reference[key]) << "named pair " << key;
        } else {
          EXPECT_EQ(total, reference[key]) << "live pair " << key;
        }
      }
      // Matches only grow: name one more row and one more column.
      drop.us.insert(static_cast<uint32_t>(rng.UniformInt(20)));
      drop.vs.insert(static_cast<uint32_t>(rng.UniformInt(20)));
    }
    store.Filter(drop);
    for (const auto& [key, total] : Aggregate(store)) {
      const bool named = drop.Row(PairFirst(key)) && drop.Entry(PairSecond(key));
      EXPECT_FALSE(named) << "the filter keeps a named pair";
      EXPECT_EQ(total, reference[key]) << "live pair " << key;
    }
    for (const auto& [key, total] : reference) {
      const bool named = drop.Row(PairFirst(key)) && drop.Entry(PairSecond(key));
      if (!named) {
        EXPECT_EQ(Aggregate(store).count(key), 1u) << key;
      }
    }
  }
}

// The lookup pass: before the append, `ForEachAfterAppend` reports each
// delta pair's total as the delta's count plus one `RowLookup` per tier,
// and that must be the total `ForEach(0)` shows for the pair after
// `Append`. The cells are random and two-tier: both tiers and the deltas
// hold totals of 255 and more (a lookup that lands on one must have
// counted the escapes before it), rows and pairs only one tier or only the
// delta holds, and, in every other trial, a base and a delta spilled, so
// the lookups read the mappings.
TEST(TieredStoreTest, LookupPassGivesEveryDeltaPairItsTotalAfterAppend) {
  const std::string dir = ScratchPath("tiered_store_lookup_spill");
  SpillStore spill(dir);
  Rng rng(2029);
  // About `draws` pairs in rows [0, rows) and columns [0, cols); one total
  // in six is 255 or more.
  auto random_totals = [&rng](size_t draws, uint64_t rows, uint64_t cols) {
    std::map<uint64_t, uint32_t> totals;
    for (size_t i = 0; i < draws; ++i) {
      const uint64_t key = PackPair(static_cast<NodeId>(rng.UniformInt(rows)),
                                    static_cast<NodeId>(rng.UniformInt(cols)));
      totals[key] = rng.UniformInt(6) == 0
                        ? static_cast<uint32_t>(rng.UniformIntInRange(255, 70000))
                        : static_cast<uint32_t>(rng.UniformIntInRange(1, 254));
    }
    return totals;
  };
  size_t lookups = 0, escaped_hits = 0, spilled_cells = 0;
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    TieredCountRuns store;
    // A base over rows 0-39 and a delta tier under a quarter of it that
    // reaches rows 40-49, which the base does not hold.
    std::map<uint64_t, uint32_t> stored = random_totals(400, 40, 60);
    store.Append(RunOfTotals(stored));
    const std::map<uint64_t, uint32_t> tier = random_totals(60, 50, 60);
    for (const auto& [key, total] : tier) stored[key] += total;
    store.Append(RunOfTotals(tier));
    ASSERT_EQ(store.num_tiers(), 2u);
    if (trial % 2 == 1) {
      std::string error;
      ASSERT_TRUE(store.SpillTier(0, spill, &error)) << error;
      ASSERT_TRUE(store.SpillTier(1, spill, &error)) << error;
      ASSERT_TRUE(store.tier_spilled(0) && store.tier_spilled(1));
      ++spilled_cells;
    }
    // The delta reaches rows and columns neither tier holds; the larger
    // ones fold the delta tier into the base.
    const std::map<uint64_t, uint32_t> delta =
        random_totals(1 + rng.UniformInt(150), 60, 70);
    RowRun run = RunOfTotals(delta);
    std::map<uint64_t, uint32_t> reported;
    store.ForEachAfterAppend(
        run.view(), [&reported](NodeId u, NodeId v, uint32_t total) {
          if (!reported.empty()) {
            EXPECT_GT(PackPair(u, v), reported.rbegin()->first)
                << "the pass must ascend";
          }
          reported.emplace(PackPair(u, v), total);
        });
    ASSERT_EQ(reported.size(), delta.size());
    for (const auto& [key, total] : delta) {
      const auto it = stored.find(key);
      if (it != stored.end() && it->second >= kEscapedCount) ++escaped_hits;
    }
    store.Append(std::move(run));
    const std::map<uint64_t, uint32_t> after = Aggregate(store);
    for (const auto& [key, total] : reported) {
      ASSERT_EQ(after.count(key), 1u) << key;
      EXPECT_EQ(total, after.at(key)) << "pair " << key;
      EXPECT_EQ(total, stored[key] + delta.at(key)) << "pair " << key;
      ++lookups;
    }
  }
  ::rmdir(dir.c_str());
  EXPECT_GT(lookups, 1000u);
  EXPECT_GT(escaped_hits, 10u);
  EXPECT_EQ(spilled_cells, 20u);
}

TEST(RowRunTest, MergeMatchesMapReference) {
  Rng rng(9);
  std::map<uint64_t, uint32_t> a_totals, b_totals, expected;
  for (int i = 0; i < 3000; ++i) {
    const uint64_t key = PackPair(static_cast<NodeId>(rng.UniformInt(60)),
                                  static_cast<NodeId>(rng.UniformInt(100)));
    const uint32_t total = 1 + static_cast<uint32_t>(rng.UniformInt(400));
    (i % 3 == 0 ? b_totals : a_totals)[key] = total;
  }
  for (const auto& [key, total] : a_totals) expected[key] += total;
  for (const auto& [key, total] : b_totals) expected[key] += total;
  const RowRun a = RunOfTotals(a_totals);
  const RowRun b = RunOfTotals(b_totals);
  const RowRun merged = MergeRowRuns(a.view(), b.view(), KeepAll{});
  EXPECT_EQ(merged.size(), expected.size());
  TieredCountRuns store;
  store.Append(MergeRowRuns(a.view(), b.view(), KeepAll{}));
  EXPECT_EQ(Aggregate(store), expected);
  // Either side may be empty: the merge is then a copy.
  TieredCountRuns copy;
  copy.Append(MergeRowRuns(RowRunView{}, a.view(), KeepAll{}));
  EXPECT_EQ(Aggregate(copy), a_totals);
}

}  // namespace
}  // namespace reconcile
