// SpillStore / spilled tiers: moving a score cell's base, its delta or both
// to disk must be unobservable — same aggregate bytes through the fold —
// and every spill failure (torn write, ENOSPC, failed mmap, injected at
// every spill boundary) must leave the tier resident with the aggregate
// intact and no file behind.
#include "reconcile/util/spill_store.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "make_run.h"
#include "reconcile/util/fault.h"
#include "reconcile/util/rng.h"
#include "reconcile/util/tiered_store.h"

namespace reconcile {
namespace {

// Pairs drawn from `key_space` slots, 50 to a row.
std::vector<std::vector<uint64_t>> MakeDeltaStream(uint64_t seed,
                                                   size_t num_deltas,
                                                   size_t delta_size,
                                                   uint64_t key_space) {
  Rng rng(seed);
  std::vector<std::vector<uint64_t>> deltas(num_deltas);
  for (auto& delta : deltas) {
    for (size_t i = 0; i < delta_size; ++i) {
      const uint64_t slot = rng.UniformInt(key_space);
      delta.push_back(PackPair(static_cast<NodeId>(slot / 50),
                               static_cast<NodeId>(slot % 50)));
    }
  }
  return deltas;
}

// Byte-exact aggregate through the fold: the (key, count) sequence ForEach
// produces, in order.
std::vector<std::pair<uint64_t, uint32_t>> Fold(const TieredCountRuns& s) {
  std::vector<std::pair<uint64_t, uint32_t>> out;
  s.ForEach(0, [&out](NodeId u, NodeId v, uint32_t count) {
    out.emplace_back(PackPair(u, v), count);
  });
  return out;
}

// Whether two views hold the same run, array by array.
bool SameRun(const RowRunView& a, const RowRunView& b) {
  return a.num_rows == b.num_rows && a.size == b.size &&
         a.num_escapes == b.num_escapes &&
         std::equal(a.rows, a.rows + a.num_rows, b.rows,
                    [](const RunRow& x, const RunRow& y) {
                      return x.u == y.u && x.end == y.end;
                    }) &&
         std::equal(a.vs, a.vs + a.size, b.vs) &&
         std::equal(a.counts, a.counts + a.size, b.counts) &&
         std::equal(a.escapes, a.escapes + a.num_escapes, b.escapes);
}

// Drops the odd v of row 0.
struct DropOddInRowZero {
  bool Row(uint32_t u) const { return u == 0; }
  bool Entry(uint32_t v) const { return v % 2 == 1; }
};

size_t CountDirEntries(const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return 0;
  size_t n = 0;
  while (dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") ++n;
  }
  ::closedir(handle);
  return n;
}

class SpillStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DisarmFaults();
    char tmpl[] = "/tmp/spill_store_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    DisarmFaults();
    // The suite asserts emptiness where it matters; sweep defensively so a
    // failed expectation doesn't leak files.
    DIR* handle = ::opendir(dir_.c_str());
    if (handle != nullptr) {
      while (dirent* entry = ::readdir(handle)) {
        const std::string name = entry->d_name;
        if (name != "." && name != "..") ::unlink((dir_ + "/" + name).c_str());
      }
      ::closedir(handle);
    }
    ::rmdir(dir_.c_str());
  }
  std::string dir_;
};

TEST_F(SpillStoreTest, SpilledRunRoundTripsExactBytes) {
  std::map<uint64_t, uint32_t> totals;
  const std::vector<uint64_t> keys = MakeDeltaStream(1, 1, 5000, 1200)[0];
  for (uint64_t key : keys) ++totals[key];
  totals[PackPair(3, 7)] = 70000;  // escaped counts travel too
  totals[PackPair(9, 0)] = 255;
  const RowRun run = RunOfTotals(totals);
  SpillStore store(dir_);
  std::string error;
  std::unique_ptr<SpilledRun> spilled = store.Spill(run, &error);
  ASSERT_NE(spilled, nullptr) << error;
  ASSERT_EQ(spilled->size(), run.size());
  EXPECT_EQ(spilled->view().num_escapes, 2u);
  EXPECT_TRUE(SameRun(spilled->view(), run.view()));
  EXPECT_EQ(spilled->file_bytes(), 32 + RowRunBytes(run.view()));
  EXPECT_EQ(store.stats().tiers_spilled, 1u);
  EXPECT_EQ(store.stats().spill_failures, 0u);
  EXPECT_EQ(CountDirEntries(dir_), 1u);
  spilled.reset();  // dropping the run unlinks its file
  EXPECT_EQ(CountDirEntries(dir_), 0u);
}

// A cell with both tiers: a base of about 2000 keys and a delta of about
// 100, far under a quarter of it.
TieredCountRuns TwoTierCell() {
  TieredCountRuns store;
  store.Append(MakeRun(MakeDeltaStream(7, 1, 2000, 100000)[0]));
  store.Append(MakeRun(MakeDeltaStream(8, 1, 100, 100000)[0]));
  return store;
}

TEST_F(SpillStoreTest, SpillingTiersIsUnobservableInTheFold) {
  const auto reference = Fold(TwoTierCell());
  ASSERT_EQ(TwoTierCell().num_tiers(), 2u);

  // Spill the base (mask 1), the delta (mask 2) or both, and byte-compare
  // the fold.
  SpillStore store(dir_);
  for (uint32_t mask = 1; mask < 4; ++mask) {
    SCOPED_TRACE("mask " + std::to_string(mask));
    TieredCountRuns mixed = TwoTierCell();
    std::string error;
    for (size_t t = 0; t < 2; ++t) {
      if (mask & (1u << t)) {
        ASSERT_TRUE(mixed.SpillTier(t, store, &error)) << error;
        ASSERT_TRUE(mixed.tier_spilled(t));
      }
    }
    ASSERT_EQ(Fold(mixed), reference);
  }
  EXPECT_EQ(CountDirEntries(dir_), 0u) << "dropped stores must unlink";
}

TEST_F(SpillStoreTest, ResidentBytesMoveToSpilledOnSpill) {
  TieredCountRuns store = TwoTierCell();
  ASSERT_EQ(store.resident_bytes(), store.tier_bytes(0) + store.tier_bytes(1));
  SpillStore spill(dir_);
  std::string error;
  const size_t base_bytes = store.tier_bytes(0);
  ASSERT_TRUE(store.SpillTier(0, spill, &error)) << error;
  EXPECT_EQ(store.tier_bytes(0), base_bytes);
  EXPECT_EQ(store.resident_bytes(), store.tier_bytes(1));
  EXPECT_TRUE(store.tier_spilled(0));
  EXPECT_FALSE(store.tier_spilled(1));
  // Spilling an already-spilled tier is a successful no-op.
  ASSERT_TRUE(store.SpillTier(0, spill, &error));
  EXPECT_EQ(spill.stats().tiers_spilled, 1u);
}

TEST_F(SpillStoreTest, FilterMaterializesSpilledTiers) {
  TieredCountRuns store;
  store.Append(MakeRun({10, 11, 12, 12, 14, 16, 18, 20, 22, 24}));
  store.Append(MakeRun({11, 13}));
  ASSERT_EQ(store.num_tiers(), 2u);
  SpillStore spill(dir_);
  std::string error;
  ASSERT_TRUE(store.SpillTier(0, spill, &error)) << error;
  ASSERT_TRUE(store.SpillTier(1, spill, &error)) << error;
  store.Filter(DropOddInRowZero{});
  EXPECT_FALSE(store.tier_spilled(0));
  EXPECT_FALSE(store.tier_spilled(1));
  EXPECT_EQ(CountDirEntries(dir_), 0u) << "a rewrite must drop the files";
  const std::vector<std::pair<uint64_t, uint32_t>> expected = {
      {10, 1}, {12, 2}, {14, 1}, {16, 1}, {18, 1}, {20, 1}, {22, 1}, {24, 1}};
  EXPECT_EQ(Fold(store), expected);
}

// A delta appended onto a spilled delta merges into it, and a fold into a
// spilled base rewrites the base: both read the mapping and leave the
// result resident.
TEST_F(SpillStoreTest, AppendMaterializesSpilledTargets) {
  TieredCountRuns store;
  store.Append(MakeRun({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  store.Append(MakeRun({2}));
  ASSERT_EQ(store.num_tiers(), 2u);
  SpillStore spill(dir_);
  std::string error;
  ASSERT_TRUE(store.SpillTier(0, spill, &error)) << error;
  ASSERT_TRUE(store.SpillTier(1, spill, &error)) << error;

  store.Append(MakeRun({11}));  // delta of 2: 10 > 8, no fold
  ASSERT_EQ(store.num_tiers(), 2u);
  EXPECT_TRUE(store.tier_spilled(0));
  EXPECT_FALSE(store.tier_spilled(1));
  EXPECT_EQ(CountDirEntries(dir_), 1u);

  store.Append(MakeRun({12, 13}));  // delta of 4: 10 <= 16, folds
  EXPECT_EQ(store.num_tiers(), 1u);
  EXPECT_FALSE(store.tier_spilled(0));
  EXPECT_EQ(CountDirEntries(dir_), 0u);
  const auto folded = Fold(store);
  ASSERT_EQ(folded.size(), 13u);
  EXPECT_EQ(folded[1], (std::pair<uint64_t, uint32_t>{2, 2}));
}

// The pinned totals 254 + 1, 255 + 0, 200 + 100 and 70,000 with both tiers
// spilled: the scan reads them through the mappings, a fold reads the
// spilled tiers and writes the crossed totals resident, and a filter of a
// spilled tier keeps every escape in step.
TEST_F(SpillStoreTest, EscapedTotalsRoundTripThroughSpilledTiers) {
  std::map<uint64_t, uint32_t> reference = {
      {PackPair(0, 1), 400},   {PackPair(0, 4), 300},
      {PackPair(1, 1), 254},   {PackPair(1, 2), 255},
      {PackPair(1, 3), 200},   {PackPair(1, 4), 70000}};
  for (NodeId v = 0; v < 14; ++v) reference[PackPair(2, v)] = 1;
  TieredCountRuns store;
  store.Append(RunOfTotals(reference));
  const std::map<uint64_t, uint32_t> delta = {{PackPair(1, 1), 1},
                                              {PackPair(1, 3), 100}};
  store.Append(RunOfTotals(delta));
  for (const auto& [key, total] : delta) reference[key] += total;
  ASSERT_EQ(store.num_tiers(), 2u);
  SpillStore spill(dir_);
  std::string error;
  ASSERT_TRUE(store.SpillTier(0, spill, &error)) << error;
  ASSERT_TRUE(store.SpillTier(1, spill, &error)) << error;
  EXPECT_EQ(Aggregate(store), reference);

  // Three more pairs take the delta to 5 of 20: the fold reads both
  // mappings.
  const std::map<uint64_t, uint32_t> more = {
      {PackPair(1, 9), 1}, {PackPair(3, 0), 256}, {PackPair(3, 1), 1}};
  store.Append(RunOfTotals(more));
  for (const auto& [key, total] : more) reference[key] += total;
  ASSERT_EQ(store.num_tiers(), 1u);
  EXPECT_FALSE(store.tier_spilled(0));
  EXPECT_EQ(CountDirEntries(dir_), 0u);
  EXPECT_EQ(Aggregate(store), reference);

  // Spill the folded base and filter it from the mapping: escaped (0, 1)
  // goes, ahead of escaped (0, 4).
  ASSERT_TRUE(store.SpillTier(0, spill, &error)) << error;
  store.Filter(DropOddInRowZero{});
  reference.erase(PackPair(0, 1));
  EXPECT_EQ(Aggregate(store), reference);
  EXPECT_EQ(reference[PackPair(1, 1)], 255u);
  EXPECT_EQ(reference[PackPair(1, 2)], 255u);
  EXPECT_EQ(reference[PackPair(1, 3)], 300u);
  EXPECT_EQ(reference[PackPair(1, 4)], 70000u);
}

// The fault sweep: each injected failure mode, fired at either spill of a
// two-tier cell, must (a) fail that one spill, (b) keep the tier resident,
// (c) leave no file behind for the failed spill, and (d) keep the fold
// byte-identical to the all-resident cell.
TEST_F(SpillStoreTest, InjectedFaultsAtEveryBoundaryDegradeGracefully) {
  const auto reference = Fold(TwoTierCell());

  for (const char* fault : {"io:spill_write_fail", "io:spill_truncate",
                            "io:mmap_fail", "io:enospc_after=0"}) {
    for (size_t boundary = 1; boundary <= 2; ++boundary) {
      SCOPED_TRACE(std::string(fault) + " at spill #" +
                   std::to_string(boundary));
      TieredCountRuns store = TwoTierCell();
      SpillStore spill(dir_);
      std::string arm_error;
      // enospc_after is a threshold point (fails every hit past N); the
      // others are hit-index points (fail exactly hit N).
      const std::string spec =
          std::string(fault) == "io:enospc_after=0"
              ? "io:enospc_after=" + std::to_string(boundary - 1)
              : std::string(fault) + "=" + std::to_string(boundary);
      ASSERT_TRUE(ArmFaults(spec, &arm_error)) << arm_error;

      size_t failures = 0;
      for (size_t t = 0; t < 2; ++t) {
        std::string error;
        if (!store.SpillTier(t, spill, &error)) {
          ++failures;
          EXPECT_FALSE(store.tier_spilled(t)) << error;
          EXPECT_FALSE(error.empty());
        }
      }
      DisarmFaults();
      EXPECT_GE(failures, 1u);
      EXPECT_EQ(spill.stats().spill_failures, failures);
      // Exactly one file per successful spill; no torn/failed leftovers.
      EXPECT_EQ(CountDirEntries(dir_), spill.stats().tiers_spilled);
      EXPECT_EQ(Fold(store), reference);
    }
  }
}

TEST_F(SpillStoreTest, EnospcThresholdFailsEverySpillPastTheCliff) {
  std::string error;
  ASSERT_TRUE(ArmFaults("io:enospc_after=2", &error)) << error;
  SpillStore store(dir_);
  RowRun run = MakeRun({1, 2, 3});
  EXPECT_NE(store.Spill(run, &error), nullptr);
  EXPECT_NE(store.Spill(run, &error), nullptr);
  // The disk is now "full": every later spill fails, not just one.
  EXPECT_EQ(store.Spill(run, &error), nullptr);
  EXPECT_EQ(store.Spill(run, &error), nullptr);
  EXPECT_EQ(store.stats().tiers_spilled, 2u);
  EXPECT_EQ(store.stats().spill_failures, 2u);
}

// Two stores of one process spilling into one directory, as two matcher
// states with the same score directory do: the file names must not collide,
// every spill succeeds, each store reads back its own runs, and destroying
// both leaves the directory empty.
TEST_F(SpillStoreTest, TwoStoresShareADirectory) {
  std::vector<RowRun> runs[2];
  {
    // Declared first, so the runs go after the stores, as the matcher's
    // cells go with its state.
    std::vector<std::unique_ptr<SpilledRun>> spilled[2];
    SpillStore stores[2] = {SpillStore(dir_), SpillStore(dir_)};
    for (int i = 0; i < 6; ++i) {
      for (int s = 0; s < 2; ++s) {
        runs[s].push_back(
            MakeRun(MakeDeltaStream(100 * s + i, 1, 300, 5000)[0]));
        std::string error;
        spilled[s].push_back(stores[s].Spill(runs[s].back(), &error));
        ASSERT_NE(spilled[s].back(), nullptr)
            << "store " << s << " spill " << i << ": " << error;
      }
    }
    for (int s = 0; s < 2; ++s) {
      EXPECT_EQ(stores[s].stats().tiers_spilled, 6u);
      EXPECT_EQ(stores[s].stats().spill_failures, 0u);
      for (size_t i = 0; i < runs[s].size(); ++i) {
        EXPECT_TRUE(SameRun(spilled[s][i]->view(), runs[s][i].view()));
      }
    }
    EXPECT_EQ(CountDirEntries(dir_), 12u);
  }
  EXPECT_EQ(CountDirEntries(dir_), 0u);
}

TEST_F(SpillStoreTest, DisableStopsSpillingWithoutTouchingDisk) {
  SpillStore store(dir_);
  store.Disable();
  RowRun run = MakeRun({5, 6});
  std::string error;
  EXPECT_EQ(store.Spill(run, &error), nullptr);
  EXPECT_EQ(CountDirEntries(dir_), 0u);
}

TEST_F(SpillStoreTest, UnwritableDirectoryIsACleanFailure) {
  SpillStore store("/proc/definitely-not-writable/spill");
  RowRun run = MakeRun({1});
  std::string error;
  EXPECT_EQ(store.Spill(run, &error), nullptr);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(store.stats().spill_failures, 1u);
}

}  // namespace
}  // namespace reconcile
