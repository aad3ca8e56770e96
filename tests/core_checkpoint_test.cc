// MatcherState as a resumable object: a snapshot taken between rounds must
// restore into a state that finishes with a matching bit-identical to the
// uninterrupted run — across both scoring backends, multi-tier LSM stacks
// and thread counts — and every corruption or
// mismatch (truncation, bit flips, wrong graph, wrong config, wrong seeds)
// must be a clean LoadSnapshot failure that leaves the state untouched.
#include "reconcile/core/matcher_state.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/core/matcher.h"
#include "reconcile/gen/chung_lu.h"
#include "reconcile/sampling/independent.h"
#include "reconcile/seed/seeding.h"
#include "reconcile/util/checkpoint.h"

namespace reconcile {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<char> Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

struct Workload {
  RealizationPair pair;
  std::vector<std::pair<NodeId, NodeId>> seeds;
};

// Chung-Lu with hubs: several rounds of real link discovery, so mid-run
// snapshots capture a non-trivial score state.
Workload MakeWorkload(uint64_t rng_seed) {
  Graph g = GenerateChungLu(PowerLawWeights(1200, 2.2, 12.0), rng_seed);
  IndependentSampleOptions options;
  options.s1 = 0.6;
  options.s2 = 0.6;
  Workload w;
  w.pair = SampleIndependent(g, options, rng_seed + 1);
  SeedOptions seeding;
  seeding.fraction = 0.08;
  w.seeds = GenerateSeeds(w.pair, seeding, rng_seed + 2);
  return w;
}

MatchResult RunToCompletion(const Workload& w, const MatcherConfig& config) {
  MatcherState state(w.pair.g1, w.pair.g2, config);
  state.SeedLinks(w.seeds);
  while (!state.Done()) state.RunRound();
  return state.TakeResult(0.0);
}

// The central invariant: snapshot after `pause_after` rounds, restore into
// a brand-new state, run both to completion — identical matchings.
void CheckResumeEquivalence(const Workload& w, const MatcherConfig& config,
                            int pause_after, const std::string& tag) {
  const std::string path = TempPath("resume_" + tag + ".ckpt");

  MatcherState original(w.pair.g1, w.pair.g2, config);
  original.SeedLinks(w.seeds);
  for (int i = 0; i < pause_after && !original.Done(); ++i) {
    original.RunRound();
  }
  std::string error;
  ASSERT_TRUE(original.SaveSnapshot(path, &error)) << error;
  while (!original.Done()) original.RunRound();
  MatchResult uninterrupted = original.TakeResult(0.0);

  MatcherState resumed(w.pair.g1, w.pair.g2, config);
  resumed.SeedLinks(w.seeds);
  ASSERT_TRUE(resumed.LoadSnapshot(path, &error)) << error;
  while (!resumed.Done()) resumed.RunRound();
  MatchResult continued = resumed.TakeResult(0.0);

  ASSERT_EQ(continued.map_1to2, uninterrupted.map_1to2) << tag;
  ASSERT_EQ(continued.map_2to1, uninterrupted.map_2to1) << tag;
  std::remove(path.c_str());
}

TEST(MatcherStateTest, RunRoundReplaysTheDriverScheduleExactly) {
  Workload w = MakeWorkload(9001);
  MatcherConfig config;
  config.num_shards = 4;
  MatchResult via_driver = UserMatching(w.pair.g1, w.pair.g2, w.seeds, config);
  MatchResult via_state = RunToCompletion(w, config);
  ASSERT_GT(via_driver.NumNewLinks(), 0u);
  EXPECT_EQ(via_state.map_1to2, via_driver.map_1to2);
  EXPECT_EQ(via_state.map_2to1, via_driver.map_2to1);
}

TEST(MatcherStateTest, ResumeEquivalenceAcrossBackendsAndPausePoints) {
  Workload w = MakeWorkload(9002);
  for (ScoringBackend backend :
       {ScoringBackend::kRadixSort, ScoringBackend::kHashMap}) {
    for (int pause_after : {1, 3, 7}) {
      MatcherConfig config;
      config.scoring_backend = backend;
      config.num_shards = 4;
      const std::string tag =
          std::string(backend == ScoringBackend::kRadixSort ? "radix"
                                                            : "hash") +
          "_p" + std::to_string(pause_after);
      SCOPED_TRACE(tag);
      CheckResumeEquivalence(w, config, pause_after, tag);
    }
  }
}

TEST(MatcherStateTest, ResumeEquivalenceWithMultiTierLsmStacks) {
  // High tier cap + disabled ratio trigger: snapshots capture stacks of
  // several unmerged tiers, and the restored stacks must replay the same
  // future compaction schedule.
  Workload w = MakeWorkload(9003);
  MatcherConfig config;
  config.scoring_backend = ScoringBackend::kRadixSort;
  config.num_shards = 4;
  config.lsm_max_tiers = 8;
  config.lsm_size_ratio = 0.0;
  CheckResumeEquivalence(w, config, 4, "lsm8");
}

TEST(MatcherStateTest, ResumeEquivalenceWithFiveThreadsSixShards) {
  // Five workers stealing over six shards' cells: the resumed run must stay
  // bit-identical under a steal schedule unlike the default's.
  Workload w = MakeWorkload(9004);
  MatcherConfig config;
  config.num_shards = 6;
  config.num_threads = 5;
  CheckResumeEquivalence(w, config, 3, "t5s6");
}

TEST(MatcherStateTest, SnapshotPortableAcrossExecutionKnobs) {
  // Execution knobs are not fingerprinted: a snapshot taken under one
  // thread count must restore under another and still produce the canonical
  // matching (shard count held fixed — it shapes the persisted score
  // state).
  Workload w = MakeWorkload(9005);
  MatcherConfig writer_config;
  writer_config.num_shards = 4;
  writer_config.num_threads = 5;

  const std::string path = TempPath("portable.ckpt");
  MatcherState original(w.pair.g1, w.pair.g2, writer_config);
  original.SeedLinks(w.seeds);
  original.RunRound();
  original.RunRound();
  std::string error;
  ASSERT_TRUE(original.SaveSnapshot(path, &error)) << error;
  while (!original.Done()) original.RunRound();
  MatchResult uninterrupted = original.TakeResult(0.0);

  MatcherConfig reader_config = writer_config;
  reader_config.num_threads = 1;
  MatcherState resumed(w.pair.g1, w.pair.g2, reader_config);
  resumed.SeedLinks(w.seeds);
  ASSERT_TRUE(resumed.LoadSnapshot(path, &error)) << error;
  while (!resumed.Done()) resumed.RunRound();
  MatchResult continued = resumed.TakeResult(0.0);

  EXPECT_EQ(continued.map_1to2, uninterrupted.map_1to2);
  EXPECT_EQ(continued.map_2to1, uninterrupted.map_2to1);
  std::remove(path.c_str());
}

TEST(MatcherStateTest, RadixSnapshotRoundTripsByteIdentically) {
  // The radix score state serializes canonically (sorted runs, explicit
  // tier boundaries), so save -> load -> save is byte-identical. (The hash
  // backend's table layout may legitimately differ after reload; its
  // resume equivalence is covered above.)
  Workload w = MakeWorkload(9006);
  MatcherConfig config;
  config.scoring_backend = ScoringBackend::kRadixSort;
  config.num_shards = 4;
  config.lsm_max_tiers = 4;

  const std::string first = TempPath("golden_first.ckpt");
  const std::string second = TempPath("golden_second.ckpt");
  MatcherState original(w.pair.g1, w.pair.g2, config);
  original.SeedLinks(w.seeds);
  original.RunRound();
  original.RunRound();
  original.RunRound();
  std::string error;
  ASSERT_TRUE(original.SaveSnapshot(first, &error)) << error;

  MatcherState reloaded(w.pair.g1, w.pair.g2, config);
  reloaded.SeedLinks(w.seeds);
  ASSERT_TRUE(reloaded.LoadSnapshot(first, &error)) << error;
  ASSERT_TRUE(reloaded.SaveSnapshot(second, &error)) << error;

  EXPECT_EQ(Slurp(first), Slurp(second));
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(MatcherStateTest, CursorAccessorsSurviveTheRoundTrip) {
  Workload w = MakeWorkload(9007);
  MatcherConfig config;
  config.num_shards = 4;
  const std::string path = TempPath("cursor.ckpt");

  MatcherState original(w.pair.g1, w.pair.g2, config);
  original.SeedLinks(w.seeds);
  original.RunRound();
  original.RunRound();
  original.RunRound();
  std::string error;
  ASSERT_TRUE(original.SaveSnapshot(path, &error)) << error;

  MatcherState resumed(w.pair.g1, w.pair.g2, config);
  resumed.SeedLinks(w.seeds);
  ASSERT_TRUE(resumed.LoadSnapshot(path, &error)) << error;
  EXPECT_EQ(resumed.completed_rounds(), original.completed_rounds());
  EXPECT_EQ(resumed.iteration(), original.iteration());
  EXPECT_EQ(resumed.current_bucket(), original.current_bucket());
  EXPECT_EQ(resumed.num_links(), original.num_links());
  EXPECT_EQ(resumed.num_seeds(), original.num_seeds());
  std::remove(path.c_str());
}

// --- Rejection paths ------------------------------------------------------

class SnapshotRejectionTest : public testing::Test {
 protected:
  void SetUp() override {
    w_ = MakeWorkload(9008);
    config_.num_shards = 4;
    path_ = TempPath("reject.ckpt");
    MatcherState state(w_.pair.g1, w_.pair.g2, config_);
    state.SeedLinks(w_.seeds);
    state.RunRound();
    state.RunRound();
    std::string error;
    ASSERT_TRUE(state.SaveSnapshot(path_, &error)) << error;
  }
  void TearDown() override { std::remove(path_.c_str()); }

  // Loads `path` into a fresh state; on expected failure, verifies the
  // state is untouched by checking it still finishes like a never-loaded
  // run.
  void ExpectRejectedAndStateIntact(const std::string& path,
                                    const std::string& why_substring) {
    MatcherState state(w_.pair.g1, w_.pair.g2, config_);
    state.SeedLinks(w_.seeds);
    std::string error;
    ASSERT_FALSE(state.LoadSnapshot(path, &error));
    EXPECT_NE(error.find(why_substring), std::string::npos) << error;
    EXPECT_EQ(state.completed_rounds(), 0);
    EXPECT_EQ(state.num_links(), w_.seeds.size());
    while (!state.Done()) state.RunRound();
    MatchResult after_rejection = state.TakeResult(0.0);
    MatchResult reference = RunToCompletion(w_, config_);
    EXPECT_EQ(after_rejection.map_1to2, reference.map_1to2);
  }

  Workload w_;
  MatcherConfig config_;
  std::string path_;
};

TEST_F(SnapshotRejectionTest, TruncatedSnapshotRejected) {
  const std::vector<char> whole = Slurp(path_);
  const std::string cut = TempPath("reject_cut.ckpt");
  std::ofstream(cut, std::ios::binary)
      .write(whole.data(), static_cast<std::streamsize>(whole.size() / 2));
  ExpectRejectedAndStateIntact(cut, "");
  std::remove(cut.c_str());
}

TEST_F(SnapshotRejectionTest, BitFlippedSnapshotRejected) {
  std::vector<char> bytes = Slurp(path_);
  bytes[bytes.size() / 2] ^= 0x40;  // lands in a section payload
  const std::string flipped = TempPath("reject_flip.ckpt");
  std::ofstream(flipped, std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ExpectRejectedAndStateIntact(flipped, "");
  std::remove(flipped.c_str());
}

TEST_F(SnapshotRejectionTest, WrongGraphRejected) {
  Workload other = MakeWorkload(777);
  MatcherState state(other.pair.g1, other.pair.g2, config_);
  std::vector<std::pair<NodeId, NodeId>> seeds = {{0, 0}};
  state.SeedLinks(seeds);
  std::string error;
  ASSERT_FALSE(state.LoadSnapshot(path_, &error));
  EXPECT_NE(error.find("different graph"), std::string::npos) << error;
}

TEST_F(SnapshotRejectionTest, WrongConfigRejected) {
  MatcherConfig other = config_;
  other.min_score = config_.min_score + 3;
  MatcherState state(w_.pair.g1, w_.pair.g2, other);
  state.SeedLinks(w_.seeds);
  std::string error;
  ASSERT_FALSE(state.LoadSnapshot(path_, &error));
  EXPECT_NE(error.find("config mismatch"), std::string::npos) << error;
}

TEST_F(SnapshotRejectionTest, WrongBackendRejected) {
  MatcherConfig other = config_;
  other.scoring_backend = config_.scoring_backend == ScoringBackend::kRadixSort
                              ? ScoringBackend::kHashMap
                              : ScoringBackend::kRadixSort;
  MatcherState state(w_.pair.g1, w_.pair.g2, other);
  state.SeedLinks(w_.seeds);
  std::string error;
  ASSERT_FALSE(state.LoadSnapshot(path_, &error));
  EXPECT_NE(error.find("config mismatch"), std::string::npos) << error;
}

TEST_F(SnapshotRejectionTest, WrongShardCountRejected) {
  MatcherConfig other = config_;
  other.num_shards = config_.num_shards + 1;
  MatcherState state(w_.pair.g1, w_.pair.g2, other);
  state.SeedLinks(w_.seeds);
  std::string error;
  ASSERT_FALSE(state.LoadSnapshot(path_, &error));
  EXPECT_NE(error.find("config mismatch"), std::string::npos) << error;
}

TEST_F(SnapshotRejectionTest, WrongSeedsRejected) {
  MatcherState state(w_.pair.g1, w_.pair.g2, config_);
  std::vector<std::pair<NodeId, NodeId>> seeds(w_.seeds.begin(),
                                               w_.seeds.end() - 1);
  state.SeedLinks(seeds);
  std::string error;
  ASSERT_FALSE(state.LoadSnapshot(path_, &error));
  EXPECT_NE(error.find("seed"), std::string::npos) << error;
}

TEST_F(SnapshotRejectionTest, MissingFileRejected) {
  MatcherState state(w_.pair.g1, w_.pair.g2, config_);
  state.SeedLinks(w_.seeds);
  std::string error;
  ASSERT_FALSE(state.LoadSnapshot(TempPath("no_such.ckpt"), &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace reconcile
