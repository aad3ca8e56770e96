// MatcherState as a resumable object: a snapshot taken between rounds must
// restore into a state that finishes with a matching bit-identical to the
// uninterrupted run — across pause points and thread counts — and every
// corruption or mismatch (truncation, bit flips, wrong graph, wrong config,
// wrong seeds, an older state version) must be a clean LoadSnapshot failure
// that leaves the state untouched. A snapshot holds the round cursor and the
// link log only; the score cells are rebuilt from the links on load.
#include "reconcile/core/matcher_state.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/core/matcher.h"
#include "reconcile/gen/chung_lu.h"
#include "reconcile/sampling/independent.h"
#include "reconcile/seed/seeding.h"
#include "reconcile/util/checkpoint.h"
#include "scratch_path.h"
#include "spread_ids.h"

namespace reconcile {
namespace {

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
  const std::string path = ScratchPath("resume_" + tag + ".ckpt");

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
  MatchResult via_driver = UserMatching(w.pair.g1, w.pair.g2, w.seeds, config);
  MatchResult via_state = RunToCompletion(w, config);
  ASSERT_GT(via_driver.NumNewLinks(), 0u);
  EXPECT_EQ(via_state.map_1to2, via_driver.map_1to2);
  EXPECT_EQ(via_state.map_2to1, via_driver.map_2to1);
}

TEST(MatcherStateTest, ResumeEquivalenceAcrossPausePoints) {
  Workload w = MakeWorkload(9002);
  for (int pause_after : {1, 3, 7}) {
    const std::string tag = "p" + std::to_string(pause_after);
    SCOPED_TRACE(tag);
    CheckResumeEquivalence(w, MatcherConfig{}, pause_after, tag);
  }
}

TEST(MatcherStateTest, ResumeEquivalenceWithFiveThreadsWidePartition) {
  // Five workers claiming over a wide partition: g1's ids spread 128-fold
  // (`spread_ids.h`) resolve to the 256-shard cap, so the load rebuilds
  // 33 x 256 score cells and the resumed run must stay bit-identical under a
  // claim order unlike the default's.
  Workload w = MakeWorkload(9004);
  constexpr NodeId kStride = 128;
  w.pair.g1 = SpreadIds(w.pair.g1, kStride);
  w.seeds = SpreadSeeds(w.seeds, kStride);
  MatcherConfig config;
  config.num_threads = 5;
  CheckResumeEquivalence(w, config, 3, "t5wide");
}

TEST(MatcherStateTest, SnapshotPortableAcrossExecutionKnobs) {
  // Execution knobs are not fingerprinted: a snapshot taken under one
  // thread count must restore under another and still produce the canonical
  // matching. The snapshot holds no score state, and the shard width comes
  // from g1's node count, so no thread count can change what a resumed run
  // computes.
  Workload w = MakeWorkload(9005);
  MatcherConfig writer_config;
  writer_config.num_threads = 5;

  const std::string path = ScratchPath("portable.ckpt");
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

TEST(MatcherStateTest, SnapshotRoundTripsByteIdentically) {
  // A snapshot is the round cursor and the link log, so save -> load ->
  // save is byte-identical.
  Workload w = MakeWorkload(9006);
  MatcherConfig config;

  const std::string first = ScratchPath("golden_first.ckpt");
  const std::string second = ScratchPath("golden_second.ckpt");
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

// Only the cursor and the link log are durable: a snapshot holds META and
// LINKS and nothing else, so a run whose score cells spilled under a 1-byte
// memory budget writes the same bytes as an unbudgeted run at the same
// round.
TEST(MatcherStateTest, SnapshotHoldsOnlyMetaAndLinks) {
  Workload w = MakeWorkload(9009);
  const std::string spill_dir = ScratchPath("sections_spill");
  MatcherConfig budgeted;
  budgeted.memory_budget_bytes = 1;
  budgeted.score_dir = spill_dir;
  const std::string plain = ScratchPath("sections_plain.ckpt");
  const std::string budget = ScratchPath("sections_budget.ckpt");
  size_t tiers_spilled = 0;
  for (const bool with_budget : {false, true}) {
    MatcherState state(w.pair.g1, w.pair.g2,
                       with_budget ? budgeted : MatcherConfig{});
    state.SeedLinks(w.seeds);
    for (int i = 0; i < 4; ++i) state.RunRound();
    std::string error;
    ASSERT_TRUE(state.SaveSnapshot(with_budget ? budget : plain, &error))
        << error;
    for (const PhaseStats& phase : state.TakeResult(0.0).phases) {
      tiers_spilled += phase.tiers_spilled;
    }
  }
  EXPECT_GT(tiers_spilled, 0u) << "the budgeted run never spilled";

  SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(reader.Open(plain, &error)) << error;
  EXPECT_EQ(reader.num_sections(), 2u);
  EXPECT_NE(reader.Find(1), nullptr) << "META";
  EXPECT_NE(reader.Find(2), nullptr) << "LINKS";
  EXPECT_EQ(Slurp(budget), Slurp(plain));
  std::remove(plain.c_str());
  std::remove(budget.c_str());
  std::remove(spill_dir.c_str());
}

TEST(MatcherStateTest, CursorAccessorsSurviveTheRoundTrip) {
  Workload w = MakeWorkload(9007);
  MatcherConfig config;
  const std::string path = ScratchPath("cursor.ckpt");

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

// Writes the snapshot at `from` as state version 2 laid it out: version
// word 2, the shard width after META's config fingerprint (version u32,
// (nodes, edges, fingerprint) u64 per graph, threshold u32, iterations i32,
// bucketing u8, min bucket exponent i32, stop-when-stable u8), and a SCORES
// section (id 4) after LINKS. This one is one shard wide, and each of its
// 33 levels holds an empty tier stack.
void WriteAsVersion2(const std::string& from, const std::string& to) {
  constexpr size_t kWidthOffset = 4 + 6 * 8 + 4 + 4 + 1 + 4 + 1;
  SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(reader.Open(from, &error)) << error;
  SnapshotWriter writer;
  for (uint32_t id : {1u, 2u}) {
    SnapshotReader::Section* section = reader.Find(id);
    ASSERT_NE(section, nullptr) << "section " << id;
    std::vector<char> payload(section->Remaining());
    ASSERT_TRUE(section->ReadBytes(payload.data(), payload.size()));
    if (id == 1) {
      const uint32_t version = 2;
      std::memcpy(payload.data(), &version, sizeof(version));
      const int32_t width = 1;
      char width_bytes[sizeof(width)];
      std::memcpy(width_bytes, &width, sizeof(width));
      payload.insert(payload.begin() + kWidthOffset, width_bytes,
                     width_bytes + sizeof(width_bytes));
    }
    writer.BeginSection(id);
    writer.AppendBytes(payload.data(), payload.size());
    writer.EndSection();
  }
  writer.BeginSection(4);
  for (int level = 0; level < 33; ++level) writer.AppendU32(0);
  writer.EndSection();
  ASSERT_TRUE(writer.Commit(to, &error)) << error;
}

class SnapshotRejectionTest : public testing::Test {
 protected:
  void SetUp() override {
    w_ = MakeWorkload(9008);
    path_ = ScratchPath("reject.ckpt");
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
  const std::string cut = ScratchPath("reject_cut.ckpt");
  std::ofstream(cut, std::ios::binary)
      .write(whole.data(), static_cast<std::streamsize>(whole.size() / 2));
  ExpectRejectedAndStateIntact(cut, "");
  std::remove(cut.c_str());
}

TEST_F(SnapshotRejectionTest, BitFlippedSnapshotRejected) {
  std::vector<char> bytes = Slurp(path_);
  bytes[bytes.size() / 2] ^= 0x40;  // lands in a section payload
  const std::string flipped = ScratchPath("reject_flip.ckpt");
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

// Version 3 dropped the score section and the shard width; a version-2
// file is rejected with one message naming the version.
TEST_F(SnapshotRejectionTest, OlderStateVersionRejected) {
  const std::string old = ScratchPath("reject_v2.ckpt");
  WriteAsVersion2(path_, old);
  ExpectRejectedAndStateIntact(old, "matcher state version 2 (want 3)");
  std::remove(old.c_str());
}

// `--resume` skips a version-2 file like any unusable snapshot: it falls
// back to the next-older one, or to a fresh start when none is left, and
// the matching is the uninterrupted run's.
TEST_F(SnapshotRejectionTest, ResumeFallsBackPastOlderStateVersion) {
  const MatchResult reference = RunToCompletion(w_, config_);
  for (bool with_older_snapshot : {true, false}) {
    SCOPED_TRACE("with_older_snapshot=" + std::to_string(with_older_snapshot));
    const std::string dir =
        ScratchPath("v2_resume_" + std::to_string(with_older_snapshot));
    std::string error;
    ASSERT_TRUE(EnsureDir(dir, &error)) << error;
    // Round 999999 stays the newest file whatever the resumed run writes.
    WriteAsVersion2(path_, CheckpointPath(dir, kMatcherCheckpointPrefix, 999999));
    if (with_older_snapshot) {
      const std::vector<char> bytes = Slurp(path_);
      std::ofstream(CheckpointPath(dir, kMatcherCheckpointPrefix, 2), std::ios::binary)
          .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    MatcherConfig config = config_;
    config.checkpoint_dir = dir;
    config.resume = true;
    const MatchResult resumed =
        UserMatching(w_.pair.g1, w_.pair.g2, w_.seeds, config);
    EXPECT_EQ(resumed.map_1to2, reference.map_1to2);
    EXPECT_EQ(resumed.map_2to1, reference.map_2to1);
    // A run resumed after two rounds records only the rounds it ran.
    EXPECT_EQ(resumed.phases.size() + (with_older_snapshot ? 2 : 0),
              reference.phases.size());
    for (const CheckpointFile& file : ListCheckpoints(dir, kMatcherCheckpointPrefix)) {
      std::remove(file.path.c_str());
    }
    std::remove(dir.c_str());
  }
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
  ASSERT_FALSE(state.LoadSnapshot(ScratchPath("no_such.ckpt"), &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace reconcile
