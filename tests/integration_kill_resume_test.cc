// End-to-end crash safety: a matcher process killed mid-run by an injected
// crash fault must, when restarted with --resume semantics, finish with a
// matching byte-identical to an uninterrupted 1-thread run — across thread
// counts, including a resume under another thread count than the crash.
// Corrupt checkpoints must fall back to older ones (to a fresh start when
// none survives), an injected checkpoint-write failure must only cost a
// recovery point, and a graceful stop must exit cleanly with a resumable
// partial state.
//
// Process discipline: the parent NEVER builds a workload or runs the
// matcher (both spawn the shared thread pool, and forking a threaded
// process is undefined behaviour waiting to happen). Every matcher run —
// crashing, resuming or clean — happens in a forked child that regenerates
// its inputs deterministically and writes its matching to a file; the
// parent only forks, waits and compares bytes.
#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/core/matcher.h"
#include "reconcile/eval/match_io.h"
#include "reconcile/gen/chung_lu.h"
#include "reconcile/sampling/independent.h"
#include "reconcile/seed/seeding.h"
#include "reconcile/util/checkpoint.h"
#include "reconcile/util/fault.h"
#include "scratch_path.h"

namespace reconcile {
namespace {

constexpr uint64_t kWorkloadSeed = 4242;

std::vector<char> Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void RemoveTree(const std::string& dir) {
  for (const CheckpointFile& file : ListCheckpoints(dir, kMatcherCheckpointPrefix)) {
    std::remove(file.path.c_str());
  }
  ::rmdir(dir.c_str());
}

// Removes every regular file in `dir` then the directory itself; returns
// how many files were swept (used to observe stale spill scratch a crash
// left behind).
size_t SweepDir(const std::string& dir) {
  size_t swept = 0;
  if (DIR* handle = ::opendir(dir.c_str())) {
    while (dirent* entry = ::readdir(handle)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      ::unlink((dir + "/" + name).c_str());
      ++swept;
    }
    ::closedir(handle);
  }
  ::rmdir(dir.c_str());
  return swept;
}

size_t CountDirEntries(const std::string& dir) {
  size_t n = 0;
  if (DIR* handle = ::opendir(dir.c_str())) {
    while (dirent* entry = ::readdir(handle)) {
      const std::string name = entry->d_name;
      if (name != "." && name != "..") ++n;
    }
    ::closedir(handle);
  }
  return n;
}

struct ChildSpec {
  MatcherConfig config;
  std::string fault_spec;    // armed in the child before the run
  std::string matching_out;  // empty: the child writes no matching
  std::string rounds_out;    // empty: the child writes no round count
};

// CHILD-ONLY code path: regenerates the workload and runs the matcher.
void ChildMain(const ChildSpec& spec) {
  if (!spec.fault_spec.empty()) {
    std::string error;
    if (!ArmFaults(spec.fault_spec, &error)) _exit(9);
  }
  Graph g = GenerateChungLu(PowerLawWeights(1000, 2.2, 12.0), kWorkloadSeed);
  IndependentSampleOptions options;
  options.s1 = 0.6;
  options.s2 = 0.6;
  RealizationPair pair = SampleIndependent(g, options, kWorkloadSeed + 1);
  SeedOptions seeding;
  seeding.fraction = 0.08;
  auto seeds = GenerateSeeds(pair, seeding, kWorkloadSeed + 2);

  MatchResult result = UserMatching(pair.g1, pair.g2, seeds, spec.config);
  if (!spec.matching_out.empty() &&
      !WriteMatchingText(result, spec.matching_out)) {
    _exit(3);
  }
  // A resumed run reports only the rounds it ran after the snapshot.
  if (!spec.rounds_out.empty()) {
    std::ofstream(spec.rounds_out) << result.phases.size();
  }
  _exit(0);
}

// Forks, runs `spec` in the child, returns the child's exit code (or -1 if
// it died on a signal).
int RunChild(const ChildSpec& spec) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    ChildMain(spec);  // never returns
  }
  if (pid < 0) return -1;
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  if (WIFSIGNALED(status)) return -1;
  return WEXITSTATUS(status);
}

MatcherConfig WithThreads(int threads) {
  MatcherConfig config;
  config.num_threads = threads;
  return config;
}

size_t ReadCount(const std::string& path) {
  size_t count = 0;
  std::ifstream(path) >> count;
  return count;
}

// One crash/resume cycle: clean 1-thread run -> file A; crash run (must die
// with the fault exit code, leaving checkpoints); resume run under another
// thread count -> file B; A == B. The resume must really load a snapshot:
// the score partition is sized by the graph, so no thread count can make
// the checkpoints mismatch, and a fresh start would run every round again.
void CheckKillResume(const MatcherConfig& base, const std::string& tag) {
  const std::string dir = ScratchPath("kr_" + tag);
  const std::string clean_out = ScratchPath("kr_" + tag + "_clean.txt");
  const std::string resumed_out = ScratchPath("kr_" + tag + "_resumed.txt");
  const std::string clean_rounds = ScratchPath("kr_" + tag + "_clean.rounds");
  const std::string resumed_rounds = ScratchPath("kr_" + tag + "_resumed.rounds");

  ChildSpec clean;
  clean.config = base;
  clean.config.num_threads = 1;
  clean.matching_out = clean_out;
  clean.rounds_out = clean_rounds;
  ASSERT_EQ(RunChild(clean), 0) << tag;

  ChildSpec crash;
  crash.config = base;
  crash.config.checkpoint_dir = dir;
  crash.fault_spec = "crash:after_round=5";
  ASSERT_EQ(RunChild(crash), kFaultCrashExitCode) << tag;
  ASSERT_FALSE(ListCheckpoints(dir, kMatcherCheckpointPrefix).empty()) << tag;

  ChildSpec resume;
  resume.config = base;
  resume.config.num_threads = base.num_threads == 2 ? 5 : 2;
  resume.config.checkpoint_dir = dir;
  resume.config.resume = true;
  resume.matching_out = resumed_out;
  resume.rounds_out = resumed_rounds;
  ASSERT_EQ(RunChild(resume), 0) << tag;

  const std::vector<char> clean_bytes = Slurp(clean_out);
  ASSERT_FALSE(clean_bytes.empty()) << tag;
  EXPECT_EQ(Slurp(resumed_out), clean_bytes)
      << tag << ": resumed matching differs from the uninterrupted run";
  ASSERT_GT(ReadCount(clean_rounds), 0u) << tag;
  EXPECT_LT(ReadCount(resumed_rounds), ReadCount(clean_rounds))
      << tag << ": the resume started from the seeds, not a checkpoint";

  RemoveTree(dir);
  std::remove(clean_out.c_str());
  std::remove(resumed_out.c_str());
  std::remove(clean_rounds.c_str());
  std::remove(resumed_rounds.c_str());
}

// Two thread counts, each resumed under the other, so the crashed and
// resumed runs see different claim orders than the 1-thread reference.
TEST(KillResumeTest, ResumeBitIdentical) {
  CheckKillResume(WithThreads(2), "t2");
  CheckKillResume(WithThreads(5), "t5");
}

TEST(KillResumeTest, CheckpointWriteFailureOnlyCostsARecoveryPoint) {
  // The 3rd checkpoint write fails (injected); the run then crashes after
  // round 5. Recovery resumes from the newest surviving snapshot and
  // replays the lost rounds — the final matching is still identical.
  MatcherConfig base = WithThreads(4);
  const std::string dir = ScratchPath("kr_writefail");
  const std::string clean_out = ScratchPath("kr_writefail_clean.txt");
  const std::string resumed_out = ScratchPath("kr_writefail_resumed.txt");

  ChildSpec clean;
  clean.config = base;
  clean.matching_out = clean_out;
  ASSERT_EQ(RunChild(clean), 0);

  ChildSpec crash;
  crash.config = base;
  crash.config.checkpoint_dir = dir;
  crash.fault_spec =
      "io:checkpoint_write_fail=3;crash:after_round=5";
  ASSERT_EQ(RunChild(crash), kFaultCrashExitCode);
  const std::vector<CheckpointFile> left = ListCheckpoints(dir, kMatcherCheckpointPrefix);
  ASSERT_FALSE(left.empty());
  EXPECT_LT(left.back().round, 5) << "round 3's write was injected to fail";

  ChildSpec resume;
  resume.config = base;
  resume.config.checkpoint_dir = dir;
  resume.config.resume = true;
  resume.matching_out = resumed_out;
  ASSERT_EQ(RunChild(resume), 0);
  EXPECT_EQ(Slurp(resumed_out), Slurp(clean_out));

  RemoveTree(dir);
  std::remove(clean_out.c_str());
  std::remove(resumed_out.c_str());
}

TEST(KillResumeTest, CorruptNewestCheckpointFallsBackToOlder) {
  MatcherConfig base = WithThreads(4);
  const std::string dir = ScratchPath("kr_corrupt");
  const std::string clean_out = ScratchPath("kr_corrupt_clean.txt");
  const std::string resumed_out = ScratchPath("kr_corrupt_resumed.txt");

  ChildSpec clean;
  clean.config = base;
  clean.matching_out = clean_out;
  ASSERT_EQ(RunChild(clean), 0);

  ChildSpec crash;
  crash.config = base;
  crash.config.checkpoint_dir = dir;
  crash.fault_spec = "crash:after_round=5";
  ASSERT_EQ(RunChild(crash), kFaultCrashExitCode);
  std::vector<CheckpointFile> files = ListCheckpoints(dir, kMatcherCheckpointPrefix);
  ASSERT_GE(files.size(), 2u);

  // Truncate the newest snapshot to half — a torn write survived a crash.
  {
    const std::string& victim = files.back().path;
    std::vector<char> bytes = Slurp(victim);
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }

  ChildSpec resume;
  resume.config = base;
  resume.config.checkpoint_dir = dir;
  resume.config.resume = true;
  resume.matching_out = resumed_out;
  ASSERT_EQ(RunChild(resume), 0)
      << "a corrupt checkpoint must be skipped, not fatal";
  EXPECT_EQ(Slurp(resumed_out), Slurp(clean_out));

  RemoveTree(dir);
  std::remove(clean_out.c_str());
  std::remove(resumed_out.c_str());
}

TEST(KillResumeTest, AllCheckpointsCorruptFallsBackToFreshStart) {
  MatcherConfig base = WithThreads(4);
  const std::string dir = ScratchPath("kr_allcorrupt");
  const std::string clean_out = ScratchPath("kr_allcorrupt_clean.txt");
  const std::string resumed_out = ScratchPath("kr_allcorrupt_resumed.txt");

  ChildSpec clean;
  clean.config = base;
  clean.matching_out = clean_out;
  ASSERT_EQ(RunChild(clean), 0);

  ChildSpec crash;
  crash.config = base;
  crash.config.checkpoint_dir = dir;
  crash.fault_spec = "crash:after_round=4";
  ASSERT_EQ(RunChild(crash), kFaultCrashExitCode);

  // Garbage in every snapshot: resume must warn, fall back to the seeds,
  // and still finish — determinism makes even the fresh start identical.
  for (const CheckpointFile& file : ListCheckpoints(dir, kMatcherCheckpointPrefix)) {
    std::ofstream(file.path, std::ios::binary | std::ios::trunc)
        << "not a snapshot";
  }

  ChildSpec resume;
  resume.config = base;
  resume.config.checkpoint_dir = dir;
  resume.config.resume = true;
  resume.matching_out = resumed_out;
  ASSERT_EQ(RunChild(resume), 0);
  EXPECT_EQ(Slurp(resumed_out), Slurp(clean_out));

  RemoveTree(dir);
  std::remove(clean_out.c_str());
  std::remove(resumed_out.c_str());
}

TEST(KillResumeTest, GracefulStopCheckpointsAndResumes) {
  // `stop:` is the deterministic stand-in for SIGTERM: the run finishes its
  // round, writes a final checkpoint, exits 0 with a partial matching; a
  // resume run completes it identically to a never-stopped run.
  MatcherConfig base = WithThreads(4);
  const std::string dir = ScratchPath("kr_stop");
  const std::string clean_out = ScratchPath("kr_stop_clean.txt");
  const std::string partial_out = ScratchPath("kr_stop_partial.txt");
  const std::string resumed_out = ScratchPath("kr_stop_resumed.txt");

  ChildSpec clean;
  clean.config = base;
  clean.matching_out = clean_out;
  ASSERT_EQ(RunChild(clean), 0);

  ChildSpec stop;
  stop.config = base;
  stop.config.checkpoint_dir = dir;
  stop.config.checkpoint_every_rounds = 100;  // only the stop writes one
  stop.fault_spec = "stop:after_round=2";
  stop.matching_out = partial_out;
  ASSERT_EQ(RunChild(stop), 0) << "graceful stop must exit cleanly";
  const std::vector<CheckpointFile> files = ListCheckpoints(dir, kMatcherCheckpointPrefix);
  ASSERT_EQ(files.size(), 1u) << "the stop must flush a final checkpoint";
  EXPECT_EQ(files[0].round, 2);
  // The partial matching exists but is shorter than the full one.
  ASSERT_FALSE(Slurp(partial_out).empty());
  EXPECT_LT(Slurp(partial_out).size(), Slurp(clean_out).size());

  ChildSpec resume;
  resume.config = base;
  resume.config.checkpoint_dir = dir;
  resume.config.checkpoint_every_rounds = 100;
  resume.config.resume = true;
  resume.matching_out = resumed_out;
  ASSERT_EQ(RunChild(resume), 0);
  EXPECT_EQ(Slurp(resumed_out), Slurp(clean_out));

  RemoveTree(dir);
  std::remove(clean_out.c_str());
  std::remove(partial_out.c_str());
  std::remove(resumed_out.c_str());
}

TEST(KillResumeTest, CrashMidSpillResumesFromSpilledCheckpoint) {
  // A 1-byte budget makes every round spill its whole score state, and the
  // `crash:spill_commit=N` value point kills the process immediately after
  // the N-th successful spill — mid-way through a budget-enforcement pass,
  // with earlier rounds already checkpointed while their stores were
  // spilled. The resume (also budgeted) must reload the newest surviving
  // snapshot, re-spill on its next round, and finish byte-identical to an
  // UNBUDGETED clean run — proving both crash recovery and that the
  // checkpoint format is representation-independent.
  MatcherConfig base = WithThreads(4);
  const std::string dir = ScratchPath("kr_spill");
  const std::string scratch = ScratchPath("kr_spill_scratch");
  const std::string clean_out = ScratchPath("kr_spill_clean.txt");
  const std::string resumed_out = ScratchPath("kr_spill_resumed.txt");
  std::string error;
  ASSERT_TRUE(EnsureDir(scratch, &error)) << error;

  ChildSpec clean;
  clean.config = base;  // unbudgeted reference
  clean.matching_out = clean_out;
  ASSERT_EQ(RunChild(clean), 0);

  MatcherConfig budgeted = base;
  budgeted.memory_budget_bytes = 1;
  budgeted.score_dir = scratch;
  budgeted.checkpoint_dir = dir;

  ChildSpec crash;
  crash.config = budgeted;
  crash.fault_spec = "crash:spill_commit=40";
  ASSERT_EQ(RunChild(crash), kFaultCrashExitCode);
  ASSERT_FALSE(ListCheckpoints(dir, kMatcherCheckpointPrefix).empty())
      << "the crash must land after at least one checkpoint";
  // A hard crash is the one case that leaves spill scratch behind (the
  // mapped runs were alive when the process died).
  EXPECT_GT(CountDirEntries(scratch), 0u);

  ChildSpec resume;
  resume.config = budgeted;
  resume.config.resume = true;
  resume.matching_out = resumed_out;
  ASSERT_EQ(RunChild(resume), 0);
  EXPECT_EQ(Slurp(resumed_out), Slurp(clean_out))
      << "budgeted resume diverged from the unbudgeted clean run";

  RemoveTree(dir);
  SweepDir(scratch);
  std::remove(clean_out.c_str());
  std::remove(resumed_out.c_str());
}

TEST(KillResumeTest, CheckpointRetentionKeepsNewestAndStillResumes) {
  // checkpoint_keep=2 prunes after every successful write; a finished run
  // leaves exactly the two newest snapshots, and a crash/resume cycle under
  // the same retention still recovers (the newest surviving snapshot is by
  // construction inside the retained window).
  MatcherConfig base = WithThreads(4);
  base.checkpoint_keep = 2;
  const std::string dir = ScratchPath("kr_keep");
  const std::string clean_out = ScratchPath("kr_keep_clean.txt");
  const std::string resumed_out = ScratchPath("kr_keep_resumed.txt");

  ChildSpec clean;
  clean.config = base;
  clean.config.checkpoint_dir = dir;
  clean.matching_out = clean_out;
  ASSERT_EQ(RunChild(clean), 0);
  std::vector<CheckpointFile> files = ListCheckpoints(dir, kMatcherCheckpointPrefix);
  ASSERT_EQ(files.size(), 2u) << "retention must prune to the newest 2";
  EXPECT_EQ(files[1].round, files[0].round + 1)
      << "the survivors must be the newest consecutive snapshots";

  ChildSpec resume;
  resume.config = base;
  resume.config.checkpoint_dir = dir;
  resume.config.resume = true;
  resume.matching_out = resumed_out;
  ASSERT_EQ(RunChild(resume), 0);
  EXPECT_EQ(Slurp(resumed_out), Slurp(clean_out));

  RemoveTree(dir);
  std::remove(clean_out.c_str());
  std::remove(resumed_out.c_str());
}

}  // namespace
}  // namespace reconcile
