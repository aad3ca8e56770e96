// End-to-end crash safety for the serve subsystem: a serve session killed
// mid-batch (the `serve_apply` value point fires after the batch's graphs
// replaced the session's but BEFORE the matcher re-ran on them — the graphs
// are new, the matching is the previous batch's) must, when resumed from
// its newest checkpoint, fast-forward the delta stream past the records
// the snapshot already consumed, re-apply the lost batch and finish with a
// matching byte-identical to a never-killed session. Same fork discipline
// as integration_kill_resume_test: the parent never builds a workload or
// spawns the thread pool; children regenerate everything
// deterministically.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/eval/match_io.h"
#include "reconcile/gen/chung_lu.h"
#include "reconcile/sampling/independent.h"
#include "reconcile/seed/seeding.h"
#include "reconcile/serve/delta_log.h"
#include "reconcile/serve/incremental_matcher.h"
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

void RemoveServeTree(const std::string& dir) {
  for (const CheckpointFile& file :
       ListCheckpoints(dir, kServeCheckpointPrefix)) {
    std::remove(file.path.c_str());
  }
  ::rmdir(dir.c_str());
}

// Deterministic delta script over the deterministic workload: deletes of
// present edges, fresh inserts, re-inserts, and node growth, 5 batches.
std::vector<std::vector<EdgeDelta>> MakeScript(const RealizationPair& pair) {
  std::mt19937 rng(kWorkloadSeed + 7);
  std::set<std::pair<NodeId, NodeId>> edges1, edges2;
  for (NodeId u = 0; u < pair.g1.num_nodes(); ++u) {
    for (NodeId v : pair.g1.Neighbors(u)) {
      if (u < v) edges1.insert({u, v});
    }
  }
  for (NodeId u = 0; u < pair.g2.num_nodes(); ++u) {
    for (NodeId v : pair.g2.Neighbors(u)) {
      if (u < v) edges2.insert({u, v});
    }
  }
  std::vector<std::vector<EdgeDelta>> script;
  std::vector<std::pair<NodeId, NodeId>> deleted;
  for (int b = 0; b < 5; ++b) {
    std::vector<EdgeDelta> batch;
    auto push = [&](int graph, bool insert, NodeId u, NodeId v) {
      batch.push_back(EdgeDelta{graph, insert, u, v});
    };
    for (int g = 1; g <= 2; ++g) {
      auto& edges = g == 1 ? edges1 : edges2;
      const NodeId n =
          g == 1 ? pair.g1.num_nodes() : pair.g2.num_nodes();
      std::vector<std::pair<NodeId, NodeId>> present(edges.begin(),
                                                     edges.end());
      for (int i = 0; i < 10 && !present.empty(); ++i) {
        const auto edge = present[rng() % present.size()];
        if (edges.erase(edge) == 0) continue;
        deleted.push_back(edge);
        push(g, false, edge.first, edge.second);
      }
      for (int i = 0; i < 8; ++i) {
        const NodeId u = rng() % n;
        const NodeId v = rng() % n;
        if (u != v) push(g, true, u, v);
      }
      if (b >= 2 && !deleted.empty()) {
        const auto edge = deleted[rng() % deleted.size()];
        push(g, true, edge.first, edge.second);
      }
    }
    if (b == 3) push(1, true, pair.g1.num_nodes() + 3, 0);
    script.push_back(std::move(batch));
  }
  return script;
}

void WriteDeltaLog(const std::string& path,
                   const std::vector<std::vector<EdgeDelta>>& script) {
  std::ofstream out(path, std::ios::trunc);
  for (const auto& batch : script) {
    for (const EdgeDelta& d : batch) {
      out << (d.insert ? "add " : "del ") << d.graph << " " << d.u << " "
          << d.v << "\n";
    }
    out << "commit\n";
  }
}

struct ChildSpec {
  std::string checkpoint_dir;  // empty: no checkpointing
  bool resume = false;
  std::string fault_spec;
  std::string matching_out;
  std::string delta_log;
  int threads = 4;
};

// CHILD-ONLY: regenerates the workload and delta log, runs a serve session
// end to end with per-batch checkpoints (driver logic, in-process).
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
  const auto script = MakeScript(pair);
  WriteDeltaLog(spec.delta_log, script);

  ServeConfig config;
  config.matcher.num_threads = spec.threads;
  IncrementalMatcher matcher(pair.g1, pair.g2, seeds, config);

  bool resumed = false;
  if (spec.resume) {
    resumed = !ResumeFromNewestCheckpoint(
                   spec.checkpoint_dir, kServeCheckpointPrefix, /*keep=*/0,
                   [&matcher](const std::string& path, std::string* error) {
                     return matcher.LoadSnapshot(path, error);
                   })
                   .empty();
    if (!resumed) _exit(8);
  }

  DeltaReader reader;
  std::string error;
  if (!reader.Open(spec.delta_log, &error)) _exit(4);
  if (matcher.deltas_consumed() > 0 &&
      !reader.SkipRecords(matcher.deltas_consumed(), &error)) {
    _exit(5);
  }
  auto checkpoint = [&] {
    if (spec.checkpoint_dir.empty()) return;
    matcher.set_deltas_consumed(reader.records_consumed());
    if (!WriteCheckpoint(
            spec.checkpoint_dir, kServeCheckpointPrefix,
            matcher.batches_applied(), /*keep=*/0,
            [&matcher](const std::string& path, std::string* save_error) {
              return matcher.SaveSnapshot(path, save_error);
            })) {
      _exit(7);
    }
  };

  if (!resumed) {
    matcher.ApplyBatch({});
    checkpoint();
  }
  while (true) {
    std::vector<EdgeDelta> batch;
    bool end_of_stream = false;
    if (!reader.NextBatch(0, &batch, &end_of_stream, &error)) _exit(6);
    if (!batch.empty()) {
      matcher.ApplyBatch(batch);
      checkpoint();
    }
    if (end_of_stream) break;
  }
  if (!spec.matching_out.empty() &&
      !WriteMatchingText(matcher.Result(), spec.matching_out)) {
    _exit(3);
  }
  _exit(0);
}

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

// One cycle per crash point. serve_apply=N fires inside the (N-1)-th delta
// batch (the initial match is batch 1), between the graphs' rebuild and the
// matcher run.
void CheckServeKillResume(const std::string& crash_spec,
                          const std::string& tag) {
  const std::string dir = ScratchPath("skr_" + tag);
  const std::string log = ScratchPath("skr_" + tag + ".log");
  const std::string clean_out = ScratchPath("skr_" + tag + "_clean.txt");
  const std::string resumed_out = ScratchPath("skr_" + tag + "_resumed.txt");
  std::string error;
  ASSERT_TRUE(EnsureDir(dir, &error)) << error;

  ChildSpec clean;
  clean.delta_log = log;
  clean.matching_out = clean_out;
  ASSERT_EQ(RunChild(clean), 0) << tag;

  ChildSpec crash;
  crash.delta_log = log;
  crash.checkpoint_dir = dir;
  crash.fault_spec = crash_spec;
  ASSERT_EQ(RunChild(crash), kFaultCrashExitCode) << tag;
  ASSERT_FALSE(ListCheckpoints(dir, kServeCheckpointPrefix).empty())
      << tag << ": the crash must land after at least one checkpoint";

  // The resume runs under another thread count: serve snapshots hold no
  // score state, and the matcher's partition follows the graphs.
  ChildSpec resume;
  resume.delta_log = log;
  resume.checkpoint_dir = dir;
  resume.resume = true;
  resume.matching_out = resumed_out;
  resume.threads = 2;
  ASSERT_EQ(RunChild(resume), 0) << tag;

  const std::vector<char> clean_bytes = Slurp(clean_out);
  ASSERT_FALSE(clean_bytes.empty()) << tag;
  EXPECT_EQ(Slurp(resumed_out), clean_bytes)
      << tag << ": resumed serve matching differs from the unkilled session";

  RemoveServeTree(dir);
  std::remove(log.c_str());
  std::remove(clean_out.c_str());
  std::remove(resumed_out.c_str());
}

TEST(ServeKillResumeTest, CrashInFirstDeltaBatchResumesBitIdentical) {
  CheckServeKillResume("crash:serve_apply=2", "first_batch");
}

TEST(ServeKillResumeTest, CrashInLaterBatchResumesBitIdentical) {
  CheckServeKillResume("crash:serve_apply=4", "later_batch");
}

TEST(ServeKillResumeTest, CorruptNewestServeCheckpointFallsBackToOlder) {
  const std::string dir = ScratchPath("skr_corrupt");
  const std::string log = ScratchPath("skr_corrupt.log");
  const std::string clean_out = ScratchPath("skr_corrupt_clean.txt");
  const std::string resumed_out = ScratchPath("skr_corrupt_resumed.txt");
  std::string error;
  ASSERT_TRUE(EnsureDir(dir, &error)) << error;

  ChildSpec clean;
  clean.delta_log = log;
  clean.matching_out = clean_out;
  ASSERT_EQ(RunChild(clean), 0);

  ChildSpec crash;
  crash.delta_log = log;
  crash.checkpoint_dir = dir;
  crash.fault_spec = "crash:serve_apply=4";
  ASSERT_EQ(RunChild(crash), kFaultCrashExitCode);
  auto files = ListCheckpoints(dir, kServeCheckpointPrefix);
  ASSERT_GE(files.size(), 2u);
  {
    // Torn write: truncate the newest snapshot to half.
    const std::string& victim = files.back().path;
    std::vector<char> bytes = Slurp(victim);
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }

  ChildSpec resume;
  resume.delta_log = log;
  resume.checkpoint_dir = dir;
  resume.resume = true;
  resume.matching_out = resumed_out;
  ASSERT_EQ(RunChild(resume), 0)
      << "a corrupt serve checkpoint must be skipped, not fatal";
  EXPECT_EQ(Slurp(resumed_out), Slurp(clean_out));

  RemoveServeTree(dir);
  std::remove(log.c_str());
  std::remove(clean_out.c_str());
  std::remove(resumed_out.c_str());
}

}  // namespace
}  // namespace reconcile
