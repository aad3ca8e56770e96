// Thread-count and memory-budget equivalence: the matching must be
// bit-identical to the 1-thread run for every thread count, score-partition
// width, claim order and memory budget. Any divergence means a hot-path
// loop's aggregation stopped being partition-independent, or a tier fold or
// spill lost or duplicated a count.
#include <dirent.h>
#include <stdlib.h>
#include <unistd.h>

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/core/matcher.h"
#include "reconcile/gen/chung_lu.h"
#include "reconcile/gen/preferential_attachment.h"
#include "reconcile/sampling/independent.h"
#include "reconcile/seed/seeding.h"
#include "spread_ids.h"

namespace reconcile {
namespace {

struct Workload {
  RealizationPair pair;
  std::vector<std::pair<NodeId, NodeId>> seeds;
};

// Chung-Lu at exponent 2.2 gives real hubs, so per-item cost is skewed and
// which thread claims which chunk varies from run to run.
Workload MakeWorkload(uint64_t rng_seed) {
  Graph g = rng_seed % 2 == 0
                ? GenerateChungLu(PowerLawWeights(1600, 2.2, 12.0), rng_seed)
                : GeneratePreferentialAttachment(1400, 8, rng_seed);
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

void ExpectSameMatching(const MatchResult& result, const MatchResult& reference) {
  ASSERT_EQ(result.map_1to2, reference.map_1to2);
  ASSERT_EQ(result.map_2to1, reference.map_2to1);
}

// Threads x partition widths, each against the 1-thread run. Two and five
// threads give different claim orders over the same cells; the g1 id
// strides give widths of about 3, 50 and 256 (`spread_ids.h`).
TEST(ClaimOrderDeterminismTest, MatchesOneThreadAcrossGrid) {
  for (uint64_t rng_seed : {7101u, 7102u}) {
    SCOPED_TRACE("rng_seed=" + std::to_string(rng_seed));
    Workload w = MakeWorkload(rng_seed);

    MatcherConfig reference_config;
    reference_config.num_threads = 1;
    MatchResult reference =
        UserMatching(w.pair.g1, w.pair.g2, w.seeds, reference_config);
    ASSERT_GT(reference.NumNewLinks(), 0u)
        << "workload too easy to detect divergence";

    for (NodeId stride : {1u, 16u, 128u}) {
      const Graph g1 = SpreadIds(w.pair.g1, stride);
      const auto seeds = SpreadSeeds(w.seeds, stride);
      for (int threads : {2, 5}) {
        SCOPED_TRACE("stride=" + std::to_string(stride) +
                     " threads=" + std::to_string(threads));
        MatcherConfig config;
        config.num_threads = threads;
        MatchResult result =
            Unspread(UserMatching(g1, w.pair.g2, seeds, config), stride);
        ExpectSameMatching(result, reference);
      }
    }
  }
}

// Per-round telemetry must agree across thread counts and partition widths
// (wall-clock obviously differs): emissions, the stored-pair counters
// (`candidate_pairs`, `observed_pairs`), open pairs, new links and links
// in. Only emission leaves dead pairs out, and a pair stored while live
// stays, so the store's pairs and totals do not depend on how its cells
// are cut. The pairs that reach the best tables are the scored pairs at or
// above the threshold: at most every scored pair, and at least the open
// pairs (those with both endpoints unmatched), which in turn are at least
// every link the round accepts.
TEST(ClaimOrderDeterminismTest, PhaseCountersMatchAcrossThreadCounts) {
  Workload w = MakeWorkload(7103);
  MatcherConfig serial_config;
  serial_config.num_threads = 1;
  MatcherConfig parallel_config = serial_config;
  parallel_config.num_threads = 4;
  MatchResult a = UserMatching(w.pair.g1, w.pair.g2, w.seeds, serial_config);
  ASSERT_GT(a.NumNewLinks(), 0u);
  for (NodeId stride : {1u, 128u}) {
    SCOPED_TRACE("stride=" + std::to_string(stride));
    const Graph g1 = SpreadIds(w.pair.g1, stride);
    const auto seeds = SpreadSeeds(w.seeds, stride);
    MatchResult serial = UserMatching(g1, w.pair.g2, seeds, serial_config);
    MatchResult b = UserMatching(g1, w.pair.g2, seeds, parallel_config);
    ASSERT_EQ(a.phases.size(), b.phases.size());
    ASSERT_EQ(serial.phases.size(), b.phases.size());
    for (size_t i = 0; i < a.phases.size(); ++i) {
      EXPECT_EQ(a.phases[i].emissions, b.phases[i].emissions);
      EXPECT_EQ(serial.phases[i].candidate_pairs, b.phases[i].candidate_pairs);
      EXPECT_EQ(serial.phases[i].observed_pairs, b.phases[i].observed_pairs);
      EXPECT_EQ(a.phases[i].candidate_pairs, b.phases[i].candidate_pairs);
      EXPECT_EQ(a.phases[i].observed_pairs, b.phases[i].observed_pairs);
      EXPECT_EQ(a.phases[i].open_pairs, b.phases[i].open_pairs);
      EXPECT_EQ(a.phases[i].new_links, b.phases[i].new_links);
      EXPECT_EQ(a.phases[i].links_in, b.phases[i].links_in);
    }
  }
  size_t observed = 0;
  size_t open = 0;
  for (const PhaseStats& phase : a.phases) {
    EXPECT_LE(phase.observed_pairs, phase.candidate_pairs);
    EXPECT_LE(phase.open_pairs, phase.observed_pairs);
    EXPECT_GE(phase.open_pairs, phase.new_links);
    observed += phase.observed_pairs;
    open += phase.open_pairs;
  }
  EXPECT_GT(observed, 0u);
  // Matched endpoints block: some pairs at or above T are not open.
  EXPECT_LT(open, observed);
}

// RAII scratch directory for budgeted runs; also lets the tests assert the
// score-dir hygiene contract (no spill files survive a clean run).
class ScratchDir {
 public:
  ScratchDir() {
    char tmpl[] = "/tmp/determinism_score_dir_XXXXXX";
    path_ = ::mkdtemp(tmpl) != nullptr ? tmpl : "";
  }
  ~ScratchDir() {
    if (path_.empty()) return;
    if (DIR* handle = ::opendir(path_.c_str())) {
      while (dirent* entry = ::readdir(handle)) {
        const std::string name = entry->d_name;
        if (name != "." && name != "..") ::unlink((path_ + "/" + name).c_str());
      }
      ::closedir(handle);
    }
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }
  size_t NumEntries() const {
    DIR* handle = ::opendir(path_.c_str());
    if (handle == nullptr) return 0;
    size_t n = 0;
    while (dirent* entry = ::readdir(handle)) {
      const std::string name = entry->d_name;
      if (name != "." && name != "..") ++n;
    }
    ::closedir(handle);
    return n;
  }

 private:
  std::string path_;
};

// The memory budget must be unobservable in the matching: spilled tiers are
// the same bytes as resident ones, so any budget — from "everything spills"
// to "nothing spills" — crossed with thread counts must reproduce the
// unbudgeted single-thread reference bit for bit. The tight
// budget legs also assert that spilling actually happened (otherwise the
// grid silently degenerates to the resident path) and that a clean run
// leaves no scratch behind.
TEST(MemoryBudgetDeterminismTest, BudgetsAreUnobservableAcrossGrid) {
  for (uint64_t rng_seed : {7401u, 7402u}) {
    SCOPED_TRACE("rng_seed=" + std::to_string(rng_seed));
    Workload w = MakeWorkload(rng_seed);

    MatcherConfig reference_config;
    reference_config.num_threads = 1;
    MatchResult reference =
        UserMatching(w.pair.g1, w.pair.g2, w.seeds, reference_config);
    ASSERT_GT(reference.NumNewLinks(), 0u)
        << "workload too easy to detect divergence";

    // 1 byte forces every tier out; 64 KiB spills the big tiers; 1 GiB
    // never spills (exercises the accounting pass with an empty schedule).
    for (uint64_t budget : {uint64_t{1}, uint64_t{64} << 10, uint64_t{1} << 30}) {
      for (int threads : {2, 5}) {
        SCOPED_TRACE("budget=" + std::to_string(budget) +
                     " threads=" + std::to_string(threads));
        ScratchDir scratch;
        ASSERT_FALSE(scratch.path().empty());
        MatcherConfig config;
        config.memory_budget_bytes = budget;
        config.score_dir = scratch.path();
        config.num_threads = threads;
        MatchResult result =
            UserMatching(w.pair.g1, w.pair.g2, w.seeds, config);
        ExpectSameMatching(result, reference);
        size_t spilled_rounds = 0;
        for (const PhaseStats& phase : result.phases) {
          spilled_rounds += phase.tiers_spilled > 0;
        }
        if (budget == 1) {
          EXPECT_GT(spilled_rounds, 0u)
              << "tight budget never spilled; grid is not exercising the "
                 "out-of-core path";
        }
        EXPECT_EQ(scratch.NumEntries(), 0u)
            << "clean run must leave no spill scratch";
      }
    }
  }
}

// The ordered seed-collect sweep runs on the shared pool once the workload
// crosses the parallel threshold, so its claim order differs run to run.
// The count / prefix-sum / fill shape must make that unobservable: repeated
// generation returns the identical seed list, in node-id order, each pair
// mapping through the ground truth. (Small workloads take the serial path,
// so this uses a graph comfortably above the 2^14-node threshold.)
TEST(SeedCollectDeterminismTest, ParallelCollectIsScheduleIndependent) {
  Graph g = GenerateChungLu(PowerLawWeights(40000, 2.2, 10.0), 7501);
  IndependentSampleOptions sampling;
  sampling.s1 = 0.6;
  sampling.s2 = 0.6;
  RealizationPair pair = SampleIndependent(g, sampling, 7502);

  for (SeedBias bias : {SeedBias::kUniform, SeedBias::kDegreeProportional,
                        SeedBias::kTopDegree}) {
    SCOPED_TRACE("bias=" + std::to_string(static_cast<int>(bias)));
    SeedOptions options;
    options.bias = bias;
    options.fraction = 0.05;
    options.fixed_count = 500;
    const auto reference = GenerateSeeds(pair, options, 7503);
    ASSERT_GT(reference.size(), 100u);
    if (bias != SeedBias::kTopDegree) {
      // Collected in node-id order, every pair straight off the ground truth.
      for (size_t i = 0; i < reference.size(); ++i) {
        ASSERT_EQ(reference[i].second, pair.map_1to2[reference[i].first]);
        if (i > 0) {
          ASSERT_LT(reference[i - 1].first, reference[i].first);
        }
      }
    }
    // Every rerun sees a different claim order on the shared pool; the
    // output must not.
    for (int run = 0; run < 4; ++run) {
      ASSERT_EQ(GenerateSeeds(pair, options, 7503), reference)
          << "run " << run;
    }
  }
}

}  // namespace
}  // namespace reconcile
