// Selection-engine determinism: `UserMatching` output must be bit-identical
// across every combination of worker-thread count, score-partition width
// (reached through g1 id strides, `spread_ids.h`), scoring engine
// (incremental / recompute) and selection engine (parallel / serial). The
// parallel selection's atomic CAS-max fold is order-independent by
// construction; this randomized grid is the end-to-end safety net.
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

Workload MakeWorkload(uint64_t rng_seed) {
  Graph g = (rng_seed % 2 == 0)
                ? GeneratePreferentialAttachment(1400, 8, rng_seed)
                : GenerateChungLu(PowerLawWeights(1400, 2.5, 14.0),
                                  rng_seed);
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

TEST(SelectionDeterminismTest, IdenticalAcrossThreadsShardsAndEngines) {
  for (uint64_t rng_seed : {7001u, 7002u}) {
    SCOPED_TRACE("rng_seed=" + std::to_string(rng_seed));
    Workload w = MakeWorkload(rng_seed);

    MatchResult reference;
    bool have_reference = false;
    for (bool incremental : {true, false}) {
      for (bool parallel_selection : {true, false}) {
        for (int threads : {1, 2, 8}) {
          for (NodeId stride : {1u, 16u, 128u}) {
            MatcherConfig config;
            config.use_incremental_scoring = incremental;
            config.use_parallel_selection = parallel_selection;
            config.num_threads = threads;
            MatchResult result = Unspread(
                UserMatching(SpreadIds(w.pair.g1, stride), w.pair.g2,
                             SpreadSeeds(w.seeds, stride), config),
                stride);
            if (!have_reference) {
              reference = std::move(result);
              have_reference = true;
              EXPECT_GT(reference.NumNewLinks(), 0u)
                  << "workload too easy to detect divergence";
              continue;
            }
            SCOPED_TRACE("incremental=" + std::to_string(incremental) +
                         " parallel_selection=" +
                         std::to_string(parallel_selection) +
                         " threads=" + std::to_string(threads) +
                         " stride=" + std::to_string(stride));
            ASSERT_EQ(result.map_1to2, reference.map_1to2);
            ASSERT_EQ(result.map_2to1, reference.map_2to1);
          }
        }
      }
    }
  }
}

// The per-round time split must be populated and consistent with the
// whole-round clock for both selection engines.
TEST(SelectionDeterminismTest, PhaseTimeSplitIsPopulated) {
  Workload w = MakeWorkload(7003);
  for (bool parallel_selection : {true, false}) {
    MatcherConfig config;
    config.use_parallel_selection = parallel_selection;
    config.num_threads = 2;
    MatchResult result = UserMatching(w.pair.g1, w.pair.g2, w.seeds, config);
    ASSERT_FALSE(result.phases.empty());
    for (const PhaseStats& phase : result.phases) {
      EXPECT_EQ(phase.num_threads, 2);
      EXPECT_GE(phase.emit_seconds, 0.0);
      EXPECT_GE(phase.merge_seconds, 0.0);
      EXPECT_GE(phase.scan_seconds, 0.0);
      EXPECT_GE(phase.select_seconds, 0.0);
      EXPECT_LE(phase.emit_seconds + phase.merge_seconds +
                    phase.scan_seconds + phase.select_seconds,
                phase.seconds + 1e-6);
    }
  }
}

}  // namespace
}  // namespace reconcile
