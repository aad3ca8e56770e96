// Scoring-backend equivalence: the radix (sort-based) backend must produce
// bit-identical matchings to the hash backend across the full engine grid —
// incremental vs recompute scoring, serial vs parallel selection, thread
// counts and partition widths (g1 id strides, `spread_ids.h`), bucketing on
// and off. The selection fold is representation-agnostic and both backends
// aggregate the same witness multiset, so any divergence is a bug in the
// sort/merge path.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/core/matcher.h"
#include "reconcile/gen/chung_lu.h"
#include "reconcile/gen/erdos_renyi.h"
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
  Graph g;
  switch (rng_seed % 3) {
    case 0:
      g = GeneratePreferentialAttachment(1400, 8, rng_seed);
      break;
    case 1:
      g = GenerateChungLu(PowerLawWeights(1400, 2.5, 14.0), rng_seed);
      break;
    default:
      g = GenerateErdosRenyi(1200, 0.03, rng_seed);
      break;
  }
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

// The full differential grid: hash vs radix × incremental vs recompute ×
// serial vs parallel selection × threads × widths × bucketing. The hash /
// incremental / parallel run is the reference for each workload.
TEST(ScoringBackendDifferentialTest, RadixMatchesHashAcrossEngineGrid) {
  for (uint64_t rng_seed : {9001u, 9002u, 9003u}) {
    SCOPED_TRACE("rng_seed=" + std::to_string(rng_seed));
    Workload w = MakeWorkload(rng_seed);

    MatchResult reference;
    bool have_reference = false;
    for (bool bucketing : {true, false}) {
      for (ScoringBackend backend :
           {ScoringBackend::kHashMap, ScoringBackend::kRadixSort}) {
        for (bool incremental : {true, false}) {
          for (bool parallel_selection : {true, false}) {
            for (auto [threads, stride] : {std::pair<int, NodeId>{1, 1},
                                           std::pair<int, NodeId>{4, 16}}) {
              MatcherConfig config;
              config.use_degree_bucketing = bucketing;
              config.scoring_backend = backend;
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
              SCOPED_TRACE(
                  std::string("bucketing=") + std::to_string(bucketing) +
                  " backend=" +
                  (backend == ScoringBackend::kRadixSort ? "radix" : "hash") +
                  " incremental=" + std::to_string(incremental) +
                  " parallel_selection=" + std::to_string(parallel_selection) +
                  " threads=" + std::to_string(threads) +
                  " stride=" + std::to_string(stride));
              ASSERT_EQ(result.map_1to2, reference.map_1to2);
              ASSERT_EQ(result.map_2to1, reference.map_2to1);
            }
          }
        }
      }
      // Bucketing changes which links are found; re-anchor the reference
      // for the non-bucketed half of the grid.
      have_reference = false;
    }
  }
}

// Per-round telemetry must agree between backends: the emitted witness
// multiset and the distinct candidate-pair count are representation-
// independent quantities.
TEST(ScoringBackendDifferentialTest, PhaseCountersMatchBetweenBackends) {
  Workload w = MakeWorkload(9004);
  MatcherConfig hash_config;
  hash_config.scoring_backend = ScoringBackend::kHashMap;
  MatcherConfig radix_config;
  radix_config.scoring_backend = ScoringBackend::kRadixSort;
  MatchResult hash_result =
      UserMatching(w.pair.g1, w.pair.g2, w.seeds, hash_config);
  MatchResult radix_result =
      UserMatching(w.pair.g1, w.pair.g2, w.seeds, radix_config);
  ASSERT_EQ(hash_result.phases.size(), radix_result.phases.size());
  for (size_t i = 0; i < hash_result.phases.size(); ++i) {
    const PhaseStats& h = hash_result.phases[i];
    const PhaseStats& r = radix_result.phases[i];
    EXPECT_EQ(h.iteration, r.iteration);
    EXPECT_EQ(h.bucket_exponent, r.bucket_exponent);
    EXPECT_EQ(h.links_in, r.links_in);
    EXPECT_EQ(h.emissions, r.emissions);
    EXPECT_EQ(h.candidate_pairs, r.candidate_pairs);
    EXPECT_EQ(h.new_links, r.new_links);
  }
}

// min_bucket_exponent prunes emissions at the source; both backends must
// apply the same degree floor.
TEST(ScoringBackendDifferentialTest, DegreeFloorMatches) {
  Workload w = MakeWorkload(9005);
  for (ScoringBackend backend :
       {ScoringBackend::kHashMap, ScoringBackend::kRadixSort}) {
    MatcherConfig config;
    config.scoring_backend = backend;
    config.min_bucket_exponent = 3;  // degree >= 8
    MatchResult result = UserMatching(w.pair.g1, w.pair.g2, w.seeds, config);
    for (NodeId u = 0; u < w.pair.g1.num_nodes(); ++u) {
      const NodeId v = result.map_1to2[u];
      if (v == kInvalidNode || result.IsSeed1(u)) continue;
      EXPECT_GE(w.pair.g1.degree(u), 8u);
      EXPECT_GE(w.pair.g2.degree(v), 8u);
    }
  }
}

// Degenerate inputs must not trip the radix paths.
TEST(ScoringBackendEdgeCaseTest, EmptyGraphsAndSeedOnlyGraphs) {
  MatcherConfig config;
  config.scoring_backend = ScoringBackend::kRadixSort;

  Graph empty;
  MatchResult result = UserMatching(empty, empty, {}, config);
  EXPECT_EQ(result.NumLinks(), 0u);

  EdgeList e1(4), e2(4);
  Graph g1 = Graph::FromEdgeList(std::move(e1));
  Graph g2 = Graph::FromEdgeList(std::move(e2));
  std::vector<std::pair<NodeId, NodeId>> seeds = {{0, 1}, {2, 3}};
  MatchResult seeded = UserMatching(g1, g2, seeds, config);
  EXPECT_EQ(seeded.NumLinks(), 2u);
  EXPECT_EQ(seeded.NumNewLinks(), 0u);
}

}  // namespace
}  // namespace reconcile
