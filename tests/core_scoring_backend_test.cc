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

// A hand-built round whose score rows exercise every branch of the
// incremental radix engine's row merge, checked by counts. g1 node 0 has
// four pending partners: g2 nodes 1, 2 and 3, whose adjacency lists overlap
// (g2 node 0 in all three, 6 and 7 in two), and g2 node 4, which has no
// neighbours. Adjacency slices are contiguous, so reading that empty list's
// "head" would read node 5's first neighbour: no sanitizer flags it, but
// it shows up as one extra emission. g1 node 6 has a single pending partner
// (the one-list row), and with min_bucket_exponent = 1 the degree-1 g1
// node 5 (a row) and the degree-1 g2 node 5 (a column) must both be dropped.
TEST(ScoringBackendEdgeCaseTest, RowMergeCountsOverlapsEmptyListsAndFloor) {
  EdgeList e1(8);
  for (NodeId partner : {1u, 2u, 3u, 4u}) e1.Add(0, partner);
  e1.Add(1, 5);  // 5 has degree 1
  e1.Add(2, 6);
  e1.Add(6, 7);
  EdgeList e2(12);
  for (NodeId partner : {1u, 2u, 3u}) e2.Add(0, partner);
  for (NodeId v : {5u, 6u, 7u}) e2.Add(1, v);  // 5 has degree 1
  for (NodeId v : {6u, 7u, 10u}) e2.Add(2, v);
  e2.Add(3, 8);
  e2.Add(8, 9);
  e2.Add(10, 11);  // g2 node 4 stays isolated
  const Graph g1 = Graph::FromEdgeList(std::move(e1));
  const Graph g2 = Graph::FromEdgeList(std::move(e2));
  ASSERT_EQ(g2.degree(4), 0u);
  const std::vector<std::pair<NodeId, NodeId>> seeds = {
      {1, 1}, {2, 2}, {3, 3}, {4, 4}};

  // Node 0's row merges {0,5,6,7}, {0,6,7,10}, {0,8} and {} into 0:3, 6:2,
  // 7:2, 8:1, 10:1 once the degree-1 column 5 is dropped; node 6's row is
  // {0,6,7,10}, each once.
  constexpr size_t kEmissions = 3 + 2 + 2 + 1 + 1 + 4;
  constexpr size_t kCandidatePairs = 5 + 4;

  struct Engine {
    const char* name;
    ScoringBackend backend;
    bool incremental;
  };
  MatchResult reference;
  for (const Engine& engine :
       {Engine{"radix incremental", ScoringBackend::kRadixSort, true},
        Engine{"hash incremental", ScoringBackend::kHashMap, true},
        Engine{"radix recompute", ScoringBackend::kRadixSort, false}}) {
    SCOPED_TRACE(engine.name);
    MatcherConfig config;
    config.scoring_backend = engine.backend;
    config.use_incremental_scoring = engine.incremental;
    config.min_bucket_exponent = 1;
    // One round: per-round counters of the incremental and recompute
    // engines agree only while every link is still pending.
    config.use_degree_bucketing = false;
    config.num_iterations = 1;
    config.min_score = 2;
    MatchResult result = UserMatching(g1, g2, seeds, config);
    ASSERT_EQ(result.phases.size(), 1u);
    const PhaseStats& round = result.phases[0];
    EXPECT_EQ(round.emissions, kEmissions);
    EXPECT_EQ(round.candidate_pairs, kCandidatePairs);
    EXPECT_EQ(round.observed_pairs, 3u);  // (0,0), (0,6), (0,7)
    EXPECT_EQ(round.open_pairs, 3u);
    EXPECT_EQ(round.new_links, 1u);
    EXPECT_EQ(result.map_1to2[0], 0u);
    if (engine.backend == ScoringBackend::kRadixSort && engine.incremental) {
      reference = std::move(result);
      continue;
    }
    EXPECT_EQ(result.map_1to2, reference.map_1to2);
    EXPECT_EQ(result.map_2to1, reference.map_2to1);
  }
}

}  // namespace
}  // namespace reconcile
