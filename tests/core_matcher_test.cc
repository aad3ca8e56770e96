#include "reconcile/core/matcher.h"

#include <gtest/gtest.h>

#include "reconcile/eval/metrics.h"
#include "reconcile/gen/erdos_renyi.h"
#include "reconcile/gen/preferential_attachment.h"
#include "reconcile/sampling/independent.h"
#include "reconcile/seed/seeding.h"
#include "spread_ids.h"

namespace reconcile {
namespace {

// Handcrafted scenario: two identical 6-node graphs, one seed, threshold 1.
// Star centre 0 with leaves 1..4 plus edge 1-2 (identity labels both sides).
Graph Star() {
  EdgeList edges(6);
  for (NodeId leaf = 1; leaf <= 4; ++leaf) edges.Add(0, leaf);
  edges.Add(1, 2);
  edges.Add(4, 5);
  return Graph::FromEdgeList(std::move(edges));
}

TEST(MatcherTest, EmptySeedsProduceNoLinks) {
  Graph g = Star();
  MatcherConfig config;
  std::vector<std::pair<NodeId, NodeId>> seeds;
  MatchResult result = UserMatching(g, g, seeds, config);
  EXPECT_EQ(result.NumLinks(), 0u);
  EXPECT_EQ(result.NumNewLinks(), 0u);
}

TEST(MatcherTest, SingleSeedAloneCannotBreakTies) {
  // With one seed, every candidate pair scores exactly 1 witness: the
  // mutual-best rule with tie rejection must refuse to guess.
  Graph g = Star();
  MatcherConfig config;
  config.min_score = 1;
  config.num_iterations = 3;
  std::vector<std::pair<NodeId, NodeId>> seeds = {{0, 0}};
  MatchResult result = UserMatching(g, g, seeds, config);
  EXPECT_EQ(result.NumNewLinks(), 0u);
}

TEST(MatcherTest, TwoSeedsCreateScoreSeparation) {
  // Seeds (0,0) and (1,1): pair (2,2) collects 2 witnesses (both seeds are
  // its neighbours) while every competitor collects 1 — it must be accepted,
  // and everything it can't disambiguate must stay unmatched.
  Graph g = Star();
  MatcherConfig config;
  config.min_score = 1;
  config.num_iterations = 3;
  std::vector<std::pair<NodeId, NodeId>> seeds = {{0, 0}, {1, 1}};
  MatchResult result = UserMatching(g, g, seeds, config);
  EXPECT_EQ(result.map_1to2[2], 2u);
  EXPECT_GE(result.NumNewLinks(), 1u);
  for (NodeId u = 0; u < result.map_1to2.size(); ++u) {
    NodeId v = result.map_1to2[u];
    if (v != kInvalidNode) {
      EXPECT_EQ(result.map_2to1[v], u);
      EXPECT_EQ(v, u) << "identity graphs must match identically";
    }
  }
}

TEST(MatcherTest, AmbiguousTwinsAreNeverMatched) {
  // Nodes 3 and 4 are perfect twins (both adjacent only to 0): matching
  // either would be a guess; the tie-rejection rule must leave them out.
  EdgeList edges(5);
  edges.Add(0, 1);
  edges.Add(0, 3);
  edges.Add(0, 4);
  edges.Add(1, 2);
  Graph g = Graph::FromEdgeList(std::move(edges));
  MatcherConfig config;
  config.min_score = 1;
  config.num_iterations = 5;
  std::vector<std::pair<NodeId, NodeId>> seeds = {{0, 0}};
  MatchResult result = UserMatching(g, g, seeds, config);
  EXPECT_EQ(result.map_1to2[3], kInvalidNode);
  EXPECT_EQ(result.map_1to2[4], kInvalidNode);
  // Node 1 is unambiguous (degree 2) and should be found.
  EXPECT_EQ(result.map_1to2[1], 1u);
}

TEST(MatcherTest, ThresholdBlocksWeakEvidence) {
  Graph g = Star();
  MatcherConfig config;
  config.min_score = 3;  // no pair can accumulate 3 witnesses from 1 seed
  std::vector<std::pair<NodeId, NodeId>> seeds = {{0, 0}};
  MatchResult result = UserMatching(g, g, seeds, config);
  EXPECT_EQ(result.NumNewLinks(), 0u);
}

TEST(MatcherTest, SeedsAreNeverOverwritten) {
  Graph g = Star();
  MatcherConfig config;
  config.min_score = 1;
  // Deliberately wrong seed: 1 <-> 3.
  std::vector<std::pair<NodeId, NodeId>> seeds = {{0, 0}, {1, 3}};
  MatchResult result = UserMatching(g, g, seeds, config);
  EXPECT_EQ(result.map_1to2[1], 3u);
  EXPECT_EQ(result.map_2to1[3], 1u);
}

TEST(MatcherTest, ResultIsAlwaysOneToOne) {
  Graph g = GenerateErdosRenyi(800, 0.02, 3);
  RealizationPair pair = SampleIndependent(g, {}, 5);
  SeedOptions seed_options;
  seed_options.fraction = 0.1;
  auto seeds = GenerateSeeds(pair, seed_options, 7);
  MatcherConfig config;
  MatchResult result = UserMatching(pair.g1, pair.g2, seeds, config);
  std::vector<char> used2(pair.g2.num_nodes(), 0);
  for (NodeId u = 0; u < result.map_1to2.size(); ++u) {
    NodeId v = result.map_1to2[u];
    if (v == kInvalidNode) continue;
    EXPECT_FALSE(used2[v]) << "g2 node " << v << " matched twice";
    used2[v] = 1;
    EXPECT_EQ(result.map_2to1[v], u);
  }
}

TEST(MatcherTest, PhaseStatsAreCoherent) {
  Graph g = GenerateErdosRenyi(500, 0.03, 9);
  RealizationPair pair = SampleIndependent(g, {}, 11);
  SeedOptions seed_options;
  seed_options.fraction = 0.15;
  auto seeds = GenerateSeeds(pair, seed_options, 13);
  MatcherConfig config;
  config.num_iterations = 2;
  config.use_incremental_scoring = false;  // reference-engine stat semantics
  MatchResult result = UserMatching(pair.g1, pair.g2, seeds, config);
  ASSERT_FALSE(result.phases.empty());
  size_t links = seeds.size();
  for (const PhaseStats& phase : result.phases) {
    EXPECT_EQ(phase.links_in, links);
    links += phase.new_links;
    EXPECT_GE(phase.emissions, phase.candidate_pairs);
  }
  EXPECT_EQ(links, result.NumLinks());
}

TEST(MatcherTest, IncrementalEngineMatchesReferenceEngine) {
  // The incremental scoring engine must reproduce the reference (paper-
  // literal recompute) engine exactly, link for link.
  for (uint64_t seed : {51u, 52u, 53u}) {
    Graph g = GenerateErdosRenyi(700, 0.03, seed);
    RealizationPair pair = SampleIndependent(g, {}, seed + 100);
    SeedOptions seed_options;
    seed_options.fraction = 0.1;
    auto seeds = GenerateSeeds(pair, seed_options, seed + 200);

    MatcherConfig incremental;
    incremental.use_incremental_scoring = true;
    MatcherConfig reference;
    reference.use_incremental_scoring = false;
    MatchResult a = UserMatching(pair.g1, pair.g2, seeds, incremental);
    MatchResult b = UserMatching(pair.g1, pair.g2, seeds, reference);
    EXPECT_EQ(a.map_1to2, b.map_1to2) << "seed " << seed;
    EXPECT_EQ(a.map_2to1, b.map_2to1) << "seed " << seed;
  }
}

TEST(MatcherTest, EnginesAgreeOnSkewedGraphsWithMultipleIterations) {
  Graph g = GeneratePreferentialAttachment(1500, 8, 61);
  RealizationPair pair = SampleIndependent(g, {}, 62);
  SeedOptions seed_options;
  seed_options.fraction = 0.08;
  auto seeds = GenerateSeeds(pair, seed_options, 63);
  MatcherConfig incremental;
  incremental.num_iterations = 3;
  MatcherConfig reference;
  reference.num_iterations = 3;
  reference.use_incremental_scoring = false;
  MatchResult a = UserMatching(pair.g1, pair.g2, seeds, incremental);
  MatchResult b = UserMatching(pair.g1, pair.g2, seeds, reference);
  EXPECT_EQ(a.map_1to2, b.map_1to2);
}

TEST(MatcherTest, DeterministicAcrossThreadAndShardCounts) {
  Graph g = GenerateErdosRenyi(600, 0.03, 15);
  RealizationPair pair = SampleIndependent(g, {}, 17);
  SeedOptions seed_options;
  seed_options.fraction = 0.1;
  auto seeds = GenerateSeeds(pair, seed_options, 19);

  // 600 g1 nodes resolve to one shard; spreading the ids 16-fold
  // (`spread_ids.h`) resolves to 18.
  MatcherConfig one;
  one.num_threads = 1;
  MatcherConfig many;
  many.num_threads = 4;
  constexpr NodeId kStride = 16;
  MatchResult a = UserMatching(pair.g1, pair.g2, seeds, one);
  MatchResult b = Unspread(UserMatching(SpreadIds(pair.g1, kStride), pair.g2,
                                        SpreadSeeds(seeds, kStride), many),
                           kStride);
  EXPECT_EQ(a.map_1to2, b.map_1to2);
  EXPECT_EQ(a.map_2to1, b.map_2to1);
}

TEST(MatcherTest, BucketingMatchesHighDegreeFirst) {
  Graph g = GenerateErdosRenyi(600, 0.05, 21);
  RealizationPair pair = SampleIndependent(g, {}, 23);
  SeedOptions seed_options;
  seed_options.fraction = 0.1;
  auto seeds = GenerateSeeds(pair, seed_options, 25);
  MatcherConfig config;
  config.num_iterations = 1;
  MatchResult result = UserMatching(pair.g1, pair.g2, seeds, config);
  // Bucket exponents must be non-increasing within the iteration.
  for (size_t i = 1; i < result.phases.size(); ++i) {
    if (result.phases[i].iteration == result.phases[i - 1].iteration) {
      EXPECT_LT(result.phases[i].bucket_exponent,
                result.phases[i - 1].bucket_exponent);
    }
  }
}

TEST(MatcherTest, StopWhenStableEndsEarly) {
  Graph g = Star();
  MatcherConfig config;
  config.min_score = 10;  // nothing will ever match
  config.num_iterations = 50;
  config.stop_when_stable = true;
  std::vector<std::pair<NodeId, NodeId>> seeds = {{0, 0}};
  MatchResult result = UserMatching(g, g, seeds, config);
  // Only the first sweep runs.
  int max_iteration = 0;
  for (const PhaseStats& phase : result.phases) {
    max_iteration = std::max(max_iteration, phase.iteration);
  }
  EXPECT_EQ(max_iteration, 1);
}

TEST(MatcherDeathTest, DuplicateSeedRejected) {
  Graph g = Star();
  MatcherConfig config;
  std::vector<std::pair<NodeId, NodeId>> seeds = {{0, 0}, {0, 1}};
  EXPECT_DEATH(UserMatching(g, g, seeds, config), "duplicate seed");
}

TEST(MatcherDeathTest, OutOfRangeSeedRejected) {
  Graph g = Star();
  MatcherConfig config;
  std::vector<std::pair<NodeId, NodeId>> seeds = {{99, 0}};
  EXPECT_DEATH(UserMatching(g, g, seeds, config), "Check failed");
}

}  // namespace
}  // namespace reconcile
