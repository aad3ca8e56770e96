// Witness emission on inputs built to hit its edge cases: empty and
// seed-only graphs, and a round whose score rows exercise every branch of
// the row merge. Each run is checked by hand-derived counts and against the
// paper-literal oracle (`user_matching_oracle.h`): its maps and its
// per-round emissions.
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "oracle_check.h"
#include "reconcile/core/matcher.h"
#include "user_matching_oracle.h"

namespace reconcile {
namespace {

// Degenerate inputs must not trip the emission paths.
TEST(EmissionTest, EmptyGraphsAndSeedOnlyGraphs) {
  MatcherConfig config;

  Graph empty;
  MatchResult result = UserMatching(empty, empty, {}, config);
  EXPECT_EQ(result.NumLinks(), 0u);
  ExpectMatchesOracle(empty, empty, {}, config);

  EdgeList e1(4), e2(4);
  Graph g1 = Graph::FromEdgeList(std::move(e1));
  Graph g2 = Graph::FromEdgeList(std::move(e2));
  std::vector<std::pair<NodeId, NodeId>> seeds = {{0, 1}, {2, 3}};
  MatchResult seeded = UserMatching(g1, g2, seeds, config);
  EXPECT_EQ(seeded.NumLinks(), 2u);
  EXPECT_EQ(seeded.NumNewLinks(), 0u);
  ExpectMatchesOracle(g1, g2, seeds, config);
}

// A hand-built round whose score rows exercise every branch of the row
// merge, checked by counts. g1 node 0 has four pending partners: g2 nodes
// 1, 2 and 3, whose adjacency lists overlap (g2 node 0 in all three, 6 and
// 7 in two), and g2 node 4, which has no neighbours. Adjacency slices are
// contiguous, so reading that empty list's "head" would read node 5's
// first neighbour: no sanitizer flags it, but it shows up as one extra
// emission. g1 node 6 has a single pending partner (the one-list row), and
// with min_bucket_exponent = 1 the degree-1 g1 node 5 (a row) and the
// degree-1 g2 node 5 (a column) must both be dropped.
TEST(EmissionTest, RowMergeCountsOverlapsEmptyListsAndFloor) {
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

  MatcherConfig config;
  config.min_bucket_exponent = 1;
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
  ExpectMatchesOracle(g1, g2, seeds, config);
}

}  // namespace
}  // namespace reconcile
