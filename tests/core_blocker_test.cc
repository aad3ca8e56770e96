// Tests for the matcher's *blocker* semantics: matched nodes remain in the
// scored candidate pool (per the paper's "the pair with highest score in
// which either u or v appear"), so an impostor can only be matched by
// outscoring the genuine, already-matched account. This is the property
// that defeats the sybil attack.
#include <gtest/gtest.h>

#include "oracle_check.h"
#include "reconcile/core/matcher.h"
#include "reconcile/eval/metrics.h"
#include "reconcile/gen/erdos_renyi.h"
#include "reconcile/sampling/attack.h"
#include "reconcile/sampling/independent.h"
#include "reconcile/seed/seeding.h"

namespace reconcile {
namespace {

// Hand-built sybil scenario. Underlying graph: hub 0 with neighbours
// 1..6, plus chords making 1..6 mutually distinguishable. Identity copies.
// In each copy, node 7 is a clone of the hub 0 wired to a *subset* of its
// neighbours. The genuine pair (0,0) must win and the clone pair (7,7)
// must never be accepted even after (0,0) is matched.
TEST(BlockerTest, ClonePairLosesToGenuinePairForever) {
  EdgeList edges(8);
  for (NodeId leaf = 1; leaf <= 6; ++leaf) edges.Add(0, leaf);
  edges.Add(1, 2);
  edges.Add(3, 4);
  edges.Add(5, 6);
  edges.Add(2, 3);
  // Clone 7 of hub 0 in both copies: g1-side subset {1,2,3,4}; g2-side
  // subset {3,4,5,6} — overlapping but distinct, as independent sampling
  // would produce.
  EdgeList e1 = edges, e2 = edges;
  for (NodeId u : {1, 2, 3, 4}) e1.Add(u, 7);
  for (NodeId u : {3, 4, 5, 6}) e2.Add(u, 7);
  Graph g1 = Graph::FromEdgeList(std::move(e1));
  Graph g2 = Graph::FromEdgeList(std::move(e2));

  MatcherConfig config;
  config.min_score = 1;
  config.num_iterations = 4;
  std::vector<std::pair<NodeId, NodeId>> seeds = {{1, 1}, {4, 4}, {6, 6}};
  MatchResult result = UserMatching(g1, g2, seeds, config);

  // The genuine hub is matched to itself...
  EXPECT_EQ(result.map_1to2[0], 0u);
  // ...and the clone is never matched to anything: every candidate pair
  // containing it is outscored by a pair containing the genuine hub.
  EXPECT_EQ(result.map_1to2[7], kInvalidNode);
  EXPECT_EQ(result.map_2to1[7], kInvalidNode);
}

TEST(BlockerTest, SybilsStayUnmatchedAtScale) {
  Graph g = GenerateErdosRenyi(800, 0.03, 71);
  IndependentSampleOptions sample;
  sample.s1 = sample.s2 = 0.75;
  RealizationPair pair = SampleIndependent(g, sample, 72);
  RealizationPair attacked = ApplyAttack(pair, {}, 73);
  SeedOptions seed_options;
  seed_options.fraction = 0.1;
  auto seeds = GenerateSeeds(attacked, seed_options, 74);
  MatcherConfig config;
  config.min_score = 2;
  MatchResult result = UserMatching(attacked.g1, attacked.g2, seeds, config);

  const NodeId n = g.num_nodes();
  size_t sybil_matches = 0;
  for (NodeId v = n; v < attacked.g1.num_nodes(); ++v) {
    if (result.map_1to2[v] != kInvalidNode) ++sybil_matches;
  }
  // A few sybils may sneak in on sparse corners, but the overwhelming
  // majority must be blocked.
  EXPECT_LT(sybil_matches, static_cast<size_t>(n) / 50);

  MatchQuality q = Evaluate(attacked, result);
  EXPECT_GT(q.precision, 0.97);
}

TEST(BlockerTest, BlockedImpostorDoesNotStealLowDegreeNodes) {
  // Node x (degree 2) has true match x2. A structural near-twin y2 exists.
  // Once enough witnesses accumulate, (x, x2) must win; y2, already matched
  // to its own counterpart y, must block nothing incorrectly.
  EdgeList base(6);
  base.Add(0, 2);  // x = 2's neighbours: 0, 1
  base.Add(1, 2);
  base.Add(0, 3);  // y = 3's neighbours: 0, 1 (twin of 2!)
  base.Add(1, 3);
  base.Add(3, 4);  // ...but y also has 4, breaking the symmetry
  base.Add(4, 5);
  Graph g = Graph::FromEdgeList(std::move(base));
  MatcherConfig config;
  config.min_score = 1;
  config.num_iterations = 4;
  // Seed everything except the twins 2 and 3.
  std::vector<std::pair<NodeId, NodeId>> seeds = {
      {0, 0}, {1, 1}, {4, 4}, {5, 5}};
  MatchResult result = UserMatching(g, g, seeds, config);
  // y=3 is disambiguated by witness 4: score(3,3)=3 > score(3,2)=2, and for
  // x=2: score(2,2)=2 ties score(2,3)=2 while 3 is... (2,3) has witnesses
  // 0,1 only = 2; (2,2) = 2. The pair (3,3) wins for node 3; after it is
  // matched it keeps blocking (2,3), letting (2,2) be unique-best in a
  // later round only if strictly ahead — (2,3) stays scored at 2, tying
  // (2,2). Conservative behaviour: 2 stays unmatched. Verify exactly that.
  EXPECT_EQ(result.map_1to2[3], 3u);
  EXPECT_EQ(result.map_1to2[2], kInvalidNode);
}

// The oracle counts blockers as the paper reads it; under a sybil attack
// they decide most rounds.
TEST(BlockerTest, MatchesOracleUnderAttack) {
  Graph g = GenerateErdosRenyi(400, 0.04, 75);
  RealizationPair pair = SampleIndependent(g, {}, 76);
  RealizationPair attacked = ApplyAttack(pair, {}, 77);
  SeedOptions seed_options;
  seed_options.fraction = 0.15;
  auto seeds = GenerateSeeds(attacked, seed_options, 78);
  ExpectMatchesOracle(attacked.g1, attacked.g2, seeds, MatcherConfig{});
}

}  // namespace
}  // namespace reconcile
