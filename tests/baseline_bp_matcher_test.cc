#include "reconcile/baseline/bp_matcher.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "reconcile/api/registry.h"
#include "reconcile/api/spec.h"
#include "reconcile/eval/metrics.h"
#include "reconcile/gen/erdos_renyi.h"
#include "reconcile/sampling/independent.h"
#include "reconcile/seed/seeding.h"

namespace reconcile {
namespace {

struct Fixture {
  RealizationPair pair;
  std::vector<std::pair<NodeId, NodeId>> seeds;
};

Fixture MakeFixture() {
  Graph g = GenerateErdosRenyi(1200, 0.02, 9301);
  IndependentSampleOptions options;
  options.s1 = 0.8;
  options.s2 = 0.8;
  Fixture f;
  f.pair = SampleIndependent(g, options, 9303);
  SeedOptions seeding;
  seeding.fraction = 0.1;
  f.seeds = GenerateSeeds(f.pair, seeding, 9305);
  return f;
}

TEST(BpMatcherTest, FindsNewLinksWithUsefulPrecision) {
  Fixture f = MakeFixture();
  MatchResult result = BpMatch(f.pair.g1, f.pair.g2, f.seeds, {});
  MatchQuality q = Evaluate(f.pair, result);
  EXPECT_GT(q.new_good, 50u);
  EXPECT_GT(q.precision, 0.8);
  EXPECT_FALSE(result.phases.empty());
  // Per-sweep telemetry: the candidate graph is reported per phase.
  EXPECT_GT(result.phases.front().candidate_pairs, 0u);
}

TEST(BpMatcherTest, MatchingIsConsistent) {
  Fixture f = MakeFixture();
  MatchResult result = BpMatch(f.pair.g1, f.pair.g2, f.seeds, {});
  // One-to-one: every forward link has the matching backward link.
  for (NodeId u = 0; u < f.pair.g1.num_nodes(); ++u) {
    const NodeId v = result.map_1to2[u];
    if (v != kInvalidNode) {
      EXPECT_EQ(result.map_2to1[v], u);
    }
  }
  for (NodeId v = 0; v < f.pair.g2.num_nodes(); ++v) {
    const NodeId u = result.map_2to1[v];
    if (u != kInvalidNode) {
      EXPECT_EQ(result.map_1to2[u], v);
    }
  }
}

TEST(BpMatcherTest, SeedsAreKeptVerbatim) {
  Fixture f = MakeFixture();
  MatchResult result = BpMatch(f.pair.g1, f.pair.g2, f.seeds, {});
  for (const auto& [u, v] : f.seeds) {
    EXPECT_EQ(result.map_1to2[u], v);
    EXPECT_EQ(result.map_2to1[v], u);
  }
}

// The determinism contract every execution dimension in this codebase
// signs: matchings bit-identical across thread counts. BP message updates
// read only the previous iteration's arrays, so the loop partition (and
// the steal schedule) is unobservable.
TEST(BpMatcherTest, BitIdenticalAcrossThreadCounts) {
  Fixture f = MakeFixture();
  BpConfig reference_config;
  reference_config.num_threads = 1;
  const MatchResult reference =
      BpMatch(f.pair.g1, f.pair.g2, f.seeds, reference_config);
  EXPECT_GT(reference.NumNewLinks(), 0u);

  for (int threads : {2, 3, 5}) {
    BpConfig config;
    config.num_threads = threads;
    const MatchResult run = BpMatch(f.pair.g1, f.pair.g2, f.seeds, config);
    EXPECT_EQ(run.map_1to2, reference.map_1to2) << "threads=" << threads;
    EXPECT_EQ(run.map_2to1, reference.map_2to1) << "threads=" << threads;
  }
}

// Registry dispatch equals direct invocation for a non-default config
// (the api_adapter_differential_test idiom, applied to bp's own knobs).
TEST(BpMatcherTest, RegistryDispatchEqualsDirectInvocation) {
  Fixture f = MakeFixture();
  BpConfig config;
  config.iterations = 4;
  config.damping = 0.25;
  config.prior = 1.0;
  config.min_belief = 0.5;
  config.max_candidates = 4;
  const MatchResult direct = BpMatch(f.pair.g1, f.pair.g2, f.seeds, config);
  auto reconciler = Registry::Global().CreateOrDie(
      ReconcilerSpec("bp")
          .Set("iterations", "4")
          .Set("damping", "0.25")
          .Set("prior", "1")
          .Set("min-belief", "0.5")
          .Set("max-candidates", "4"));
  const MatchResult adapted = reconciler->Run(f.pair.g1, f.pair.g2, f.seeds);
  EXPECT_EQ(direct.map_1to2, adapted.map_1to2);
  EXPECT_EQ(direct.map_2to1, adapted.map_2to1);
  EXPECT_EQ(direct.seeds, adapted.seeds);
}

TEST(BpMatcherTest, BadSpecsAreReportableErrors) {
  std::string error;
  EXPECT_EQ(Registry::Global().Create(
                ReconcilerSpec("bp").Set("damping", "1.5"), &error),
            nullptr);
  EXPECT_NE(error.find("damping"), std::string::npos);
  error.clear();
  EXPECT_EQ(Registry::Global().Create(
                ReconcilerSpec("bp").Set("max-candidates", "0"), &error),
            nullptr);
  EXPECT_NE(error.find("max-candidates"), std::string::npos);
}

TEST(BpMatcherTest, HigherBeliefFloorAcceptsASubsetPerSweep) {
  // Within one sweep the candidate graph and messages are identical for
  // any floor, so a higher floor's accepted links are a strict subset of a
  // lower floor's. (Across sweeps this is not monotone: early rejections
  // reshape later frontiers.)
  Fixture f = MakeFixture();
  BpConfig permissive;
  permissive.min_belief = 0.0;
  permissive.max_sweeps = 1;
  BpConfig strict = permissive;
  strict.min_belief = 1.5;
  const MatchResult loose =
      BpMatch(f.pair.g1, f.pair.g2, f.seeds, permissive);
  const MatchResult tight = BpMatch(f.pair.g1, f.pair.g2, f.seeds, strict);
  EXPECT_LT(tight.NumNewLinks(), loose.NumNewLinks());
  for (NodeId u = 0; u < f.pair.g1.num_nodes(); ++u) {
    if (tight.map_1to2[u] != kInvalidNode) {
      EXPECT_EQ(tight.map_1to2[u], loose.map_1to2[u]);
    }
  }
  const MatchQuality loose_q = Evaluate(f.pair, loose);
  const MatchQuality tight_q = Evaluate(f.pair, tight);
  EXPECT_GE(tight_q.precision, loose_q.precision);
}

}  // namespace
}  // namespace reconcile
