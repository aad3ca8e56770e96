// Randomized check of `UserMatching` against the paper-literal oracle
// (`user_matching_oracle.h`). Each case draws a graph pair and a matcher
// configuration from its index alone, so the index a failure prints
// reproduces it. Per case the final maps and the round count must be
// equal, and per round the new links, the open pairs and the emissions.
#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "oracle_check.h"
#include "reconcile/core/matcher.h"
#include "reconcile/gen/chung_lu.h"
#include "reconcile/gen/erdos_renyi.h"
#include "reconcile/gen/preferential_attachment.h"
#include "reconcile/gen/sbm.h"
#include "reconcile/sampling/independent.h"
#include "reconcile/seed/seeding.h"
#include "reconcile/util/rng.h"
#include "user_matching_oracle.h"

namespace reconcile {
namespace {

enum class Model {
  kErdosRenyi,
  kPreferentialAttachment,
  kTwoBlockSbm,
  kChungLu,
};

const char* ModelName(Model model) {
  switch (model) {
    case Model::kErdosRenyi:
      return "er";
    case Model::kPreferentialAttachment:
      return "pa";
    case Model::kTwoBlockSbm:
      return "sbm2";
    case Model::kChungLu:
      return "chunglu";
  }
  return "?";
}

struct FuzzCase {
  uint64_t index = 0;
  Model model = Model::kErdosRenyi;
  NodeId nodes = 0;
  double avg_degree = 0.0;  // ER, SBM and Chung-Lu
  int pa_edges = 0;         // PA: edges per arriving node
  double exponent = 0.0;    // Chung-Lu
  double s1 = 1.0;
  double s2 = 1.0;
  double seed_fraction = 0.0;
  double wrong_fraction = 0.0;
  MatcherConfig config;

  std::string Describe() const {
    std::ostringstream out;
    out << "case " << index << ": " << ModelName(model) << " n=" << nodes;
    if (model == Model::kPreferentialAttachment) {
      out << " m=" << pa_edges;
    } else {
      out << " avg_degree=" << avg_degree;
    }
    if (model == Model::kChungLu) out << " exponent=" << exponent;
    out << " s1=" << s1 << " s2=" << s2 << " seeds=" << seed_fraction
        << " wrong=" << wrong_fraction << " T=" << config.min_score
        << " k=" << config.num_iterations
        << " bucketing=" << config.use_degree_bucketing
        << " min_bucket_exponent=" << config.min_bucket_exponent
        << " stop_when_stable=" << config.stop_when_stable
        << " threads=" << config.num_threads;
    return out.str();
  }
};

double Uniform(Rng& rng, double lo, double hi) {
  return lo + (hi - lo) * rng.UniformReal();
}

FuzzCase DrawCase(uint64_t index, NodeId min_nodes, NodeId max_nodes) {
  Rng rng(HashMix64(index * 0x9E3779B97F4A7C15ULL + 0x51ED));
  FuzzCase c;
  c.index = index;
  c.model = static_cast<Model>(rng.UniformInt(4));
  c.nodes = static_cast<NodeId>(rng.UniformIntInRange(min_nodes, max_nodes));
  c.avg_degree = Uniform(rng, 4.0, 16.0);
  c.pa_edges = static_cast<int>(rng.UniformIntInRange(2, 8));
  c.exponent = Uniform(rng, 2.1, 2.6);
  c.s1 = Uniform(rng, 0.5, 1.0);
  c.s2 = Uniform(rng, 0.5, 1.0);
  c.seed_fraction = Uniform(rng, 0.05, 0.35);
  c.wrong_fraction = rng.Bernoulli(0.25) ? Uniform(rng, 0.05, 0.3) : 0.0;
  c.config.min_score = static_cast<uint32_t>(rng.UniformIntInRange(1, 5));
  c.config.num_iterations = static_cast<int>(rng.UniformIntInRange(1, 3));
  c.config.use_degree_bucketing = rng.Bernoulli(0.5);
  c.config.min_bucket_exponent = static_cast<int>(rng.UniformInt(4));
  c.config.stop_when_stable = rng.Bernoulli(0.5);
  c.config.num_threads = static_cast<int>(rng.UniformIntInRange(1, 4));
  return c;
}

Graph Underlying(const FuzzCase& c, uint64_t seed) {
  const double p = c.avg_degree / std::max<NodeId>(1, c.nodes - 1);
  switch (c.model) {
    case Model::kErdosRenyi:
      return GenerateErdosRenyi(c.nodes, std::min(1.0, p), seed);
    case Model::kPreferentialAttachment:
      return GeneratePreferentialAttachment(c.nodes, c.pa_edges, seed);
    case Model::kTwoBlockSbm: {
      SbmParams params;
      params.block_sizes = {c.nodes / 2, c.nodes - c.nodes / 2};
      // Most of each node's degree inside its block.
      params.p_in = std::min(1.0, 1.6 * p);
      params.p_out = 0.2 * p;
      return GenerateSbm(params, seed);
    }
    case Model::kChungLu:
      return GenerateChungLu(
          PowerLawWeights(c.nodes, c.exponent, c.avg_degree), seed);
  }
  return Graph();
}

// Runs one case; returns the difference (empty when the engine agrees).
std::string RunCase(const FuzzCase& c) {
  const uint64_t seed = HashMix64(c.index + 0xF022);
  const Graph g = Underlying(c, seed);
  IndependentSampleOptions sample;
  sample.s1 = c.s1;
  sample.s2 = c.s2;
  const RealizationPair pair = SampleIndependent(g, sample, seed + 1);
  SeedOptions seed_options;
  seed_options.fraction = c.seed_fraction;
  seed_options.wrong_fraction = c.wrong_fraction;
  const auto seeds = GenerateSeeds(pair, seed_options, seed + 2);

  const MatchResult engine = UserMatching(pair.g1, pair.g2, seeds, c.config);
  const oracle::Result expected = oracle::UserMatching(
      pair.g1, pair.g2, seeds, OracleSettings(c.config));
  return OracleDifference(engine, expected);
}

// Runs cases [first, first + count) and reports the first few failures in
// full, then how many failed.
void RunFuzz(uint64_t first, uint64_t count, NodeId min_nodes,
             NodeId max_nodes) {
  constexpr int kReported = 5;
  int failures = 0;
  for (uint64_t index = first; index < first + count; ++index) {
    const FuzzCase c = DrawCase(index, min_nodes, max_nodes);
    const std::string difference = RunCase(c);
    if (difference.empty()) continue;
    if (++failures <= kReported) {
      ADD_FAILURE() << c.Describe() << "\n  first difference: " << difference;
    }
  }
  EXPECT_EQ(failures, 0) << failures << " of " << count
                         << " cases disagree with the oracle";
}

// Tier-1: tiny pairs only (the oracle recounts every round from all links,
// so larger pairs are slow), at a fixed case count.
TEST(OracleFuzzTest, TinyPairsMatchTheOracle) { RunFuzz(0, 2000, 20, 120); }

// More cases, and some pairs of 120-400 nodes. Run with
// --gtest_also_run_disabled_tests --gtest_filter='*LongFuzz*'.
TEST(OracleFuzzTest, DISABLED_LongFuzz) {
  RunFuzz(1000000, 20000, 20, 120);
  RunFuzz(2000000, 1500, 120, 400);
}

}  // namespace
}  // namespace reconcile
