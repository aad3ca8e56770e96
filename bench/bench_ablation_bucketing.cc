// §5 Q8 ablations: how much do the algorithm's ingredients matter?
//
//  (a) Degree bucketing (paper): on Facebook s=0.5, l=5%, dropping the
//      bucketing (and running at threshold 1) increases bad matches by ~50%
//      with no significant change in good matches.
//  (b) Simple algorithm under attack (paper): recall halves (22,346 vs
//      46,955 matches) at 100% precision.
//  (c) Simple algorithm on Wikipedia (paper): error rate 27.9% vs 17.3%,
//      recall under 13.5%.
//  (d) Iterations k=1 vs k=2 (paper remark: small k already works).
//  (e) Seed bias (paper remark: high-degree seeds are more valuable).

#include "bench_common.h"
#include "reconcile/baseline/common_neighbors.h"
#include "reconcile/baseline/feature_matching.h"
#include "reconcile/baseline/percolation.h"
#include "reconcile/core/matcher.h"
#include "reconcile/eval/datasets.h"
#include "reconcile/sampling/attack.h"
#include "reconcile/sampling/independent.h"
#include "reconcile/seed/seeding.h"
#include "reconcile/util/timer.h"

namespace reconcile {
namespace {

struct Row {
  std::string name;
  MatchQuality quality;
  double seconds;
};

Row RunFull(const RealizationPair& pair,
            const std::vector<std::pair<NodeId, NodeId>>& seeds,
            const std::string& name, const MatcherConfig& config) {
  Timer timer;
  MatchResult result = UserMatching(pair.g1, pair.g2, seeds, config);
  return {name, Evaluate(pair, result), timer.Seconds()};
}

Row RunSimple(const RealizationPair& pair,
              const std::vector<std::pair<NodeId, NodeId>>& seeds,
              const std::string& name, uint32_t threshold) {
  Timer timer;
  SimpleMatcherConfig config;
  config.min_score = threshold;
  MatchResult result = SimpleCommonNeighborsMatch(pair.g1, pair.g2, seeds, config);
  return {name, Evaluate(pair, result), timer.Seconds()};
}

void PrintRows(const std::string& title, const std::vector<Row>& rows) {
  std::cout << title << "\n";
  Table table({"variant", "good", "bad", "error rate", "recall(all)",
               "seconds"});
  for (const Row& row : rows) {
    table.AddRow({row.name, std::to_string(row.quality.new_good),
                  std::to_string(row.quality.new_bad),
                  bench::PercentCell(row.quality.error_rate),
                  bench::PercentCell(row.quality.recall_all),
                  FormatDouble(row.seconds, 2)});
  }
  table.Print(std::cout);
  std::cout << "\n";
}

void Run() {
  bench::PrintHeader(
      "Ablations — bucketing, simple algorithm, iterations, seed bias, engine",
      "§5 Q8 + design-choice ablations from DESIGN.md",
      "FB stand-in 0.5 scale (s=0.5 / s=0.75+attack), Wikipedia pair");

  // (a) Degree bucketing, Facebook s=0.5 l=5%.
  {
    Graph fb = MakeFacebookStandin(bench::kBenchScale, 0xAB0001);
    IndependentSampleOptions sample;
    sample.s1 = sample.s2 = 0.5;
    RealizationPair pair = SampleIndependent(fb, sample, 0xAB0002);
    SeedOptions seed_options;
    seed_options.fraction = 0.05;
    auto seeds = GenerateSeeds(pair, seed_options, 0xAB0003);
    MatcherConfig full;
    full.min_score = 2;
    MatcherConfig no_bucket_t1;
    no_bucket_t1.use_degree_bucketing = false;
    no_bucket_t1.min_score = 1;
    MatcherConfig no_bucket_t2;
    no_bucket_t2.use_degree_bucketing = false;
    no_bucket_t2.min_score = 2;
    PrintRows("(a) degree bucketing (FB-like, s=0.5, l=5%)",
              {RunFull(pair, seeds, "bucketing, T=2 (paper alg)", full),
               RunFull(pair, seeds, "no bucketing, T=1 (paper ablation)",
                       no_bucket_t1),
               RunFull(pair, seeds, "no bucketing, T=2", no_bucket_t2)});
  }

  // (b) Baselines under attack. The simple (bucketing-free, T=1) algorithm
  // has the paper's O((E1+E2)·Δ1·Δ2)-flavoured scoring cost — the very
  // complexity argument of §2 — so this section runs at 0.1 scale to keep
  // its runtime sane; the *relative* outcome is scale-stable.
  {
    Graph fb = MakeFacebookStandin(0.1, 0xAB0011);
    IndependentSampleOptions sample;
    sample.s1 = sample.s2 = 0.75;
    RealizationPair clean = SampleIndependent(fb, sample, 0xAB0012);
    RealizationPair attacked = ApplyAttack(clean, {}, 0xAB0013);
    SeedOptions seed_options;
    seed_options.fraction = 0.10;
    auto seeds = GenerateSeeds(attacked, seed_options, 0xAB0014);
    MatcherConfig full;
    full.min_score = 2;

    std::vector<Row> rows = {
        RunFull(attacked, seeds, "User-Matching, T=2", full),
        RunSimple(attacked, seeds, "simple common-neighbours, T=1", 1)};
    {
      Timer timer;
      MatchResult b = PercolationMatch(attacked.g1, attacked.g2, seeds,
                                       PercolationConfig{});
      rows.push_back({"percolation (YG'13), r=2", Evaluate(attacked, b),
                      timer.Seconds()});
    }
    {
      Timer timer;
      MatchResult b = StructuralFeatureMatch(attacked.g1, attacked.g2, seeds,
                                             FeatureMatcherConfig{});
      rows.push_back({"structural features (no seeds used)",
                      Evaluate(attacked, b), timer.Seconds()});
    }
    PrintRows("(b) under attack (FB-like 0.1 scale, s=0.75, clones at 0.5)",
              rows);
  }

  // (c) Simple algorithm on the Wikipedia-like pair (0.1 scale, same
  // cost rationale as (b)).
  {
    RealizationPair pair = MakeWikipediaPair(0.1, 0xAB0021);
    SeedOptions seed_options;
    seed_options.fraction = 0.10;
    auto seeds = GenerateSeeds(pair, seed_options, 0xAB0022);
    MatcherConfig full;
    full.min_score = 3;
    PrintRows("(c) Wikipedia-like pair (0.1 scale)",
              {RunFull(pair, seeds, "User-Matching, T=3", full),
               RunSimple(pair, seeds, "simple common-neighbours, T=1", 1)});
  }

  // (d) Outer iterations; (e) seed bias — one compact block.
  {
    Graph fb = MakeFacebookStandin(bench::kBenchScale, 0xAB0031);
    IndependentSampleOptions sample;
    sample.s1 = sample.s2 = 0.5;
    RealizationPair pair = SampleIndependent(fb, sample, 0xAB0032);
    SeedOptions uniform;
    uniform.fraction = 0.05;
    auto seeds = GenerateSeeds(pair, uniform, 0xAB0033);

    MatcherConfig one_iter;
    one_iter.num_iterations = 1;
    MatcherConfig two_iter;
    two_iter.num_iterations = 2;
    std::vector<Row> rows = {
        RunFull(pair, seeds, "k=1 iteration", one_iter),
        RunFull(pair, seeds, "k=2 iterations", two_iter),
    };

    SeedOptions biased;
    biased.fraction = 0.05;
    biased.bias = SeedBias::kDegreeProportional;
    auto biased_seeds = GenerateSeeds(pair, biased, 0xAB0033);
    rows.push_back(
        RunFull(pair, biased_seeds, "k=2, degree-biased seeds", two_iter));
    PrintRows("(d)(e) iterations / seed bias", rows);
  }

  std::cout << "Paper shape: (a) no-bucketing adds ~50% more errors; (b) the "
               "simple algorithm halves recall under attack; (c) its error "
               "rate jumps on Wikipedia; (d) k=2 adds a little recall; (e) "
               "degree-biased seeds help.\n\n";
}

}  // namespace
}  // namespace reconcile

int main() { reconcile::Run(); }
