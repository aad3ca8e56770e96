// Table 2: running time as a function of graph size (RMAT graphs).
//
// Paper setup: RMAT24 (8.9M nodes), RMAT26 (32.8M), RMAT28 (121.2M) as the
// underlying network; copies at s = 0.5; seed link probability 0.10; same
// resources for each run. Paper result (relative running time):
//   RMAT24 -> 1, RMAT26 -> 1.199, RMAT28 -> 12.544.
//
// Here: RMAT at scales 13/15/17 (8k -> 131k nodes, x4 node steps like the
// paper), edge factor 8. The shape to check: near-flat cost for the first
// step, superlinear growth appearing at the largest scale — divide the
// per-scale times from the JSON to recover the paper's relative column.
//
// This harness is google-benchmark based (unlike the narrative table
// benches) so `tools/run_bench.sh` can capture it as JSON and track the
// scaling trajectory across PRs. Graph generation, sampling and seeding
// happen outside the timed region; only `UserMatching` is measured, with
// the per-phase split exported as counters.

#include <benchmark/benchmark.h>

#include "bench_main.h"
#include "reconcile/core/matcher.h"
#include "reconcile/gen/rmat.h"
#include "reconcile/sampling/independent.h"
#include "reconcile/seed/seeding.h"

namespace reconcile {
namespace {

void BM_Table2RmatMatch(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  RmatParams params;
  params.scale = scale;
  params.edge_factor = 8.0;
  Graph g = GenerateRmat(params, 0xBE2C0 + static_cast<uint64_t>(scale));
  IndependentSampleOptions sample;
  sample.s1 = sample.s2 = 0.5;
  RealizationPair pair =
      SampleIndependent(g, sample, 0xBE2C100 + static_cast<uint64_t>(scale));
  SeedOptions seed_options;
  seed_options.fraction = 0.10;
  auto seeds =
      GenerateSeeds(pair, seed_options, 0xBE2C200 + static_cast<uint64_t>(scale));
  MatcherConfig config;
  config.min_score = 2;

  MatchResult::PhaseTimeTotals split;
  for (auto _ : state) {
    MatchResult result = UserMatching(pair.g1, pair.g2, seeds, config);
    benchmark::DoNotOptimize(result.NumLinks());
    split = result.SumPhaseSeconds();
  }
  state.counters["nodes"] = static_cast<double>(g.num_nodes());
  state.counters["edges"] = static_cast<double>(g.num_edges());
  state.counters["emit_s"] = split.emit_seconds;
  state.counters["merge_s"] = split.merge_seconds;
  state.counters["scan_s"] = split.scan_seconds;
  state.counters["select_s"] = split.select_seconds;
}

BENCHMARK(BM_Table2RmatMatch)
    ->Arg(13)
    ->Arg(15)
    ->Arg(17)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace reconcile

RECONCILE_BENCHMARK_MAIN();
