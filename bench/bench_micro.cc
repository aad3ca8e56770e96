// Micro-benchmarks (google-benchmark) for the substrate hot paths: graph
// construction, generators, the flat count map, the radix sort and
// end-to-end matching at small scale (sequential vs parallel).

#include <benchmark/benchmark.h>

#include "bench_main.h"
#include "reconcile/core/matcher.h"
#include "reconcile/gen/chung_lu.h"
#include "reconcile/gen/erdos_renyi.h"
#include "reconcile/gen/preferential_attachment.h"
#include "reconcile/gen/rmat.h"
#include "reconcile/sampling/independent.h"
#include "reconcile/seed/seeding.h"
#include "reconcile/util/flat_hash_map.h"
#include "reconcile/util/radix_sort.h"
#include "reconcile/util/rng.h"
#include "reconcile/util/thread_pool.h"

namespace reconcile {
namespace {

void BM_FlatCountMapInsert(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    FlatCountMap map(n);
    for (size_t i = 0; i < n; ++i) {
      map.AddCount(HashMix64(i) | 1, 1);
    }
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_FlatCountMapInsert)->Arg(1 << 14)->Arg(1 << 18);

void BM_RadixSortU64(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<uint64_t> source(n);
  for (size_t i = 0; i < n; ++i) source[i] = HashMix64(i);
  std::vector<uint64_t> scratch;
  for (auto _ : state) {
    std::vector<uint64_t> keys = source;
    RadixSortU64(keys, scratch);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_RadixSortU64)->Arg(1 << 14)->Arg(1 << 18);

EdgeList MakeBenchEdges(NodeId nodes) {
  Graph source = GenerateErdosRenyi(nodes, 20.0 / static_cast<double>(nodes),
                                    42);
  EdgeList edges(source.num_nodes());
  for (NodeId u = 0; u < source.num_nodes(); ++u) {
    for (NodeId v : source.Neighbors(u)) {
      if (v > u) edges.Add(u, v);
    }
  }
  return edges;
}

void BM_GraphFromEdgeList(benchmark::State& state) {
  EdgeList edges = MakeBenchEdges(static_cast<NodeId>(state.range(0)));
  for (auto _ : state) {
    EdgeList copy = edges;
    Graph g = Graph::FromEdgeList(std::move(copy));
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(edges.size()));
}
BENCHMARK(BM_GraphFromEdgeList)->Arg(1 << 14)->Arg(1 << 17);

// CSR construction, serial scatter+sort vs the pool-parallel passes.
void GraphBuildBenchmark(benchmark::State& state, int threads) {
  EdgeList edges = MakeBenchEdges(static_cast<NodeId>(state.range(0)));
  ThreadPool pool(threads);
  for (auto _ : state) {
    EdgeList copy = edges;
    Graph g = Graph::FromEdgeList(std::move(copy),
                                  threads > 1 ? &pool : nullptr);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(edges.size()));
}
void BM_GraphBuildSerial(benchmark::State& state) {
  GraphBuildBenchmark(state, 1);
}
void BM_GraphBuildParallel4T(benchmark::State& state) {
  GraphBuildBenchmark(state, 4);
}
BENCHMARK(BM_GraphBuildSerial)->Arg(1 << 17);
BENCHMARK(BM_GraphBuildParallel4T)->Arg(1 << 17);

// `Graph::FromEdgeList` on the two shapes its inputs come in, Erdős–Rényi
// with average degree 7 (an `ingest-er-2m` copy at 1 << 21 nodes):
//  * sorted: canonical pairs in ascending order, as the edge-list writers,
//    the samplers and the serve compaction emit them. Normalization only
//    checks the list;
//  * shuffled: the same edges in random order, half of them flipped, plus
//    2% duplicates and 1000 self-loops, as a generator or a relabelling
//    emits them. Normalization radix-sorts and dedups.
// The list copy each iteration hands over is not timed.
EdgeList MakeIngestEdges(NodeId nodes, bool shuffled) {
  Graph source = GenerateErdosRenyi(nodes, 7.0 / static_cast<double>(nodes),
                                    42);
  EdgeList edges(source.num_nodes());
  for (NodeId u = 0; u < source.num_nodes(); ++u) {
    for (NodeId v : source.Neighbors(u)) {
      if (v > u) edges.Add(u, v);
    }
  }
  if (!shuffled) return edges;
  Rng rng(43);
  std::vector<Edge>& list = edges.mutable_edges();
  const size_t distinct = list.size();
  for (size_t i = 0; i < distinct / 50; ++i) {
    list.push_back(list[rng.UniformInt(distinct)]);
  }
  for (int i = 0; i < 1000; ++i) {
    const NodeId v = static_cast<NodeId>(rng.UniformInt(nodes));
    list.emplace_back(v, v);
  }
  for (size_t i = list.size(); i > 1; --i) {
    if (rng.Bernoulli(0.5)) std::swap(list[i - 1].first, list[i - 1].second);
    std::swap(list[i - 1], list[rng.UniformInt(i)]);
  }
  return edges;
}

void FromEdgeListBenchmark(benchmark::State& state, bool shuffled) {
  const EdgeList edges =
      MakeIngestEdges(static_cast<NodeId>(state.range(0)), shuffled);
  for (auto _ : state) {
    state.PauseTiming();
    EdgeList copy = edges;
    state.ResumeTiming();
    Graph g = Graph::FromEdgeList(std::move(copy));
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(edges.size()));
}
void BM_GraphFromEdgeListSorted(benchmark::State& state) {
  FromEdgeListBenchmark(state, false);
}
void BM_GraphFromEdgeListShuffled(benchmark::State& state) {
  FromEdgeListBenchmark(state, true);
}
BENCHMARK(BM_GraphFromEdgeListSorted)
    ->Arg(1 << 17)
    ->Arg(1 << 21)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GraphFromEdgeListShuffled)
    ->Arg(1 << 17)
    ->Arg(1 << 21)
    ->Unit(benchmark::kMillisecond);

void BM_GenerateErdosRenyi(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  for (auto _ : state) {
    Graph g = GenerateErdosRenyi(n, 20.0 / n, 7);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_GenerateErdosRenyi)->Arg(1 << 14)->Arg(1 << 17);

void BM_GeneratePreferentialAttachment(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  for (auto _ : state) {
    Graph g = GeneratePreferentialAttachment(n, 10, 7);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_GeneratePreferentialAttachment)->Arg(1 << 14)->Arg(1 << 16);

void BM_GenerateRmat(benchmark::State& state) {
  RmatParams params;
  params.scale = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Graph g = GenerateRmat(params, 7);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_GenerateRmat)->Arg(14)->Arg(16);

void BM_GenerateChungLu(benchmark::State& state) {
  std::vector<double> weights =
      PowerLawWeights(static_cast<NodeId>(state.range(0)), 2.5, 20.0);
  for (auto _ : state) {
    Graph g = GenerateChungLu(weights, 7);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_GenerateChungLu)->Arg(1 << 14)->Arg(1 << 17);

// End-to-end matching on a PA graph, one vs many threads. Per-phase
// seconds from the final run's PhaseStats are exported as counters
// (emit_s / merge_s / scan_s / select_s).
void MatchBenchmark(benchmark::State& state, int threads) {
  Graph g = GeneratePreferentialAttachment(8000, 10, 5);
  RealizationPair pair = SampleIndependent(g, {}, 6);
  SeedOptions seed_options;
  seed_options.fraction = 0.1;
  auto seeds = GenerateSeeds(pair, seed_options, 7);
  MatcherConfig config;
  config.num_threads = threads;
  MatchResult::PhaseTimeTotals split;
  for (auto _ : state) {
    MatchResult result = UserMatching(pair.g1, pair.g2, seeds, config);
    benchmark::DoNotOptimize(result.NumLinks());
    split = result.SumPhaseSeconds();
  }
  state.counters["emit_s"] = split.emit_seconds;
  state.counters["merge_s"] = split.merge_seconds;
  state.counters["scan_s"] = split.scan_seconds;
  state.counters["select_s"] = split.select_seconds;
}

void BM_MatchIncremental1T(benchmark::State& state) {
  MatchBenchmark(state, 1);
}
void BM_MatchIncremental2T(benchmark::State& state) {
  MatchBenchmark(state, 2);
}
void BM_MatchIncremental4T(benchmark::State& state) {
  MatchBenchmark(state, 4);
}
BENCHMARK(BM_MatchIncremental1T)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MatchIncremental2T)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MatchIncremental4T)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace reconcile

RECONCILE_BENCHMARK_MAIN();
