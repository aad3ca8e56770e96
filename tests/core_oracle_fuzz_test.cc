// Randomized check of `UserMatching` against the paper-literal oracle
// (`user_matching_oracle.h`). Each case draws a graph pair and a matcher
// configuration from its index alone, so the index a failure prints
// reproduces it. Per case the final maps and the round count must be
// equal, and per round the new links, the open pairs and the emissions.
//
// Four execution modes that must not change the matching are drawn too:
//  * resume — the run snapshots after a drawn round, and a fresh
//    `MatcherState` under another thread count loads the snapshot and
//    finishes it; the rounds before the pause, the resumed rounds and the
//    final maps are checked as one run;
//  * memory budget — a 1-byte budget spills score tiers every round, and
//    the spill directory must be empty once the run is over;
//  * partition width — g1's ids are spread (`spread_ids.h`) by a stride
//    that puts the score partition anywhere from 2 to 256 shards wide;
//    spreading keeps the witnesses, the open pairs and the bucket schedule,
//    so the unspread run must equal the oracle on the pair as drawn;
//  * serve — the pair goes through an `IncrementalMatcher` with a drawn
//    stream of edge batches, and after the initial match and every batch
//    the served maps (and the rounds of the last rerun) must equal the
//    oracle on the current graphs. The test keeps its own copy of those
//    graphs, applying each batch by the documented rules rather than
//    reading them back from the session. A third of the served cases save
//    the session after a drawn batch, and a fresh session under another
//    thread count loads it and serves the rest of the stream.
//
// Tiny random pairs never bring a witness count near 255, where the score
// store's one-byte counts escape to full counts, so constructed hub cases
// (`EscapedCounts*`) cover that, each with and without a 1-byte budget.
#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "oracle_check.h"
#include "reconcile/core/matcher.h"
#include "reconcile/core/matcher_state.h"
#include "reconcile/gen/chung_lu.h"
#include "reconcile/gen/erdos_renyi.h"
#include "reconcile/gen/preferential_attachment.h"
#include "reconcile/gen/sbm.h"
#include "reconcile/graph/edge_list.h"
#include "reconcile/sampling/independent.h"
#include "reconcile/seed/seeding.h"
#include "reconcile/serve/incremental_matcher.h"
#include "reconcile/util/rng.h"
#include "spread_ids.h"
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
  // Resume: whether the run pauses, whether after an iteration's last round
  // (so the snapshot follows the between-iteration compaction) or inside an
  // iteration, where among those rounds (a fraction), and the thread count
  // the resumed state runs under.
  bool paused = false;
  bool pause_at_iteration_end = false;
  double pause_position = 0.0;
  int resume_threads = 0;
  // Runs under a 1-byte memory budget.
  bool budgeted = false;
  // The engine runs on g1 with its ids spread by `stride` (1: not spread),
  // so the score partition is about nodes * stride / 512 shards wide.
  NodeId stride = 1;

  // The score partition width the engine runs at (`ShardWidth`).
  NodeId Width() const {
    return std::clamp<NodeId>(nodes * stride / 512, 1, 256);
  }
  // Served: the initial match and `num_batches` drawn batches go through a
  // serve session (the pause and the budget above then do not apply). With
  // `serve_snapshot` the session is saved after batch
  // floor(snapshot_position * num_batches), 0 being the initial match, and
  // a fresh session under `resume_threads` serves the rest.
  bool served = false;
  int num_batches = 0;
  bool serve_snapshot = false;
  double snapshot_position = 0.0;

  int SnapshotBatch() const {
    return static_cast<int>(snapshot_position * num_batches);
  }

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
    if (served) {
      out << " served(batches=" << num_batches;
      if (serve_snapshot) {
        out << ", snapshot after batch " << SnapshotBatch()
            << ", resume_threads=" << resume_threads;
      }
      out << ")";
      return out.str();
    }
    if (paused) {
      out << " paused(pause_at_iteration_end=" << pause_at_iteration_end
          << ", position=" << pause_position
          << ", resume_threads=" << resume_threads << ")";
    }
    if (budgeted) out << " budget=1";
    if (stride > 1) out << " stride=" << stride << " (width " << Width() << ")";
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
  c.paused = rng.Bernoulli(0.25);
  // A run without bucketing has one round per iteration, so all its pauses
  // follow a compaction, and about half of all paused cases do.
  c.pause_at_iteration_end = rng.Bernoulli(0.25);
  c.pause_position = rng.UniformReal();
  // Another thread count in [1, 4].
  c.resume_threads =
      1 + static_cast<int>((static_cast<uint64_t>(c.config.num_threads) +
                            rng.UniformInt(3)) %
                           4);
  c.budgeted = rng.Bernoulli(0.25);
  c.served = rng.Bernoulli(0.1);
  c.num_batches = static_cast<int>(rng.UniformIntInRange(2, 4));
  c.serve_snapshot = rng.Bernoulli(1.0 / 3.0);
  c.snapshot_position = rng.UniformReal();
  // About a quarter of the unserved cases spread g1's ids, by a stride that
  // puts the partition width at a log-uniform draw from [2, 320]: widths
  // from 2 up to the cap of 256. They are a third of the unbudgeted ones: a
  // wide partition multiplies the tiers a 1-byte budget spills, and every
  // spill fsyncs.
  const bool spread = rng.Bernoulli(1.0 / 3.0);
  const double width = 2.0 * std::pow(160.0, rng.UniformReal());
  if (spread && !c.served && !c.budgeted) {
    c.stride = static_cast<NodeId>(std::ceil(512.0 * width / c.nodes));
  }
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

// A scratch path under the gtest temp dir, unique to this process, so two
// runs of the suite at once (two build trees) do not share snapshots or
// spill directories.
std::string ScratchPath(const std::string& name) {
  return testing::TempDir() + "/" + name + "." + std::to_string(::getpid());
}

size_t CountDirEntries(const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return 0;
  size_t n = 0;
  while (dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") ++n;
  }
  ::closedir(handle);
  return n;
}

// Where a paused case snapshots.
struct Pause {
  size_t round = 0;  // 1-based; 0 = the case does not pause
  bool iteration_end = false;
};

// The round after which a paused case snapshots: among the oracle's rounds
// that close an iteration before the last one, or among the rounds inside
// an iteration, as drawn; the other kind when the drawn kind has none. No
// pause when the run has a single round.
Pause PauseRound(const FuzzCase& c, const oracle::Result& expected) {
  std::vector<size_t> iteration_ends, inner;
  for (size_t r = 0; r + 1 < expected.rounds.size(); ++r) {
    const bool closes = expected.rounds[r].iteration !=
                        expected.rounds[r + 1].iteration;
    (closes ? iteration_ends : inner).push_back(r + 1);
  }
  const bool ends = c.pause_at_iteration_end ? !iteration_ends.empty()
                                             : inner.empty();
  const std::vector<size_t>& rounds = ends ? iteration_ends : inner;
  if (rounds.empty()) return Pause{};
  return Pause{rounds[static_cast<size_t>(
                   c.pause_position * static_cast<double>(rounds.size()))],
               ends};
}

// Runs `pause_round` rounds, snapshots to `path`, and finishes the run in a
// fresh state under `resume_threads`. The result carries the rounds of both
// states and the final maps; `*error` is set if the snapshot fails.
MatchResult RunPaused(const Graph& g1, const Graph& g2,
                      const std::vector<std::pair<NodeId, NodeId>>& seeds,
                      const MatcherConfig& config, size_t pause_round,
                      int resume_threads, const std::string& path,
                      std::string* error) {
  MatchResult before;
  {
    // Destroyed before the resumed state starts, as the process that wrote
    // the snapshot would be: two spill stores alive in one process name
    // their files alike.
    MatcherState state(g1, g2, config);
    state.SeedLinks(seeds);
    for (size_t r = 0; r < pause_round && !state.Done(); ++r) {
      state.RunRound();
    }
    if (!state.SaveSnapshot(path, error)) return {};
    before = state.TakeResult(0.0);
  }
  MatcherConfig resumed_config = config;
  resumed_config.num_threads = resume_threads;
  MatcherState state(g1, g2, resumed_config);
  state.SeedLinks(seeds);
  const bool loaded = state.LoadSnapshot(path, error);
  std::remove(path.c_str());
  if (!loaded) return {};
  while (!state.Done()) state.RunRound();
  MatchResult after = state.TakeResult(0.0);
  after.phases.insert(after.phases.begin(), before.phases.begin(),
                      before.phases.end());
  return after;
}

// The test's copy of one served graph. A batch applies here by the rules
// `IncrementalMatcher::ApplyBatch` documents, not by its code: in order,
// each insert makes its edge present and each delete absent, self-loops
// are dropped, and the node range grows to cover every edge present after
// the batch.
struct ServedGraph {
  NodeId num_nodes = 0;
  std::set<std::pair<NodeId, NodeId>> edges;  // (smaller, larger) id

  explicit ServedGraph(const Graph& g) : num_nodes(g.num_nodes()) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (NodeId v : g.Neighbors(u)) {
        if (u < v) edges.emplace(u, v);
      }
    }
  }

  void Apply(const std::vector<EdgeDelta>& batch, int graph) {
    for (const EdgeDelta& d : batch) {
      if (d.graph != graph || d.u == d.v) continue;
      const std::pair<NodeId, NodeId> edge(std::min(d.u, d.v),
                                           std::max(d.u, d.v));
      if (d.insert) {
        edges.insert(edge);
      } else {
        edges.erase(edge);
      }
    }
    for (const auto& [u, v] : edges) num_nodes = std::max(num_nodes, v + 1);
  }

  Graph Build() const {
    EdgeList list(num_nodes);
    for (const auto& [u, v] : edges) list.Add(u, v);
    return Graph::FromEdgeList(std::move(list), nullptr);
  }
};

// One drawn batch of 1-12 deltas over both graphs: deletes of present
// edges, inserts of absent ones, repeats of an earlier delta of the batch,
// self-loops, and inserts that reach up to 3 ids past a graph's end.
std::vector<EdgeDelta> DrawBatch(Rng& rng, const ServedGraph (&graphs)[2]) {
  std::vector<EdgeDelta> batch;
  const int size = 1 + static_cast<int>(rng.UniformInt(12));
  for (int i = 0; i < size; ++i) {
    const int graph = 1 + static_cast<int>(rng.UniformInt(2));
    const ServedGraph& g = graphs[graph - 1];
    const NodeId n = std::max<NodeId>(g.num_nodes, 2);
    const NodeId u = static_cast<NodeId>(rng.UniformInt(n));
    switch (rng.UniformInt(5)) {
      case 0: {  // delete a present edge
        if (g.edges.empty()) break;
        auto it = g.edges.begin();
        std::advance(it, rng.UniformInt(g.edges.size()));
        batch.push_back(EdgeDelta{graph, false, it->second, it->first});
        break;
      }
      case 1: {  // insert an absent edge
        const NodeId v = static_cast<NodeId>(rng.UniformInt(n));
        if (u != v && !g.edges.count({std::min(u, v), std::max(u, v)})) {
          batch.push_back(EdgeDelta{graph, true, u, v});
        }
        break;
      }
      case 2:  // repeat an earlier delta of this batch
        if (!batch.empty()) {
          batch.push_back(batch[rng.UniformInt(batch.size())]);
        }
        break;
      case 3:  // self-loop
        batch.push_back(EdgeDelta{graph, rng.Bernoulli(0.5), u, u});
        break;
      case 4:  // grow the node range
        batch.push_back(EdgeDelta{
            graph, true, u,
            g.num_nodes + static_cast<NodeId>(rng.UniformInt(3))});
        break;
    }
  }
  return batch;
}

// A served case: the initial match, then each drawn batch, through one
// session (two when the case snapshots). Returns the first difference from
// the oracle on the current graphs, naming the batch (0 = initial match).
std::string RunServed(const FuzzCase& c, const RealizationPair& pair,
                      const std::vector<std::pair<NodeId, NodeId>>& seeds,
                      uint64_t seed) {
  Rng rng(HashMix64(seed + 0x5E7E));
  ServedGraph graphs[2] = {ServedGraph(pair.g1), ServedGraph(pair.g2)};
  ServeConfig config;
  config.matcher = c.config;
  auto session =
      std::make_unique<IncrementalMatcher>(pair.g1, pair.g2, seeds, config);
  const std::string path = ScratchPath("oracle_fuzz_serve.ckpt");
  // The rounds of the last rerun: a batch that changes no edge keeps the
  // matching, and with it the rounds that produced it.
  std::vector<PhaseStats> rounds;
  for (int b = 0; b <= c.num_batches; ++b) {
    std::vector<EdgeDelta> batch;
    if (b > 0) {
      batch = DrawBatch(rng, graphs);
      graphs[0].Apply(batch, 1);
      graphs[1].Apply(batch, 2);
    }
    ServeBatchStats stats = session->ApplyBatch(batch);
    if (!stats.rounds.empty()) rounds = std::move(stats.rounds);
    MatchResult served = session->Result();
    served.phases = rounds;
    const oracle::Result expected =
        oracle::UserMatching(graphs[0].Build(), graphs[1].Build(), seeds,
                             OracleSettings(c.config));
    const std::string difference = OracleDifference(served, expected);
    if (!difference.empty()) {
      return "after batch " + std::to_string(b) + ": " + difference;
    }
    if (c.serve_snapshot && b == c.SnapshotBatch()) {
      std::string error;
      if (!session->SaveSnapshot(path, &error)) return "snapshot: " + error;
      ServeConfig resumed = config;
      resumed.matcher.num_threads = c.resume_threads;
      session = std::make_unique<IncrementalMatcher>(pair.g1, pair.g2, seeds,
                                                     resumed);
      const bool loaded = session->LoadSnapshot(path, &error);
      std::remove(path.c_str());
      if (!loaded) return "snapshot load: " + error;
    }
  }
  return "";
}

// Runs one case; returns the difference (empty when the engine agrees) and
// fills `*pause` with where the case paused.
std::string RunCase(const FuzzCase& c, Pause* pause) {
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

  if (c.served) return RunServed(c, pair, seeds, seed);

  const oracle::Result expected = oracle::UserMatching(
      pair.g1, pair.g2, seeds, OracleSettings(c.config));

  MatcherConfig config = c.config;
  const std::string spill_dir = ScratchPath("oracle_fuzz_spill");
  if (c.budgeted) {
    config.memory_budget_bytes = 1;
    config.score_dir = spill_dir;
  }
  if (c.paused) *pause = PauseRound(c, expected);
  const size_t pause_round = pause->round;
  const Graph spread_g1 = c.stride > 1 ? SpreadIds(pair.g1, c.stride) : Graph();
  const Graph& g1 = c.stride > 1 ? spread_g1 : pair.g1;
  const auto engine_seeds = SpreadSeeds(seeds, c.stride);
  MatchResult engine;
  if (pause_round > 0) {
    std::string error;
    engine = RunPaused(g1, pair.g2, engine_seeds, config, pause_round,
                       c.resume_threads,
                       ScratchPath("oracle_fuzz.ckpt"), &error);
    if (!error.empty()) return "snapshot: " + error;
  } else {
    engine = UserMatching(g1, pair.g2, engine_seeds, config);
  }
  if (c.stride > 1) engine = Unspread(std::move(engine), c.stride);

  std::string paused;
  if (pause_round > 0) {
    paused = " (paused after round " + std::to_string(pause_round) +
             (pause->iteration_end ? ", the last of its iteration)"
                                   : ", inside its iteration)");
  }
  const std::string difference = OracleDifference(engine, expected);
  if (!difference.empty()) return difference + paused;
  if (c.budgeted) {
    size_t emissions = 0;
    size_t tiers_spilled = 0;
    for (const PhaseStats& phase : engine.phases) {
      emissions += phase.emissions;
      tiers_spilled += phase.tiers_spilled;
    }
    if (emissions > 0 && tiers_spilled == 0) {
      return "the budgeted run stored pairs but spilled no tier" + paused;
    }
    if (CountDirEntries(spill_dir) != 0) {
      return "spill files left in " + spill_dir + paused;
    }
  }
  return "";
}

// Runs cases [first, first + count) and reports the first few failures in
// full, then how many failed.
void RunFuzz(uint64_t first, uint64_t count, NodeId min_nodes,
             NodeId max_nodes) {
  constexpr int kReported = 5;
  int failures = 0;
  size_t paused = 0, paused_at_iteration_end = 0, budgeted = 0,
         budgeted_and_paused = 0, served = 0, served_and_snapshotted = 0,
         spread = 0;
  NodeId min_width = 256, max_width = 1;
  for (uint64_t index = first; index < first + count; ++index) {
    const FuzzCase c = DrawCase(index, min_nodes, max_nodes);
    Pause pause;
    const std::string difference = RunCase(c, &pause);
    paused += pause.round > 0;
    paused_at_iteration_end += pause.round > 0 && pause.iteration_end;
    budgeted += c.budgeted && !c.served;
    budgeted_and_paused += c.budgeted && pause.round > 0;
    served += c.served;
    served_and_snapshotted += c.served && c.serve_snapshot;
    if (c.stride > 1) {
      ++spread;
      min_width = std::min(min_width, c.Width());
      max_width = std::max(max_width, c.Width());
    }
    if (difference.empty()) continue;
    if (++failures <= kReported) {
      ADD_FAILURE() << c.Describe() << "\n  first difference: " << difference;
    }
  }
  std::printf(
      "%llu cases: %zu paused (%zu after an iteration's last round), %zu "
      "budgeted (%zu also paused), %zu served (%zu snapshotted), %zu spread "
      "(partition widths %u-%u)\n",
      static_cast<unsigned long long>(count), paused, paused_at_iteration_end,
      budgeted, budgeted_and_paused, served, served_and_snapshotted, spread,
      min_width, max_width);
  ::rmdir(ScratchPath("oracle_fuzz_spill").c_str());
  EXPECT_EQ(failures, 0) << failures << " of " << count
                         << " cases disagree with the oracle";
  EXPECT_GT(paused_at_iteration_end, 0u);
  EXPECT_GT(paused - paused_at_iteration_end, 0u);
  EXPECT_GT(budgeted_and_paused, 0u);
  EXPECT_GT(served_and_snapshotted, 0u);
  EXPECT_GT(spread, 0u);
}

// --- Witness counts past 255 ---------------------------------------------
// Constructed pairs whose accept hinges on a total of 255 or more: the score
// store keeps one count byte per pair and escapes such totals to a side list
// (`util/row_run.h`), so a store that saturated at 255 would tie the hub
// with its rival and accept nothing.

Graph BuildGraph(NodeId n, const std::vector<std::pair<NodeId, NodeId>>& edges) {
  EdgeList list(n);
  for (const auto& [u, v] : edges) list.Add(u, v);
  return Graph::FromEdgeList(std::move(list), nullptr);
}

struct ConstructedPair {
  Graph g1;
  Graph g2;
  std::vector<std::pair<NodeId, NodeId>> seeds;
};

// g1: hub 0 with leaves 1..`leaves`. g2: hub 0 and rival 1 with leaves
// 2..`leaves` + 1; the hub is adjacent to every leaf and the rival to the
// first `rival_leaves`. Leaf k of g1 is seeded with leaf k of g2, so one
// emission gives (hub, hub) `leaves` witnesses and (hub, rival)
// `rival_leaves`.
ConstructedPair HubPair(NodeId leaves, NodeId rival_leaves) {
  std::vector<std::pair<NodeId, NodeId>> e1, e2;
  ConstructedPair p;
  for (NodeId k = 1; k <= leaves; ++k) {
    e1.emplace_back(0, k);
    e2.emplace_back(0, k + 1);
    if (k <= rival_leaves) e2.emplace_back(1, k + 1);
    p.seeds.emplace_back(k, k + 1);
  }
  p.g1 = BuildGraph(leaves + 1, e1);
  p.g2 = BuildGraph(leaves + 2, e2);
  return p;
}

// Checks the oracle accepts (0, 0) — the link a saturated count would
// lose — then the engine against the oracle, with and without a 1-byte
// memory budget.
void ExpectHubLinkAsTheOracle(const ConstructedPair& p, MatcherConfig config) {
  const oracle::Result expected =
      oracle::UserMatching(p.g1, p.g2, p.seeds, OracleSettings(config));
  ASSERT_EQ(expected.map_1to2[0], 0u) << "the case no longer hinges on 255+";
  ExpectMatchesOracle(p.g1, p.g2, p.seeds, config);
  config.memory_budget_bytes = 1;
  config.score_dir = ScratchPath("oracle_escape_spill");
  ExpectMatchesOracle(p.g1, p.g2, p.seeds, config);
  EXPECT_EQ(CountDirEntries(config.score_dir), 0u);
  ::rmdir(config.score_dir.c_str());
}

TEST(EscapedCountsTest, ThreeHundredWitnessesInOneEmission) {
  MatcherConfig config;
  config.num_threads = 2;
  ExpectHubLinkAsTheOracle(HubPair(300, 260), config);
}

// One round without bucketing, so the accept ends the run before the hub
// link's 70,000 x 70,000 witnesses would be emitted.
TEST(EscapedCountsTest, SeventyThousandWitnessesFromSeededHubs) {
  MatcherConfig config;
  config.num_threads = 3;
  config.use_degree_bucketing = false;
  config.num_iterations = 1;
  ExpectHubLinkAsTheOracle(HubPair(70000, 60000), config);
}

// Iteration 1 gives (hub, hub) 200 witnesses against 270 for each of two
// rivals, a tie that accepts nothing at the hub, and accepts 100 side
// links (x1_i, x2_i). Iteration 2 emits those: each adds one witness to
// (hub, hub), which reaches 300 only as the sum of the two rounds and wins.
// Both totals sit in one small cell, so the second round's delta folds into
// the base and the fold writes the escaped 300.
//   g1: hub 0; a1_k = 1 + k (k < 270) and x1_i = 271 + i (i < 100) on the
//       hub; s1_i = 371 + i on x1_i.
//   g2: hub 0, rivals 1 and 2; a2_k = 3 + k on both rivals, and on the hub
//       for k < 200; x2_i = 273 + i on the hub; s2_i = 373 + i on x2_i.
//   Seeds (a1_k, a2_k) and (s1_i, s2_i).
TEST(EscapedCountsTest, TotalCrossesTheEscapeOnlyAcrossTwoRounds) {
  std::vector<std::pair<NodeId, NodeId>> e1, e2;
  ConstructedPair p;
  for (NodeId k = 0; k < 270; ++k) {
    e1.emplace_back(0, 1 + k);
    e2.emplace_back(1, 3 + k);
    e2.emplace_back(2, 3 + k);
    if (k < 200) e2.emplace_back(0, 3 + k);
    p.seeds.emplace_back(1 + k, 3 + k);
  }
  for (NodeId i = 0; i < 100; ++i) {
    e1.emplace_back(0, 271 + i);
    e1.emplace_back(271 + i, 371 + i);
    e2.emplace_back(0, 273 + i);
    e2.emplace_back(273 + i, 373 + i);
    p.seeds.emplace_back(371 + i, 373 + i);
  }
  p.g1 = BuildGraph(471, e1);
  p.g2 = BuildGraph(473, e2);
  MatcherConfig config;
  config.num_threads = 2;
  config.min_score = 1;
  config.use_degree_bucketing = false;
  config.num_iterations = 2;
  const oracle::Result expected =
      oracle::UserMatching(p.g1, p.g2, p.seeds, OracleSettings(config));
  ASSERT_EQ(expected.rounds.size(), 2u);
  EXPECT_EQ(expected.rounds[0].new_links.size(), 100u);
  ExpectHubLinkAsTheOracle(p, config);
}

// Tier-1: tiny pairs only (the oracle recounts every round from all links,
// so larger pairs are slow), at a fixed case count. About a quarter of the
// cases pause and resume, a quarter run under the budget and a tenth are
// served; RunFuzz prints how many of each ran.
TEST(OracleFuzzTest, TinyPairsMatchTheOracle) { RunFuzz(0, 2000, 20, 120); }

// More cases, and some pairs of 120-400 nodes. Run with
// --gtest_also_run_disabled_tests --gtest_filter='*LongFuzz*'.
TEST(OracleFuzzTest, DISABLED_LongFuzz) {
  RunFuzz(1000000, 20000, 20, 120);
  RunFuzz(2000000, 1500, 120, 400);
}

}  // namespace
}  // namespace reconcile
