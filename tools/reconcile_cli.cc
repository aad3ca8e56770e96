// reconcile_cli — run any reconciliation experiment from the command line.
//
// The pipeline mirrors the library (and the paper): pick an underlying
// network model, a two-copy realization process, a seeding strategy and an
// *algorithm* — any key registered in `Registry::Global()` (the core
// User-Matching matcher or any baseline), configured uniformly through
// `key=value` parameters. The tool reports good/bad link counts, precision
// and recall against the hidden ground truth, optionally stratified by
// degree, and can persist the generated copies.
//
// Examples:
//   reconcile_cli --model=pa --nodes=50000 --m=20 --process=independent
//                 --s1=0.5 --s2=0.5 --seed-fraction=0.1 --threshold=2
//   reconcile_cli --model=facebook --scale=0.25 --process=cascade --p=0.05
//   reconcile_cli --algorithm=percolation --param threshold=3
//   reconcile_cli --algorithm=ns09:theta=1,max-sweeps=3 --model=er
//   reconcile_cli --list-algorithms
//
// The flag reference lives in `kUsage` below — run with `--help` to print
// it (docs/cli.md is generated from that output by tools/gen_cli_docs.sh,
// and CI diffs the two, so the reference cannot rot).

#include <cstdio>
#include <iostream>
#include <limits>
#include <memory>
#include <string>

#include "reconcile/api/registry.h"
#include "reconcile/api/spec.h"
#include "reconcile/eval/datasets.h"
#include "reconcile/eval/disagreement.h"
#include "reconcile/eval/match_io.h"
#include "reconcile/eval/metrics.h"
#include "reconcile/eval/table.h"
#include "reconcile/eval/validation.h"
#include "reconcile/gen/chung_lu.h"
#include "reconcile/gen/erdos_renyi.h"
#include "reconcile/gen/preferential_attachment.h"
#include "reconcile/gen/rmat.h"
#include "reconcile/gen/watts_strogatz.h"
#include "reconcile/graph/io.h"
#include "reconcile/sampling/attack.h"
#include "reconcile/sampling/cascade.h"
#include "reconcile/sampling/community.h"
#include "reconcile/sampling/independent.h"
#include "reconcile/sampling/timeslice.h"
#include "reconcile/seed/seeding.h"
#include "reconcile/util/fault.h"
#include "reconcile/util/flags.h"
#include "reconcile/util/logging.h"
#include "reconcile/util/shutdown.h"
#include "reconcile/util/timer.h"

namespace reconcile {
namespace {

// The --help text. docs/cli.md embeds this output verbatim (generated by
// tools/gen_cli_docs.sh; CI diffs doc against binary), so edits here are
// automatically reflected there — regenerate the doc after changing it.
constexpr const char kUsage[] = R"(reconcile_cli — run any reconciliation experiment from the command line.

Pipeline: pick an underlying network model, a two-copy realization process,
a seeding strategy and an algorithm (any key registered in the algorithm
registry), then report precision/recall against the hidden ground truth.

Usage: reconcile_cli [--flag=value ...]   (also accepts --flag value)

Network model (defaults in brackets):
  --model         er | pa | rmat | chunglu | ws | facebook | enron |
                  dblp | gowalla | wikipedia | affiliation   [pa]
  --nodes         node count for er/pa/chunglu/ws             [20000]
  --m             PA edges per node                           [20]
  --er-p          ER edge probability                         [0.001]
  --rmat-scale    RMAT scale (2^scale nodes)                  [16]
  --exponent      Chung-Lu power-law exponent                 [2.5]
  --avg-degree    Chung-Lu average degree                     [20]
  --scale         dataset stand-in scale in (0,1]             [0.25]

Realization process (how the two partial copies are sampled):
  --process       independent | cascade | timeslice | community [independent]
  --s1 --s2       edge survival probabilities                 [0.5 0.5]
  --node-keep1/2  node survival probabilities                 [1 1]
  --noise1/2      noise-edge fraction                         [0 0]
  --p             cascade probability                         [0.05]
  --delete-prob   community (interest) deletion probability   [0.25]
  --periods --repeat-lambda --participation   timeslice knobs [12 1.0 1.0]
  --attack        sybil attach probability (0 = no attack)    [0]

Seeds:
  --seed-fraction seed link probability l                     [0.1]
  --seed-bias     uniform | degree | top                      [uniform]
  --top-count     #seeds for --seed-bias=top                  [100]
  --wrong-seeds   fraction of corrupted seeds                 [0]

Algorithm (the registry speaks `key[:k=v,...]`; --param merges more):
  --algorithm     registry key, optionally with inline params
                  ("core", "percolation:threshold=3")         [core]
  --param         k=v[,k=v...] merged into the algorithm spec
  --list-algorithms   print the registered algorithms and their params
  --help          print this reference plus the algorithm list

Core-matcher shorthands (equivalent --param spellings shown):
  --threshold     --param threshold=...                       [2]
  --iterations    --param iterations=...                      [2]
  --threads       --param threads=... (0 = hardware)          [0]
  --no-bucketing  --param bucketing=false                     [false]

Crash safety (core matcher; see DESIGN.md §2.4):
  --checkpoint-dir    --param checkpoint-dir=... — snapshot the round
                  cursor and the committed links into this directory
                  (state-round-NNNNNN.ckpt, written atomically) after
                  each checkpointed round; a resume rebuilds the scores
                  from the links
  --checkpoint-every  --param checkpoint-every=N — checkpoint cadence in
                  completed rounds                             [1]
  --checkpoint-keep   --param checkpoint-keep=K — after each successful
                  snapshot write, prune all but the newest K checkpoints
                  (0 keeps everything; prune failures are a non-fatal
                  stderr note)                                 [0]
  --resume        --param resume=true — restore the newest valid snapshot
                  in --checkpoint-dir before matching; corrupt snapshots
                  fall back to older ones (fresh start if none survives);
                  the resumed matching is bit-identical to an
                  uninterrupted run
  --fault         deterministic fault injection for crash-safety testing,
                  armed process-wide before the run (e.g.
                  crash:after_round=3, io:checkpoint_write_fail,
                  io:spill_write_fail, io:enospc_after=N; overrides the
                  RECONCILE_FAULT env var, which does the same). An
                  unknown point, a kind that does not fit its point, or
                  a serve-only point (serve_apply, after_batch) is a
                  usage error

Out-of-core score store (core matcher; DESIGN.md §2.5):
  --memory-budget --param memory-budget=BYTES — hard budget for the
                  resident score-tier payload (0 = unbudgeted). When a
                  round's emission pushes the resident tiers past the
                  budget, the biggest cold tiers spill to mmap'd files
                  under --score-dir until it fits; selection streams the
                  spilled tiers, so the matching is bit-identical to the
                  unbudgeted run. Spill failures (ENOSPC, torn write,
                  failed mmap) fall back to resident with a stderr note —
                  never a crash, never a wrong matching          [0]
  --score-dir     --param score-dir=DIR — directory for the spill scratch
                  files (spill-<pid>-<seq>.spill). Required when
                  --memory-budget > 0; created on first spill; scratch is
                  removed on clean exit, including graceful stops

On SIGINT/SIGTERM the matcher finishes the in-flight round, writes a final
checkpoint (when --checkpoint-dir is set) and exits 0 with the partial
matching — a later --resume run continues where it stopped.

Validation and comparison (eval/validation.h, eval/disagreement.h):
  --validate-budget  PAC-validate the matching: verify K uniformly sampled
                  discovered links against ground truth and report
                  Clopper-Pearson [lo, hi] intervals on precision and
                  recall (K >= #links verifies everything — exact,
                  zero-width intervals)                        [all]
  --validate-delta   confidence parameter: intervals hold with probability
                  >= 1-delta (passing only this flag also turns
                  validation on)                               [0.05]
  --compare       second registry spec ("bp", "ns09:theta=1") run on the
                  same pair and seeds; prints its quality plus the
                  disagreement report — correct pairs only one side found,
                  raw link agree/conflict counts               [none]

Output and misc:
  --phase-table   per-round table: the pairs selection reads (the
                  levels the round makes eligible, and the delta's
                  pairs on levels already eligible), those >= T, the
                  open ones it tests (>= T, both ends unmatched) and
                  emit/merge/scan/select seconds
  --degree-table  per-degree-band precision/recall            [false]
  --rng-seed      master RNG seed                             [42]
  --save-g1/--save-g2   write copies as text edge lists
  --save-matching write the final links (u v [seed], sorted)

Exit codes:
  0  success (including a graceful SIGINT/SIGTERM stop)
  1  runtime I/O failure (unreadable input, unwritable output)
  2  usage error (unknown or malformed flag value, out-of-range
     scenario flag, malformed --param, bad spec)
)";

void PrintAlgorithms() {
  // Everything here comes from the registry, so extension algorithms and
  // new parameters show up without touching the CLI.
  std::printf("registered algorithms (--algorithm=<key>[:k=v,...], extra "
              "--param k=v[,k=v...]):\n%s",
              Registry::Global().DescribeAll().c_str());
}

// Builds the main algorithm spec: --algorithm (key plus optional inline
// params), --param lists, then the legacy shorthand flags — only when
// explicitly passed, so non-core algorithms aren't polluted with matcher
// defaults they would reject.
bool BuildSpec(const Flags& flags, ReconcilerSpec* spec, std::string* error) {
  if (!ReconcilerSpec::Parse(flags.GetString("algorithm", "core"), spec,
                             error)) {
    return false;
  }
  if (flags.Has("param") &&
      !spec->MergeParams(flags.GetString("param", ""), error)) {
    return false;
  }
  if (flags.Has("threshold")) {
    spec->Set("threshold", std::to_string(flags.GetInt("threshold", 2)));
  }
  if (flags.Has("iterations")) {
    spec->Set("iterations", std::to_string(flags.GetInt("iterations", 2)));
  }
  if (flags.Has("threads")) {
    spec->Set("threads", std::to_string(flags.GetInt("threads", 0)));
  }
  if (flags.GetBool("no-bucketing", false)) {
    spec->Set("bucketing", "false");
  }
  if (flags.Has("checkpoint-dir")) {
    spec->Set("checkpoint-dir", flags.GetString("checkpoint-dir", ""));
  }
  if (flags.Has("checkpoint-every")) {
    spec->Set("checkpoint-every",
              std::to_string(flags.GetInt("checkpoint-every", 1)));
  }
  if (flags.Has("checkpoint-keep")) {
    spec->Set("checkpoint-keep",
              std::to_string(flags.GetInt("checkpoint-keep", 0)));
  }
  if (flags.Has("memory-budget")) {
    spec->Set("memory-budget",
              std::to_string(flags.GetInt("memory-budget", 0)));
  }
  if (flags.Has("score-dir")) {
    spec->Set("score-dir", flags.GetString("score-dir", ""));
  }
  if (flags.GetBool("resume", false)) {
    spec->Set("resume", "true");
  }
  return true;
}

// Range checks for the scenario flags the library would abort on, or accept
// as nonsense, run before the pair build. A flag is checked only when the
// chosen model and process read it, so an irrelevant one still draws the
// unused-flag warning. False (after one stderr line naming the flag and
// its range) on the first value out of range.
bool ScenarioFlagsInRange(const Flags& flags, const std::string& model,
                          const std::string& process) {
  const bool generated =
      model == "er" || model == "pa" || model == "chunglu" || model == "ws";
  const bool sampled = model != "wikipedia" && model != "affiliation";
  const bool independent = sampled && process == "independent";
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Range {
    bool read;
    const char* flag;
    double lo;
    double hi;
    bool open_low;
    const char* text;
  };
  const Range ranges[] = {
      {generated, "nodes", 0, kInvalidNode, false, "[0, 4294967295]"},
      {model == "er", "er-p", 0, 1, false, "[0, 1]"},
      {model == "chunglu", "exponent", 2, kInf, true, "> 2"},
      {model == "chunglu", "avg-degree", 0, kInf, true, "> 0"},
      {independent, "s1", 0, 1, false, "[0, 1]"},
      {independent, "s2", 0, 1, false, "[0, 1]"},
      {independent, "node-keep1", 0, 1, false, "[0, 1]"},
      {independent, "node-keep2", 0, 1, false, "[0, 1]"},
      {independent, "noise1", 0, kInf, false, ">= 0"},
      {independent, "noise2", 0, kInf, false, ">= 0"},
      {sampled && process == "cascade", "p", 0, 1, true, "(0, 1]"},
      {true, "seed-fraction", 0, 1, false, "[0, 1]"},
      {true, "wrong-seeds", 0, 1, false, "[0, 1]"},
  };
  for (const Range& range : ranges) {
    if (!range.read || !flags.Has(range.flag)) continue;
    const double value = flags.GetDouble(range.flag, 0.0);
    if ((range.open_low ? value > range.lo : value >= range.lo) &&
        value <= range.hi) {
      continue;
    }
    std::fprintf(stderr, "--%s=%s is out of range (want %s)\n", range.flag,
                 flags.GetString(range.flag, "").c_str(), range.text);
    return false;
  }
  return true;
}

void PrintQuality(const MatchQuality& quality) {
  std::printf("  good %zu | bad %zu | precision %.2f%% | recall(all) %.2f%% | "
              "recall(new) %.2f%%\n",
              quality.new_good, quality.new_bad, 100.0 * quality.precision,
              100.0 * quality.recall_all, 100.0 * quality.recall_new);
}

int RunCli(const Flags& flags) {
  if (flags.GetBool("help", false)) {
    std::printf("%s\n", kUsage);
    PrintAlgorithms();
    return 0;
  }
  if (flags.GetBool("list-algorithms", false)) {
    PrintAlgorithms();
    return 0;
  }

  const uint64_t rng_seed = static_cast<uint64_t>(flags.GetInt("rng-seed", 42));
  const std::string model = flags.GetString("model", "pa");
  const std::string process = flags.GetString("process", "independent");
  const double scale = flags.GetDouble("scale", 0.25);

  // --- Faults and algorithm resolution (fail before the pair build). -----
  std::string error;
  if (flags.Has("fault") &&
      !ArmFaults(flags.GetString("fault", ""), &error, FaultScope::kBatch)) {
    std::fprintf(stderr, "--fault=%s: %s\n",
                 flags.GetString("fault", "").c_str(), error.c_str());
    return 2;
  }
  ReconcilerSpec spec;
  if (!BuildSpec(flags, &spec, &error)) {
    std::fprintf(stderr, "bad --algorithm/--param: %s\n", error.c_str());
    return 2;
  }
  std::unique_ptr<Reconciler> reconciler =
      Registry::Global().Create(spec, &error);
  if (reconciler == nullptr) {
    std::fprintf(stderr, "%s\n", error.c_str());
    PrintAlgorithms();
    return 2;
  }

  if (!ScenarioFlagsInRange(flags, model, process)) return 2;

  // --- Underlying network / pair construction. ---------------------------
  Timer build_timer;
  RealizationPair pair;
  bool pair_ready = false;
  Graph underlying;
  if (model == "er") {
    underlying = GenerateErdosRenyi(
        static_cast<NodeId>(flags.GetInt("nodes", 20000)),
        flags.GetDouble("er-p", 0.001), rng_seed);
  } else if (model == "pa") {
    underlying = GeneratePreferentialAttachment(
        static_cast<NodeId>(flags.GetInt("nodes", 20000)),
        static_cast<int>(flags.GetInt("m", 20)), rng_seed);
  } else if (model == "rmat") {
    RmatParams params;
    params.scale = static_cast<int>(flags.GetInt("rmat-scale", 16));
    underlying = GenerateRmat(params, rng_seed);
  } else if (model == "chunglu") {
    std::vector<double> weights = PowerLawWeights(
        static_cast<NodeId>(flags.GetInt("nodes", 20000)),
        flags.GetDouble("exponent", 2.5), flags.GetDouble("avg-degree", 20.0));
    underlying = GenerateChungLu(weights, rng_seed);
  } else if (model == "ws") {
    underlying = GenerateWattsStrogatz(
        static_cast<NodeId>(flags.GetInt("nodes", 20000)), 10, 0.1, rng_seed);
  } else if (model == "facebook") {
    underlying = MakeFacebookStandin(scale, rng_seed);
  } else if (model == "enron") {
    underlying = MakeEnronStandin(scale, rng_seed);
  } else if (model == "dblp") {
    underlying = MakeDblpStandin(scale, rng_seed);
  } else if (model == "gowalla") {
    underlying = MakeGowallaStandin(scale, rng_seed);
  } else if (model == "wikipedia") {
    pair = MakeWikipediaPair(scale, rng_seed);
    pair_ready = true;
  } else if (model == "affiliation") {
    if (process != "community") {
      std::fprintf(stderr,
                   "--model=affiliation requires --process=community "
                   "(got --process=%s)\n",
                   process.c_str());
      return 2;
    }
    AffiliationNetwork net = MakeAffiliationStandin(scale, rng_seed);
    pair = SampleCommunity(net, flags.GetDouble("delete-prob", 0.25),
                           rng_seed + 1);
    pair_ready = true;
  } else {
    std::fprintf(stderr, "unknown --model=%s\n", model.c_str());
    return 2;
  }

  if (!pair_ready) {
    if (process == "independent") {
      IndependentSampleOptions options;
      options.s1 = flags.GetDouble("s1", 0.5);
      options.s2 = flags.GetDouble("s2", 0.5);
      options.node_keep1 = flags.GetDouble("node-keep1", 1.0);
      options.node_keep2 = flags.GetDouble("node-keep2", 1.0);
      options.noise1 = flags.GetDouble("noise1", 0.0);
      options.noise2 = flags.GetDouble("noise2", 0.0);
      pair = SampleIndependent(underlying, options, rng_seed + 1);
    } else if (process == "cascade") {
      CascadeSampleOptions options;
      options.p = flags.GetDouble("p", 0.05);
      pair = SampleCascade(underlying, options, rng_seed + 1);
    } else if (process == "timeslice") {
      TimesliceOptions options;
      options.num_periods = static_cast<int>(flags.GetInt("periods", 12));
      options.repeat_lambda = flags.GetDouble("repeat-lambda", 1.0);
      options.participation = flags.GetDouble("participation", 1.0);
      pair = SampleTimeslice(underlying, options, rng_seed + 1);
    } else {
      std::fprintf(stderr, "unknown --process=%s for model %s\n",
                   process.c_str(), model.c_str());
      return 2;
    }
  }

  double attack = flags.GetDouble("attack", 0.0);
  if (attack > 0.0) {
    AttackOptions options;
    options.attach_prob = attack;
    pair = ApplyAttack(pair, options, rng_seed + 2);
  }
  std::printf("pair built in %.2fs: g1 %u nodes / %zu edges, g2 %u nodes / "
              "%zu edges, identifiable %zu\n",
              build_timer.Seconds(), pair.g1.num_nodes(), pair.g1.num_edges(),
              pair.g2.num_nodes(), pair.g2.num_edges(),
              pair.NumIdentifiable());

  if (flags.Has("save-g1") &&
      !WriteEdgeListText(pair.g1, flags.GetString("save-g1", ""))) {
    std::fprintf(stderr, "cannot write --save-g1=%s\n",
                 flags.GetString("save-g1", "").c_str());
    return 1;
  }
  if (flags.Has("save-g2") &&
      !WriteEdgeListText(pair.g2, flags.GetString("save-g2", ""))) {
    std::fprintf(stderr, "cannot write --save-g2=%s\n",
                 flags.GetString("save-g2", "").c_str());
    return 1;
  }

  // --- Seeds. -------------------------------------------------------------
  SeedOptions seeding;
  seeding.fraction = flags.GetDouble("seed-fraction", 0.1);
  seeding.wrong_fraction = flags.GetDouble("wrong-seeds", 0.0);
  std::string bias = flags.GetString("seed-bias", "uniform");
  if (bias == "degree") {
    seeding.bias = SeedBias::kDegreeProportional;
  } else if (bias == "top") {
    seeding.bias = SeedBias::kTopDegree;
    seeding.fixed_count = static_cast<size_t>(flags.GetInt("top-count", 100));
  } else if (bias != "uniform") {
    std::fprintf(stderr,
                 "unknown --seed-bias=%s (want uniform, degree or top)\n",
                 bias.c_str());
    return 2;
  }
  auto seeds = GenerateSeeds(pair, seeding, rng_seed + 3);
  std::printf("seeds: %zu (bias=%s)\n", seeds.size(), bias.c_str());

  // --- Match. --------------------------------------------------------------
  // SIGINT/SIGTERM from here on request a graceful stop: the matcher
  // finishes its round, writes a final checkpoint (when configured) and
  // returns the partial matching, which is reported and saved normally.
  InstallGracefulShutdownHandlers();
  MatchResult result = reconciler->Run(pair.g1, pair.g2, seeds);
  if (GracefulStopRequested()) {
    std::fprintf(stderr,
                 "graceful stop: matching interrupted after %zu rounds; "
                 "partial result follows (resume with --resume)\n",
                 result.phases.size());
  }
  MatchQuality quality = Evaluate(pair, result);
  std::printf("\n%s: %.2fs, %zu rounds\n", reconciler->Describe().c_str(),
              result.total_seconds, result.phases.size());
  if (reconciler->ExposesPhaseStats() && !result.phases.empty()) {
    const MatchResult::PhaseTimeTotals split = result.SumPhaseSeconds();
    std::printf("  phase split: emit %.2fs | merge %.2fs | scan %.2fs | "
                "select %.2fs (%d threads)\n",
                split.emit_seconds, split.merge_seconds, split.scan_seconds,
                split.select_seconds, result.phases.front().num_threads);
  }
  PrintQuality(quality);

  if (flags.Has("validate-budget") || flags.Has("validate-delta")) {
    ValidationConfig validation;
    const int64_t budget =
        flags.GetInt("validate-budget", -1);  // -1 = verify everything
    if (budget >= 0) validation.budget = static_cast<size_t>(budget);
    validation.delta = flags.GetDouble("validate-delta", 0.05);
    if (validation.delta <= 0.0 || validation.delta >= 1.0) {
      std::fprintf(stderr, "--validate-delta must be in (0, 1)\n");
      return 2;
    }
    validation.rng_seed = rng_seed + 4;
    const ValidationReport report =
        ValidateMatching(pair, result, validation);
    std::printf("  validation: %s\n", FormatValidationReport(report).c_str());
  }

  if (flags.Has("save-matching") &&
      !WriteMatchingText(result, flags.GetString("save-matching", ""))) {
    std::fprintf(stderr, "cannot write --save-matching=%s\n",
                 flags.GetString("save-matching", "").c_str());
    return 1;
  }

  if (flags.GetBool("phase-table", false)) {
    PhaseTable(result.phases).Print(std::cout);
  }

  if (flags.GetBool("degree-table", false)) {
    Table table({"degree band", "identifiable", "good", "bad", "precision",
                 "recall"});
    for (const DegreeBandQuality& band : EvaluateByDegree(pair, result)) {
      std::string label =
          band.max_degree == kInvalidNode
              ? std::to_string(band.min_degree) + "+"
              : std::to_string(band.min_degree) + "-" +
                    std::to_string(band.max_degree);
      table.AddRow({label, std::to_string(band.identifiable),
                    std::to_string(band.new_good),
                    std::to_string(band.new_bad),
                    FormatPercent(band.precision),
                    FormatPercent(band.recall)});
    }
    table.Print(std::cout);
  }

  // --- Cross-algorithm disagreement: run a challenger on the same pair
  // and seeds, then partition the ground-truth targets by who found them.
  if (flags.Has("compare")) {
    ReconcilerSpec challenger_spec;
    if (!ReconcilerSpec::Parse(flags.GetString("compare", ""),
                               &challenger_spec, &error)) {
      std::fprintf(stderr, "bad --compare: %s\n", error.c_str());
      return 2;
    }
    std::unique_ptr<Reconciler> challenger =
        Registry::Global().Create(challenger_spec, &error);
    if (challenger == nullptr) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
    MatchResult challenger_result =
        challenger->Run(pair.g1, pair.g2, seeds);
    std::printf("\n%s: %.2fs, %zu rounds\n",
                challenger->Describe().c_str(),
                challenger_result.total_seconds,
                challenger_result.phases.size());
    PrintQuality(Evaluate(pair, challenger_result));
    const DisagreementReport disagreement =
        CompareMatchings(pair, result, challenger_result);
    std::printf("disagreement (%s vs %s):\n%s\n",
                std::string(reconciler->name()).c_str(),
                std::string(challenger->name()).c_str(),
                FormatDisagreementReport(
                    disagreement, std::string(reconciler->name()),
                    std::string(challenger->name()))
                    .c_str());
  }

  for (const std::string& key : flags.UnusedKeys()) {
    std::fprintf(stderr, "warning: unused flag --%s\n", key.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace reconcile

int main(int argc, char** argv) {
  reconcile::Flags flags;
  std::string error;
  if (!flags.Parse(argc, argv, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  return reconcile::RunCli(flags);
}
