// reconcile_serve — long-lived continuous reconciliation over a stream of
// edge deltas.
//
// Loads the two partial copies and the trusted seeds, computes the initial
// matching, then consumes a delta log (file or stdin) batch by batch: each
// batch is netted out, applied to the graphs, and the batch matcher re-runs
// on the result, so the served matching is always bit-identical to a
// from-scratch batch run on the current graphs (DESIGN.md §2.6). Serve
// checkpoints are self-contained (they embed both graphs and the delta
// stream cursor), so a killed session resumes exactly, mid-stream.
//
// Examples (one command per line):
//   reconcile_serve --g1=g1.txt --g2=g2.txt --seeds=seeds.txt
//       --deltas=stream.log --batch-deltas=256
//   graph_mutator | reconcile_serve --g1=a.txt --g2=b.txt
//       --identity-seeds=500 --deltas=- --checkpoint-dir=ckpt
//       --checkpoint-keep=3
//   reconcile_serve --g1=a.txt --g2=b.txt --identity-seeds=500
//       --deltas=stream.log --checkpoint-dir=ckpt --resume

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <limits>
#include <new>
#include <optional>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "reconcile/core/matcher_state.h"
#include "reconcile/eval/match_io.h"
#include "reconcile/eval/table.h"
#include "reconcile/graph/graph.h"
#include "reconcile/graph/io.h"
#include "reconcile/serve/delta_log.h"
#include "reconcile/serve/incremental_matcher.h"
#include "reconcile/util/checkpoint.h"
#include "reconcile/util/fault.h"
#include "reconcile/util/flags.h"
#include "reconcile/util/shutdown.h"

namespace reconcile {
namespace {

// The --help text. docs/cli.md embeds this output verbatim (generated by
// tools/gen_cli_docs.sh; CI diffs doc against binary), so edits here are
// automatically reflected there — regenerate the doc after changing it.
constexpr const char kUsage[] = R"(reconcile_serve — continuous reconciliation over a stream of edge deltas.

Loads the two copies and the seeds, computes the initial matching, then
applies delta batches from a log and re-runs the batch matcher after every
batch that changes an edge. After every batch the served matching is
bit-identical to a from-scratch run of the batch matcher on the current
graphs.

Usage: reconcile_serve --g1=... --g2=... [--flag=value ...]

Inputs:
  --g1 --g2       text edge lists of the two copies (required)
  --seeds         seed links file (`u v` lines, as written by the
                  library's seed writer); exactly one of --seeds /
                  --identity-seeds is required
  --identity-seeds=N   use the identity links (i, i) for i < N as seeds

Delta stream:
  --deltas        delta log path, `-` = stdin; omit to serve the initial
                  matching only. Format, one op per line:
                      add <graph 1|2> <u> <v> [crc=XXXXXXXX]
                      del <graph 1|2> <u> <v> [crc=XXXXXXXX]
                      commit          (closes the current batch)
                      # comment       (blank lines ignored)
                  Unknown node ids grow the graphs; net no-ops (delete of
                  an absent edge, insert+delete inside one batch) are
                  absorbed. The optional crc token is the CRC32 of the
                  record's canonical `op graph u v` text; a mismatch marks
                  the record corrupt.
  --batch-deltas  max data records per batch when the stream does not
                  `commit` earlier (0 = unbounded)            [256]
  --strict-deltas by default the first corrupt or malformed record is
                  treated as a torn tail: one warning, then end of stream
                  (every intact record before it is served — the right
                  behavior for a log cut mid-write by a crash). With this
                  flag it is a hard error instead (exit 1)    [false]

Matching semantics (same meaning as reconcile_cli):
  --threshold     min witness score to accept a link          [2]
  --iterations    outer iterations                            [2]
  --no-bucketing  disable degree bucketing                    [false]

Execution (never affect the matching):
  --threads       worker threads (0 = hardware)               [0]

Crash safety (DESIGN.md §2.6; serve checkpoints are self-contained):
  --checkpoint-dir    write serve-batch-NNNNNN.ckpt snapshots here
  --checkpoint-every  checkpoint cadence in applied batches    [1]
  --checkpoint-keep   prune all but the newest K snapshots after each
                  successful write and on resume (0 = keep all) [0]
  --resume        restore the newest valid serve snapshot in
                  --checkpoint-dir (required; under any --threads),
                  fast-forward the delta stream past the records it
                  already consumed, and continue; the resumed session
                  is bit-identical to an uninterrupted one
  --fault         deterministic fault injection (crash:serve_apply=K
                  kills mid-batch, crash:after_batch=K between the match
                  and the checkpoint; io:checkpoint_write_fail and
                  io:checkpoint_truncate as in reconcile_cli). A spec
                  naming a point serve never reaches (after_round, the
                  spill points) is a usage error

On SIGINT/SIGTERM (or a stop: fault) the server finishes the in-flight
batch, matcher run included, writes a final checkpoint (when configured)
and exits 0.

Output:
  --save-matching write the served links (u v [seed]) after the stream
                  ends (and on graceful stop)
  --save-g1/--save-g2  write the final graphs as text edge lists
  --phase-table   after each batch, the rerun's per-round phase table:
                  the pairs selection reads, those >= T, the open
                  ones it tests and emit/merge/scan/select seconds

Per-batch telemetry goes to stdout (rounds 0: no edge changed, no rerun):
  batch 3: deltas 128 (120 effective) | rounds 12 | links 5023 (+12/-3) |
  0.42s

Exit codes:
  0  success (including a graceful SIGINT/SIGTERM stop)
  1  runtime failure (unreadable input, malformed delta log, node ids
     implying a graph too large to allocate, or memory or a worker
     thread the host refuses; one stderr line names the input)
  2  usage error
)";

// Range checks for the integer flags, run before any graph is read: a value
// outside its type's range would otherwise wrap (--threshold=-1 becoming
// 4294967295) or be clamped silently. False (after one stderr line naming
// the flag and its range) on the first value out of range.
bool IntFlagsInRange(const Flags& flags) {
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  struct Range {
    const char* flag;
    int64_t lo;
    int64_t hi;
    const char* text;
  };
  const Range ranges[] = {
      {"threshold", 0, std::numeric_limits<uint32_t>::max(),
       "[0, 4294967295]"},
      {"iterations", 1, kIntMax, "[1, 2147483647]"},
      {"batch-deltas", 0, std::numeric_limits<int64_t>::max(), ">= 0"},
      {"checkpoint-every", 1, kIntMax, "[1, 2147483647]"},
      {"checkpoint-keep", 0, kIntMax, "[0, 2147483647]"},
  };
  for (const Range& range : ranges) {
    if (!flags.Has(range.flag)) continue;
    const int64_t value = flags.GetInt(range.flag, 0);
    if (value >= range.lo && value <= range.hi) continue;
    std::fprintf(stderr, "--%s=%s is out of range (want %s)\n", range.flag,
                 flags.GetString(range.flag, "").c_str(), range.text);
    return false;
  }
  return true;
}

// Reads and builds one graph. Every failure is one stderr line naming the
// file: the loader's for a file it cannot read or parse, this one for
// memory the host refuses (ids that imply more nodes than it can allocate,
// say) or a shared-pool worker it will not start. The parse and the build
// run partly on that pool, which hands a failure back to this thread.
bool LoadGraph(const std::string& path, Graph* out) {
  std::optional<NodeId> nodes;  // known once the list is read
  try {
    EdgeList edges;
    if (!ReadEdgeListText(path, &edges)) return false;
    nodes = edges.num_nodes();
    *out = Graph::FromEdgeList(std::move(edges));
  } catch (const std::bad_alloc&) {
    if (nodes) {
      std::fprintf(stderr, "error: %s: cannot allocate a graph of %u nodes\n",
                   path.c_str(), *nodes);
    } else {
      std::fprintf(stderr, "error: %s: cannot allocate the edge list\n",
                   path.c_str());
    }
    return false;
  } catch (const std::system_error& e) {
    std::fprintf(stderr, "error: %s: cannot start a worker thread (%s)\n",
                 path.c_str(), e.what());
    return false;
  }
  return true;
}

// One telemetry line per batch, then the rerun's phase table if asked.
void PrintBatch(const ServeBatchStats& stats, bool initial, bool phase_table) {
  std::printf(
      "%s%d: deltas %zu (%zu effective) | rounds %d | links %zu (+%zu/-%zu) "
      "| %.2fs\n",
      initial ? "initial match as batch " : "batch ", stats.batch,
      stats.deltas_in, stats.deltas_applied, stats.replayed_rounds,
      stats.num_links, stats.links_added, stats.links_removed,
      stats.seconds);
  if (phase_table && !stats.rounds.empty()) {
    PhaseTable(stats.rounds).Print(std::cout);
  }
  std::fflush(stdout);
}

// Serves the stream on a session over `g1` and `g2`: the initial match (or
// a resume), then every batch, then the outputs. `*input` names what the
// session is working on, for the caller's message if an allocation fails.
int ServeSession(const Flags& flags, const ServeConfig& config, Graph g1,
                 Graph g2, const std::vector<std::pair<NodeId, NodeId>>& seeds,
                 std::string* input) {
  IncrementalMatcher matcher(std::move(g1), std::move(g2), seeds, config);

  const std::string checkpoint_dir = flags.GetString("checkpoint-dir", "");
  const bool checkpointing = !checkpoint_dir.empty();

  const int checkpoint_every =
      static_cast<int>(flags.GetInt("checkpoint-every", 1));
  const int checkpoint_keep =
      static_cast<int>(flags.GetInt("checkpoint-keep", 0));
  bool resumed = false;
  if (checkpointing) {
    std::string error;
    if (!EnsureDir(checkpoint_dir, &error)) {
      std::fprintf(stderr, "cannot create checkpoint directory: %s\n",
                   error.c_str());
      return 1;
    }
    if (flags.GetBool("resume", false)) {
      const std::string graphs = *input;
      *input = "--checkpoint-dir=" + checkpoint_dir;
      const std::string path = ResumeFromNewestCheckpoint(
          checkpoint_dir, kServeCheckpointPrefix, checkpoint_keep,
          [&matcher](const std::string& path, std::string* error) {
            return matcher.LoadSnapshot(path, error);
          });
      *input = graphs;
      resumed = !path.empty();
      if (resumed) {
        std::printf("resumed from %s (%d batches applied, %zu links, "
                    "%llu deltas consumed)\n",
                    path.c_str(), matcher.batches_applied(),
                    matcher.num_links(),
                    static_cast<unsigned long long>(
                        matcher.deltas_consumed()));
      }
    }
  }

  const bool phase_table = flags.GetBool("phase-table", false);
  const size_t batch_deltas =
      static_cast<size_t>(flags.GetInt("batch-deltas", 256));

  DeltaReader reader;
  reader.set_tolerant(!flags.GetBool("strict-deltas", false));
  const bool have_stream = flags.Has("deltas");
  if (have_stream) {
    std::string error;
    if (!reader.Open(flags.GetString("deltas", ""), &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    if (matcher.deltas_consumed() > 0) {
      // Resumed mid-stream: drop the records the restored state already
      // absorbed; the remaining stream re-batches deterministically.
      if (!reader.SkipRecords(matcher.deltas_consumed(), &error)) {
        std::fprintf(stderr, "cannot fast-forward delta log: %s\n",
                     error.c_str());
        return 1;
      }
    }
  }

  // Persists the session keyed by applied-batch count, stamping the delta
  // cursor first so a resume fast-forwards the stream to exactly where
  // this snapshot's state left off.
  auto checkpoint = [&] {
    if (have_stream) matcher.set_deltas_consumed(reader.records_consumed());
    WriteCheckpoint(checkpoint_dir, kServeCheckpointPrefix,
                    matcher.batches_applied(), checkpoint_keep,
                    [&matcher](const std::string& path, std::string* error) {
                      return matcher.SaveSnapshot(path, error);
                    });
  };

  // From here on SIGINT/SIGTERM request a graceful stop: the in-flight
  // batch completes, a final checkpoint is written, outputs are saved.
  InstallGracefulShutdownHandlers();

  if (!resumed) {
    PrintBatch(matcher.ApplyBatch({}), /*initial=*/true, phase_table);
    FaultValuePoint("after_batch", matcher.batches_applied());
    if (checkpointing) checkpoint();
  }

  bool stream_error = false;
  if (have_stream) {
    int batches_since_checkpoint = 0;
    while (!GracefulStopRequested()) {
      std::vector<EdgeDelta> batch;
      bool end_of_stream = false;
      std::string error;
      if (!reader.NextBatch(batch_deltas, &batch, &end_of_stream, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        stream_error = true;
        break;
      }
      if (!batch.empty()) {
        *input = "--deltas=" + flags.GetString("deltas", "") + " batch " +
                 std::to_string(matcher.batches_applied() + 1);
        PrintBatch(matcher.ApplyBatch(batch), /*initial=*/false, phase_table);
        // Fault hook between re-matching and persisting the batch: a
        // `crash:after_batch=k` kill loses exactly this batch's state and
        // a resume must re-apply it from the stream.
        FaultValuePoint("after_batch", matcher.batches_applied());
        if (checkpointing && ++batches_since_checkpoint >= checkpoint_every) {
          checkpoint();
          batches_since_checkpoint = 0;
        }
      }
      if (end_of_stream) break;
    }
    if (GracefulStopRequested()) {
      std::fprintf(stderr,
                   "graceful stop after batch %d; resume with --resume\n",
                   matcher.batches_applied());
    }
    if (checkpointing && batches_since_checkpoint > 0) checkpoint();
  }

  if (flags.Has("save-matching") &&
      !WriteMatchingText(matcher.Result(),
                         flags.GetString("save-matching", ""))) {
    std::fprintf(stderr, "cannot write --save-matching=%s\n",
                 flags.GetString("save-matching", "").c_str());
    return 1;
  }
  if (flags.Has("save-g1") &&
      !WriteEdgeListText(matcher.g1().graph(),
                         flags.GetString("save-g1", ""))) {
    std::fprintf(stderr, "cannot write --save-g1=%s\n",
                 flags.GetString("save-g1", "").c_str());
    return 1;
  }
  if (flags.Has("save-g2") &&
      !WriteEdgeListText(matcher.g2().graph(),
                         flags.GetString("save-g2", ""))) {
    std::fprintf(stderr, "cannot write --save-g2=%s\n",
                 flags.GetString("save-g2", "").c_str());
    return 1;
  }

  for (const std::string& key : flags.UnusedKeys()) {
    std::fprintf(stderr, "warning: unused flag --%s\n", key.c_str());
  }
  return stream_error ? 1 : 0;
}

int RunServe(const Flags& flags) {
  if (flags.GetBool("help", false)) {
    std::printf("%s", kUsage);
    return 0;
  }
  if (!flags.Has("g1") || !flags.Has("g2")) {
    std::fprintf(stderr, "--g1 and --g2 are required (see --help)\n");
    return 2;
  }
  if (flags.Has("seeds") == flags.Has("identity-seeds")) {
    std::fprintf(stderr,
                 "exactly one of --seeds / --identity-seeds is required\n");
    return 2;
  }

  if (!IntFlagsInRange(flags)) return 2;

  ServeConfig config;
  MatcherConfig& mc = config.matcher;
  mc.min_score = static_cast<uint32_t>(flags.GetInt("threshold", 2));
  mc.num_iterations = static_cast<int>(flags.GetInt("iterations", 2));
  mc.use_degree_bucketing = !flags.GetBool("no-bucketing", false);
  mc.num_threads = static_cast<int>(flags.GetInt("threads", 0));
  if (flags.Has("fault")) {
    std::string error;
    if (!ArmFaults(flags.GetString("fault", ""), &error,
                   FaultScope::kServe)) {
      std::fprintf(stderr, "--fault=%s: %s\n",
                   flags.GetString("fault", "").c_str(), error.c_str());
      return 2;
    }
  }
  if (flags.GetBool("resume", false) &&
      flags.GetString("checkpoint-dir", "").empty()) {
    std::fprintf(stderr,
                 "--resume=%s needs --checkpoint-dir: there is no checkpoint "
                 "to resume from\n",
                 flags.GetString("resume", "").c_str());
    return 2;
  }

  Graph g1, g2;
  if (!LoadGraph(flags.GetString("g1", ""), &g1) ||
      !LoadGraph(flags.GetString("g2", ""), &g2)) {
    return 1;
  }

  std::vector<std::pair<NodeId, NodeId>> seeds;
  if (flags.Has("seeds")) {
    std::vector<std::pair<NodeId, NodeId>> marked;
    if (!ReadMatchingText(flags.GetString("seeds", ""), &seeds, &marked)) {
      std::fprintf(stderr, "cannot read --seeds=%s\n",
                   flags.GetString("seeds", "").c_str());
      return 1;
    }
    // The session takes its seeds as trusted, so a seed past either graph
    // or sharing a node with an earlier one stops here, with the file named.
    std::vector<NodeId> map_1to2, map_2to1;
    std::string error;
    if (!MapsFromLinks(seeds, g1.num_nodes(), g2.num_nodes(), &map_1to2,
                       &map_2to1, &error)) {
      std::fprintf(stderr, "--seeds=%s: seed %s\n",
                   flags.GetString("seeds", "").c_str(), error.c_str());
      return 1;
    }
  } else {
    const long long n = flags.GetInt("identity-seeds", 0);
    if (n <= 0 || n > g1.num_nodes() || n > g2.num_nodes()) {
      std::fprintf(stderr,
                   "--identity-seeds=%lld out of range for the graphs\n", n);
      return 2;
    }
    seeds.reserve(static_cast<size_t>(n));
    for (NodeId i = 0; i < static_cast<NodeId>(n); ++i) {
      seeds.emplace_back(i, i);
    }
  }
  std::printf("g1 %u nodes / %zu edges | g2 %u nodes / %zu edges | "
              "seeds %zu\n",
              g1.num_nodes(), g1.num_edges(), g2.num_nodes(), g2.num_edges(),
              seeds.size());

  // Past the graphs' build the session allocates per-node state, the
  // matcher's included, and each batch the graphs it grows to; the first
  // batch starts the workers of the session's pool, unless the graph load
  // already did, and the pool hands their allocation failures back here.
  // An allocation the host refuses (ids implying too many nodes) or a
  // worker it will not start is one line naming the input and exit 1,
  // before that batch's checkpoint or any --save-* output, so the newest
  // checkpoint stays the resume point.
  std::string input = "--g1=" + flags.GetString("g1", "") +
                      " --g2=" + flags.GetString("g2", "");
  try {
    return ServeSession(flags, config, std::move(g1), std::move(g2), seeds,
                        &input);
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr,
                 "error: %s: cannot allocate the session's graphs and "
                 "state\n",
                 input.c_str());
    return 1;
  } catch (const std::system_error& e) {
    std::fprintf(stderr, "error: %s: cannot start a worker thread (%s)\n",
                 input.c_str(), e.what());
    return 1;
  }
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
  return reconcile::RunServe(flags);
}
