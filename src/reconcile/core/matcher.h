#ifndef RECONCILE_CORE_MATCHER_H_
#define RECONCILE_CORE_MATCHER_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "reconcile/core/result.h"
#include "reconcile/graph/graph.h"
#include "reconcile/graph/types.h"

namespace reconcile {

/// How a scoring round aggregates witness emissions into per-pair scores.
enum class ScoringBackend {
  /// Hash aggregation: every emission probes a `FlatCountMap` shard
  /// (random access), and selection iterates hash buckets.
  kHashMap,
  /// Sorted aggregation: scores live in flat `SortedCountRun`s that
  /// selection scans linearly (no per-emission hashing). The recompute
  /// engine appends one packed key per witness into per-shard buffers and
  /// radix-sorts and run-length-encodes each shard. The incremental engine
  /// keeps an LSM tier stack per (level, shard) and builds each round's
  /// delta row by row: every g1 node's new witnesses are a merge of already
  /// sorted g2 adjacency lists, so each cell's delta comes out sorted and
  /// counted with no sort. Matchings are bit-identical to the hash backend
  /// for every engine and thread count.
  kRadixSort,
};

/// Tuning knobs for the User-Matching algorithm (paper §3.2).
struct MatcherConfig {
  /// Number of outer iterations `k`. The paper notes k = 1 or 2 suffices.
  int num_iterations = 2;
  /// Minimum matching score `T`: a candidate pair needs at least this many
  /// similarity witnesses. The theory uses 3 (Erdős–Rényi) and 9
  /// (preferential attachment); the experiments mostly use 2–5.
  uint32_t min_score = 2;
  /// Degree bucketing (the `j = log D … 1` sweep). Disabling reproduces the
  /// paper's ablation: one scoring round per iteration over all nodes.
  bool use_degree_bucketing = true;
  /// Lowest bucket exponent `j` in the sweep, in [0, 31]; nodes with degree
  /// below `2^min_bucket_exponent` are never match candidates. The paper
  /// sweeps to j = 1; the default 0 also allows degree-1 nodes into the last
  /// round.
  int min_bucket_exponent = 0;
  /// Worker threads (0 = hardware concurrency). The score state's shard
  /// width comes from the size of g1, never from this, so the thread count
  /// affects neither the matching nor the checkpoint layout.
  int num_threads = 0;
  /// Stop outer iterations early once a full sweep finds no new link.
  bool stop_when_stable = true;
  /// Scoring engine. `true` (default): incremental — each link's witness
  /// contributions are folded into persistent per-degree-level score maps
  /// exactly once, and a bucket-j round scans levels >= j. `false`:
  /// reference engine that rebuilds the counts from all current links every
  /// round, exactly as written in the paper. Both engines produce identical
  /// matchings; the incremental one is asymptotically cheaper by the
  /// O(log max-degree) bucket-sweep factor.
  bool use_incremental_scoring = true;
  /// Selection engine. `true` (default): the per-round mutual-unique-best
  /// selection runs one task per score shard against atomic CAS-max best
  /// tables, removing the serial tail that dominates once scoring is
  /// parallel. `false`: reference single-threaded double scan. Both engines
  /// produce bit-identical matchings for any thread count.
  bool use_parallel_selection = true;
  /// Witness-aggregation backend (see `ScoringBackend`). Both backends
  /// produce bit-identical matchings; they differ only in memory-access
  /// pattern and therefore speed. Sort-based aggregation is the default —
  /// sequential emission and linear scans beat per-emission hash probes on
  /// every measured workload; the hash map remains the reference engine.
  ScoringBackend scoring_backend = ScoringBackend::kRadixSort;
  /// LSM-style tiered score store (radix backend, incremental engine only):
  /// cap on resident sorted-run tiers per (level, shard). Round deltas
  /// accumulate as small tiers and fold into the big persistent run only
  /// when `lsm_size_ratio` or this cap trips, so late low-yield rounds stop
  /// rewriting the full run every round. `1` restores the pre-LSM
  /// merge-every-round behavior. The default 2 (big run + one delta batch)
  /// halves merge traffic while the selection scan stays on the two-way
  /// fast path; higher caps defer merges further but pay a k-way scan
  /// fold. Matchings are identical for all settings.
  int lsm_max_tiers = 2;
  /// Size-ratio compaction trigger (see `TierPolicy::size_ratio`).
  double lsm_size_ratio = 4.0;
  /// Crash safety: when non-empty, the matcher snapshots its full
  /// cross-round state (`MatcherState`) into this directory after every
  /// `checkpoint_every_rounds`-th completed round (and always after the
  /// final one), atomically — temp file + fsync + rename, so a kill at any
  /// instant leaves either the previous or the new snapshot, never a torn
  /// one. Files are named `state-round-NNNNNN.ckpt`.
  std::string checkpoint_dir;
  /// Checkpoint cadence in completed rounds (values < 1 behave as 1).
  int checkpoint_every_rounds = 1;
  /// Checkpoint retention: after each successful snapshot write, prune all
  /// but the newest K snapshots in `checkpoint_dir` (<= 0 keeps everything,
  /// the pre-retention behavior). A prune failure is non-fatal — a one-line
  /// stderr note and the run continues; the just-written snapshot is never
  /// pruned.
  int checkpoint_keep = 0;
  /// Memory budget for the persistent score state in bytes (0 = unbudgeted,
  /// the all-resident behavior). When the radix backend's resident tier
  /// payload exceeds this after a round's emission, the enforcement pass
  /// spills the biggest cold tiers to mmap'd files under `score_dir` until
  /// resident payload fits (largest-first, deterministic tie-breaks);
  /// selection streams spilled tiers through the same fold, so matchings
  /// are bit-identical to the unbudgeted run. Requires `score_dir`; with
  /// the hash backend the budget is ignored with a one-line warning
  /// (FlatCountMap shards have no spillable flat form). Spill failures —
  /// ENOSPC, torn writes, failed mmaps — degrade gracefully: the tier stays
  /// resident (stderr note) and after repeated failures spilling is
  /// disabled for the run; never a crash, never a wrong matching.
  uint64_t memory_budget_bytes = 0;
  /// Directory for spill scratch files (`spill-<pid>-<seq>.spill`). Created
  /// on first spill; files are removed as tiers unspill and on clean exit
  /// (including graceful SIGINT/SIGTERM stops). Only meaningful with
  /// `memory_budget_bytes` > 0.
  std::string score_dir;
  /// Resume from the newest valid snapshot in `checkpoint_dir` before
  /// running any round. Corrupt, truncated or mismatched snapshots are
  /// skipped with a warning (falling back to the next-older file; a fresh
  /// start if none survives) — never a crash. The resumed run commits the
  /// same links as an uninterrupted one: matchings are bit-identical.
  bool resume = false;
  /// Deterministic fault injection for crash-safety tests (see
  /// `util/fault.h` for the spec grammar, e.g. `crash:after_round=3` or
  /// `io:checkpoint_write_fail`). Empty = no faults armed here (the
  /// `RECONCILE_FAULT` env var still applies process-wide).
  std::string fault_spec;
};

/// Runs User-Matching: expands the seed links into a one-to-one partial
/// mapping between the nodes of `g1` and `g2`.
///
/// Per round (degree bucket `2^j`, outer iteration `i`):
///  1. every current link (a1, a2) acts as a similarity witness for each
///     candidate pair (u, v) ∈ N1(a1) × N2(a2) whose degrees clear `2^j` and
///     whose endpoints are still unmatched — counted via a MapReduce round;
///  2. a candidate pair is accepted iff its score is at least
///     `config.min_score` and is the unique maximum among all scored pairs
///     containing `u` and among all containing `v` (mutual best; ties are
///     rejected to protect precision).
///
/// Seeds must be in-range and one-to-one; duplicates are rejected via
/// RECONCILE_CHECK, as is a `min_bucket_exponent` outside [0, 31]. The
/// output is deterministic: independent of the thread count.
MatchResult UserMatching(const Graph& g1, const Graph& g2,
                         std::span<const std::pair<NodeId, NodeId>> seeds,
                         const MatcherConfig& config);

}  // namespace reconcile

#endif  // RECONCILE_CORE_MATCHER_H_
