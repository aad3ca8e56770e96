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

/// Tuning knobs for the User-Matching algorithm (paper §3.2). Five change
/// what it computes, and a snapshot load rejects a mismatch in them:
/// `min_score`, `num_iterations`, `use_degree_bucketing`,
/// `min_bucket_exponent` and `stop_when_stable`. The rest never change the
/// matching. No field arms faults (`util/fault.h` names the two ways).
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
  /// affects neither the matching nor what a resumed run rebuilds.
  int num_threads = 0;
  /// Stop outer iterations early once a full sweep finds no new link.
  bool stop_when_stable = true;
  /// Crash safety: when non-empty, the matcher snapshots its durable
  /// cross-round state (`MatcherState`: the round cursor and the link log;
  /// a resume rebuilds the scores from the links) into this directory
  /// after every `checkpoint_every_rounds`-th completed round (and always
  /// after the final one), atomically — temp file + fsync + rename, so a
  /// kill at any instant leaves either the previous or the new snapshot,
  /// never a torn one. Files are named `state-round-NNNNNN.ckpt`.
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
  /// the all-resident behavior). When the resident tier payload exceeds
  /// this after a round's emission, the enforcement pass spills the biggest
  /// cold tiers to mmap'd files under `score_dir` until resident payload
  /// fits (largest-first, deterministic tie-breaks); selection streams
  /// spilled tiers through the same fold, so matchings are bit-identical to
  /// the unbudgeted run. Requires `score_dir`. Spill failures —
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
};

/// File-name prefix of the batch matcher's checkpoints
/// (`state-round-NNNNNN.ckpt`, the counter being the completed rounds; see
/// the checkpoint-file helpers in `util/checkpoint.h`).
inline constexpr char kMatcherCheckpointPrefix[] = "state-round-";

/// Runs User-Matching: expands the seed links into a one-to-one partial
/// mapping between the nodes of `g1` and `g2`.
///
/// Per round (degree bucket `2^j`, outer iteration `i`):
///  1. every current link (a1, a2) acts as a similarity witness for each
///     candidate pair (u, v) ∈ N1(a1) × N2(a2) whose degrees clear `2^j`
///     (and `2^min_bucket_exponent`) on both sides. Pairs with a matched
///     endpoint are scored too: they count toward their endpoints' best
///     scores as *blockers* (the paper's "the pair with highest score in
///     which either u or v appear");
///  2. a pair is accepted iff both endpoints are unmatched, its score is at
///     least `config.min_score` (the repo's reading of the threshold), and
///     it is the only pair at the best score of `u` and the only pair at
///     the best score of `v` (mutual best; rejecting ties to protect
///     precision is the repo's reading). A round's accepts commit together.
///
/// Each iteration runs the buckets `j = ⌊log2 D⌋` down to
/// `min_bucket_exponent` (D the larger max degree; the paper's sweep stops
/// at 1), or one round at `min_bucket_exponent` without bucketing. The run
/// stops early once an iteration adds no link under `stop_when_stable`
/// (the repo's reading).
/// `tests/user_matching_oracle.h` states this rule serially, and
/// `tests/core_oracle_fuzz_test.cc` checks this engine against it round by
/// round.
///
/// Seeds must be in-range and one-to-one; duplicates are rejected via
/// RECONCILE_CHECK, as is a `min_bucket_exponent` outside [0, 31]. The
/// output is deterministic: independent of the thread count.
MatchResult UserMatching(const Graph& g1, const Graph& g2,
                         std::span<const std::pair<NodeId, NodeId>> seeds,
                         const MatcherConfig& config);

}  // namespace reconcile

#endif  // RECONCILE_CORE_MATCHER_H_
