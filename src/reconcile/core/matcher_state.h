#ifndef RECONCILE_CORE_MATCHER_STATE_H_
#define RECONCILE_CORE_MATCHER_STATE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "reconcile/core/matcher.h"
#include "reconcile/core/result.h"
#include "reconcile/core/selection.h"
#include "reconcile/graph/graph.h"
#include "reconcile/graph/types.h"
#include "reconcile/util/flat_hash_map.h"
#include "reconcile/util/radix_sort.h"
#include "reconcile/util/thread_pool.h"
#include "reconcile/util/tiered_store.h"

namespace reconcile {

/// The matcher's complete cross-round state as a first-class, *resumable*
/// object — everything `UserMatching` carries from one scoring round to the
/// next: the committed links and the partial node maps they imply, the
/// persistent per-(level, shard) score state of the configured backend
/// (`TieredCountRuns` LSM tier stacks for radix, `FlatCountMap` shards for
/// hash), and the flattened round cursor (outer iteration, current degree
/// bucket, stability accounting).
///
/// The driver advances it one round at a time:
///
///   MatcherState state(g1, g2, config);
///   state.SeedLinks(seeds);
///   while (!state.Done()) state.RunRound();
///   MatchResult result = state.TakeResult(seconds);
///
/// which is exactly the seam crash safety needs: between any two `RunRound`
/// calls the object can be serialized (`SaveSnapshot`) and a fresh process
/// can rebuild it (`LoadSnapshot`) and continue — the resumed run commits
/// the same links and produces a matching bit-identical to an uninterrupted
/// run (enforced by `core_checkpoint_test` in-process and by the
/// `integration_kill_resume_test` subprocess harness across backends and
/// thread counts).
///
/// Snapshot format: a `SnapshotWriter` file (versioned header, per-section
/// CRC32 — see `util/checkpoint.h`) with META (state version, graph and
/// config fingerprints, round cursor), LINKS (the committed link log; seeds
/// are its prefix, and the node maps are rebuilt from it on load) and one
/// backend-specific SCORES section. Execution knobs that cannot affect the
/// matching (threads, LSM tier policy) are
/// deliberately *not* fingerprinted — a snapshot taken under one may resume
/// under another; semantic knobs (threshold, iterations, bucketing,
/// backend) and the shard width the SCORES layout uses are, and a mismatch
/// is a clean rejection. The width is a function of g1's node count, so it
/// is bound through the graph fingerprint and never varies with threads.
/// DESIGN.md §2.4 documents the layout and the resume invariant.
class MatcherState {
 public:
  MatcherState(const Graph& g1, const Graph& g2, const MatcherConfig& config);
  ~MatcherState();

  MatcherState(const MatcherState&) = delete;
  MatcherState& operator=(const MatcherState&) = delete;

  /// Installs the trusted seed links. Must be called exactly once, before
  /// the first `RunRound` (and before `LoadSnapshot`, which validates the
  /// snapshot against these seeds). Seeds must be in-range and one-to-one.
  void SeedLinks(std::span<const std::pair<NodeId, NodeId>> seeds);

  /// True once the round schedule is exhausted (iteration cap reached, or a
  /// full iteration discovered no new link under `stop_when_stable`).
  bool Done() const { return done_; }

  /// Runs the next scoring round (one degree bucket of one outer iteration)
  /// and advances the cursor — including the between-iteration score
  /// compaction when the round closed an iteration. Returns the number of
  /// links accepted. Must not be called once `Done()`.
  size_t RunRound();

  /// Rounds completed so far (resumes continue this count).
  int completed_rounds() const { return completed_rounds_; }
  /// Current outer iteration (1-based) and degree-bucket exponent.
  int iteration() const { return iteration_; }
  int current_bucket() const { return current_bucket_; }
  size_t num_links() const { return links_.size(); }
  size_t num_seeds() const { return num_seeds_; }

  /// Serializes the full cross-round state to `path` atomically (temp file
  /// + fsync + rename). Returns false with a diagnostic on failure; the
  /// previous file at `path`, if any, is left intact.
  bool SaveSnapshot(const std::string& path, std::string* error) const;

  /// Restores the state saved by `SaveSnapshot`. Validates the snapshot
  /// end to end first — format version, per-section checksums, state
  /// version, graph/config fingerprints, seed prefix, link-log consistency
  /// — and only then commits; on any failure the state is untouched and
  /// `*error` says why. Never crashes on truncated or corrupt input.
  bool LoadSnapshot(const std::string& path, std::string* error);

  /// Finalizes into a `MatchResult` (moves the maps out; the state is spent).
  MatchResult TakeResult(double total_seconds);

 private:
  // --- Round engines (see matcher_state.cc) ------------------------------
  size_t Round(int iteration, int bucket_exponent);
  size_t RoundIncremental(int iteration, int bucket_exponent);
  size_t RoundRecompute(int iteration, int bucket_exponent);
  void AdvanceCursor();
  void CompactScores();
  size_t SelectAndCommit(const std::vector<ScoreUnit>& units,
                         PhaseStats* stats);
  void EmitPendingLinks(PhaseStats* stats);
  void EmitPendingLinksHash(PhaseStats* stats);
  void EmitPendingLinksRadix(PhaseStats* stats);
  size_t EmitGrain(size_t num_items) const;
  // Memory-budget enforcement (radix backend only): after a round's
  // emission, spill the biggest cold tiers until resident payload fits
  // `config_.memory_budget_bytes`. Fills the round's spill telemetry.
  void EnforceMemoryBudget(PhaseStats* stats);

  // Rebuilds map_1to2_/map_2to1_ from a link log; false (with diagnostic)
  // on out-of-range or duplicate endpoints.
  bool RebuildMaps(const std::vector<std::pair<NodeId, NodeId>>& links,
                   std::vector<NodeId>* map_1to2,
                   std::vector<NodeId>* map_2to1, std::string* error) const;

  const Graph& g1_;
  const Graph& g2_;
  MatcherConfig config_;
  ThreadPool pool_;
  TierPolicy tier_policy_;
  // Score shards per degree level, from g1's node count (see ctor).
  int num_shards_;
  std::vector<NodeId> map_1to2_;
  std::vector<NodeId> map_2to1_;
  std::vector<std::pair<NodeId, NodeId>> links_;
  std::vector<PhaseStats> phases_;
  // The shared mutual-unique-best engine (`core/selection.h`); which of its
  // two interchangeable engines runs follows `use_parallel_selection`.
  SelectionEngine selection_;
  std::vector<uint8_t> level1_;
  std::vector<uint8_t> level2_;
  // Incremental engine state: exactly one of the two representations is
  // populated, per `config_.scoring_backend`. The radix representation is an
  // LSM tier stack per (level, shard); `tier_policy_` decides when round
  // deltas fold into the big run.
  std::vector<std::vector<FlatCountMap>> scores_;   // [level][shard], hash
  std::vector<std::vector<TieredCountRuns>> runs_;  // [level][shard], radix
  // Radix backend: reduce shard per g1 node (range partition, see ctor).
  std::vector<uint32_t> radix_shard1_;
  // Out-of-core backing store for the tier stacks (null when unbudgeted or
  // on the hash backend). Owns every spill file; destroying the state —
  // clean exit or graceful stop — removes the scratch.
  std::unique_ptr<SpillStore> spill_store_;
  size_t emitted_links_ = 0;

  // Cheap structural fingerprints (nodes, edges, degree sequence) binding a
  // snapshot to the graph pair it was taken against.
  uint64_t graph_fp1_ = 0;
  uint64_t graph_fp2_ = 0;

  // --- Flattened round cursor --------------------------------------------
  // The schedule `UserMatching` used to hold in loop variables: per outer
  // iteration, buckets top_exponent_ .. bottom_exponent_ (or the single
  // min-bucket round when bucketing is off).
  int top_exponent_ = 0;
  int bottom_exponent_ = 0;
  int iteration_ = 1;
  int current_bucket_ = 0;
  size_t new_links_this_iteration_ = 0;
  int completed_rounds_ = 0;
  bool done_ = false;
  size_t num_seeds_ = 0;
  bool seeded_ = false;
};

}  // namespace reconcile

#endif  // RECONCILE_CORE_MATCHER_STATE_H_
