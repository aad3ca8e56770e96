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
#include "reconcile/util/checkpoint.h"
#include "reconcile/util/thread_pool.h"
#include "reconcile/util/tiered_store.h"

namespace reconcile {

/// The matcher's complete cross-round state as a first-class, *resumable*
/// object — everything `UserMatching` carries from one scoring round to the
/// next: the committed links and the partial node maps they imply, the
/// per-(level, shard) score cells (`TieredCountRuns`), and the flattened
/// round cursor (outer iteration, current degree bucket, stability
/// accounting).
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
/// run (enforced by `core_checkpoint_test` in-process, by the resumed cases
/// of `core_oracle_fuzz_test` against the paper-literal oracle, and by the
/// `integration_kill_resume_test` subprocess harness across thread counts).
///
/// Only the link log and the round cursor are durable: every witness count
/// is a sum over the emitted links, so `LoadSnapshot` rebuilds the score
/// cells by re-emitting them. A snapshot (META and LINKS sections, see
/// `util/checkpoint.h`) is bound to its graph pair, its seeds (the log's
/// prefix) and the semantic config, checked by the helpers below, but not
/// to the thread count. DESIGN.md §2.4 documents the layout and the resume
/// invariant.
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

  /// Serializes the durable state — cursor and link log — to `path`
  /// atomically (temp file + fsync + rename). Returns false with a
  /// diagnostic on failure; the previous file at `path`, if any, is left
  /// intact.
  bool SaveSnapshot(const std::string& path, std::string* error) const;

  /// Restores the state saved by `SaveSnapshot`. Validates the snapshot
  /// end to end first — format version, per-section checksums, state
  /// version, graph/config fingerprints, seed prefix, link-log consistency
  /// — and only then commits and rebuilds the score cells; on any failure
  /// the state is untouched and `*error` says why. Never crashes on
  /// truncated or corrupt input.
  bool LoadSnapshot(const std::string& path, std::string* error);

  /// Finalizes into a `MatchResult` (moves the maps out; the state is spent).
  MatchResult TakeResult(double total_seconds);

 private:
  // --- One round (see matcher_state.cc) ----------------------------------
  size_t Round(int iteration, int bucket_exponent);
  void AdvanceCursor();
  void CompactScores();
  // Re-derives the score cells from the emitted links (see LoadSnapshot).
  void RebuildScores();
  // Emits the witnesses of links_[begin, end) into the score cells.
  void EmitLinks(size_t begin, size_t end, PhaseStats* stats);
  size_t EmitGrain(size_t num_items) const;
  // Sets the matched bits of links_[first_link, end).
  void MarkMatched(size_t first_link);
  // Memory-budget enforcement: after a round's emission, spill the biggest
  // cold tiers until resident payload fits `config_.memory_budget_bytes`.
  // Fills the round's spill telemetry.
  void EnforceMemoryBudget(PhaseStats* stats);

  const Graph& g1_;
  const Graph& g2_;
  MatcherConfig config_;
  ThreadPool pool_;
  // Score shards per degree level, from g1's node count (see ctor).
  int num_shards_;
  std::vector<NodeId> map_1to2_;
  std::vector<NodeId> map_2to1_;
  // The matched nodes of each graph, one bit per node: the maps' key sets,
  // for the score store's drop rule (see matcher_state.cc).
  std::vector<uint64_t> matched1_;
  std::vector<uint64_t> matched2_;
  std::vector<std::pair<NodeId, NodeId>> links_;
  std::vector<PhaseStats> phases_;
  // The mutual-unique-best selection (`core/selection.h`).
  SelectionEngine selection_;
  std::vector<uint8_t> level1_;
  std::vector<uint8_t> level2_;
  // Score state: a base run plus at most one delta per (level, shard).
  std::vector<std::vector<TieredCountRuns>> runs_;  // [level][shard]
  // Score shard per g1 node (range partition, see ctor).
  std::vector<uint32_t> shard1_;
  // Out-of-core backing store for the score cells (null when unbudgeted).
  // Owns every spill file; destroying the state — clean exit or graceful
  // stop — removes the scratch.
  std::unique_ptr<SpillStore> spill_store_;
  // links_[0, emitted_links_) have their witnesses in the score cells; the
  // rest are pending for the next round's emission.
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

// --- Snapshot checks that `MatcherState` and the serve session's
// `IncrementalMatcher` share; each keeps its own section layout.

/// Appends the five fields that change what User-Matching computes, in the
/// order both snapshot formats store them: u32 threshold, i32 iterations,
/// u8 bucketing, i32 min bucket exponent, u8 stop-when-stable.
void AppendMatchingSemantics(const MatcherConfig& config,
                             SnapshotWriter* writer);

/// Reads the fields `AppendMatchingSemantics` wrote and returns whether they
/// equal `config`'s. A short read poisons `section` (callers check `ok()`).
bool ReadMatchingSemantics(SnapshotReader::Section* section,
                           const MatcherConfig& config);

/// The one rejection message for a snapshot whose semantics differ.
inline constexpr char kSemanticsMismatch[] =
    "snapshot config mismatch: it was taken under other matching semantics "
    "(threshold, iterations, bucketing, min bucket exponent or "
    "stop-when-stable); resume with the configuration it was written under";

/// Node maps of a link log over graphs of `n1` and `n2` nodes. False, with
/// the first bad link in `*error`, when a link is out of range or shares an
/// endpoint with an earlier one; the maps are then unspecified.
bool MapsFromLinks(std::span<const std::pair<NodeId, NodeId>> links,
                   NodeId n1, NodeId n2, std::vector<NodeId>* map_1to2,
                   std::vector<NodeId>* map_2to1, std::string* error);

}  // namespace reconcile

#endif  // RECONCILE_CORE_MATCHER_STATE_H_
