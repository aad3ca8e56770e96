#ifndef RECONCILE_SERVE_INCREMENTAL_MATCHER_H_
#define RECONCILE_SERVE_INCREMENTAL_MATCHER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "reconcile/core/matcher.h"
#include "reconcile/core/result.h"
#include "reconcile/core/selection.h"
#include "reconcile/graph/graph.h"
#include "reconcile/graph/types.h"
#include "reconcile/serve/delta_log.h"
#include "reconcile/serve/overlay_graph.h"
#include "reconcile/util/stamped_runs.h"
#include "reconcile/util/thread_pool.h"

namespace reconcile {

/// Checkpoint filename prefix for serve sessions ("serve-batch-NNNNNN.ckpt",
/// via the prefix-parameterized helpers in util/checkpoint.h).
inline constexpr char kServeCheckpointPrefix[] = "serve-batch-";

struct ServeConfig {
  /// Matching semantics and execution knobs. The score store is *always*
  /// the stamped signed-run store (retraction needs it), so
  /// `matcher.scoring_backend`, the LSM tier policy and the memory-budget
  /// knobs are ignored in serve mode; threshold, iterations, bucketing,
  /// stability, threads, shards and `use_parallel_selection` all apply.
  MatcherConfig matcher;

  /// Fold the overlay diffs into a fresh CSR every N batches (<= 0: never).
  /// Purely a scan-speed knob — results are identical on any cadence.
  int compact_overlay_every = 8;
};

/// Telemetry for one `ApplyBatch` call.
struct ServeBatchStats {
  int batch = 0;              // 1-based batch number
  size_t deltas_in = 0;       // records handed to ApplyBatch
  size_t deltas_applied = 0;  // edges whose presence changed end-to-end
  size_t dirty_nodes = 0;     // |DN1| + |DN2| (changed nodes + neighbours)
  size_t dirty_links = 0;     // links retracted and re-emitted
  size_t rescored_units = 0;  // (level, shard) cells that saw new runs
  int replayed_rounds = 0;    // rounds re-selected live
  int skipped_rounds = 0;     // rounds fast-forwarded from the round log
  int diverged_at = -1;       // first round whose links changed (-1: none)
  int total_rounds = 0;       // rounds in the final schedule
  size_t links_added = 0;     // links in the new matching but not the old
  size_t links_removed = 0;   // links in the old matching but not the new
  size_t num_links = 0;       // links after the batch (seeds included)
  double seconds = 0;
  std::vector<PhaseStats> rounds;  // per-phase stats of the live rounds
};

/// The continuous-reconciliation engine: holds a live matching over a pair
/// of delta-overlay graphs and repairs it incrementally per delta batch,
/// with a correctness contract of *bit-identical equivalence to a
/// from-scratch batch run on the final graphs* (enforced by
/// `serve_incremental_differential_test` across backends, selection
/// engines and thread counts, and across kill/resume by
/// `integration_serve_kill_resume_test`).
///
/// How the repair stays exact (DESIGN.md §2.6):
///  * Scores live in stamped signed runs (`util/stamped_runs.h`): seed
///    emissions carry stamp 0, the links committed by round k carry stamp
///    k+1, so the multiset round r selected against is recovered by folding
///    stamps <= r.
///  * A batch first computes the *effective* delta set (net presence
///    changes) and the dirty node sets DN = D ∪ N_old(D); a link is dirty
///    iff either endpoint is dirty — exactly the links whose emission
///    could differ under the new graphs.
///  * Dirty links are retracted (negative runs at their original stamps,
///    old graph state), the overlays absorb the deltas, and the links are
///    re-emitted (positive runs, same stamps, new state) — so every round's
///    fold is as if the link had always been emitted against the new
///    graphs.
///  * Replay then re-runs the round schedule. While the rounds match the
///    previous log and sit below the first retouched stamp they are
///    fast-forwarded from the log (no selection); the first round whose
///    accepted set changes truncates every later stamp and continues live.
///
/// Between any two `ApplyBatch` calls the session serializes to a
/// self-contained snapshot (graphs included) and a fresh process resumes it
/// exactly; `ApplyBatch({})` is a full initial match on a fresh session and
/// a no-op on a resumed one.
class IncrementalMatcher {
 public:
  /// Takes ownership of the initial graphs; `seeds` must be in-range and
  /// one-to-one (checked).
  IncrementalMatcher(Graph g1, Graph g2,
                     std::span<const std::pair<NodeId, NodeId>> seeds,
                     const ServeConfig& config);
  ~IncrementalMatcher();

  IncrementalMatcher(const IncrementalMatcher&) = delete;
  IncrementalMatcher& operator=(const IncrementalMatcher&) = delete;

  /// Applies one delta batch and repairs the matching. Out-of-range ops,
  /// self-loops and net no-ops (insert of a present edge, a delete/insert
  /// pair inside the batch) are absorbed; node ids beyond the current range
  /// grow the graphs.
  ServeBatchStats ApplyBatch(const std::vector<EdgeDelta>& deltas);

  const std::vector<NodeId>& map_1to2() const { return map_1to2_; }
  const std::vector<NodeId>& map_2to1() const { return map_2to1_; }
  const OverlayGraph& g1() const { return o1_; }
  const OverlayGraph& g2() const { return o2_; }
  size_t num_links() const { return links_.size(); }
  size_t num_seeds() const { return num_seeds_; }
  int batches_applied() const { return batches_applied_; }

  /// Durable delta-stream cursor: data records consumed from the log as of
  /// the last checkpointed state. Owned by the driver (the matcher only
  /// stores and persists it).
  uint64_t deltas_consumed() const { return deltas_consumed_; }
  void set_deltas_consumed(uint64_t n) { deltas_consumed_ = n; }

  /// Copies the current matching into a `MatchResult` (maps + seeds; the
  /// phase log of the last batch is not included — see ServeBatchStats).
  MatchResult Result() const;

  /// Serializes the full session — config fingerprint, both graphs, link
  /// log, round log, stamped score runs, stream cursor — atomically.
  bool SaveSnapshot(const std::string& path, std::string* error) const;

  /// Restores a `SaveSnapshot` image. Validates end to end (format,
  /// version, config/shard-count match, seed prefix against the ctor
  /// seeds, link-log and round-log consistency) before committing; on
  /// failure the state is untouched and `*error` says why.
  bool LoadSnapshot(const std::string& path, std::string* error);

 private:
  struct ServeRound {
    int32_t iteration = 0;
    int32_t bucket = 0;
    uint64_t first_link = 0;  // index into links_
    uint64_t num_links = 0;
  };

  StampedRuns& Cell(size_t level, size_t shard) {
    return cells_[level * static_cast<size_t>(num_shards_) + shard];
  }
  uint32_t ShardOf(NodeId u) const { return shard1_[u]; }

  // Re-emits `links` against the *current* overlays/levels as one signed
  // run per touched (level, shard) cell at `stamp`. Returns the emission
  // count; marks touched cells in touched_cells_. With `mark_dirty` set
  // (the batch-apply retraction/re-emission passes), also records `stamp`
  // into level_dirty_stamp_ for every level whose cells changed — the
  // per-level fast-forward input for the next Replay. With
  // `changed1`/`changed2` set (per-node flags for changed-edge endpoints,
  // both or neither), the emitted product is restricted to pairs with a
  // changed endpoint on either side — the only pairs whose contribution
  // can differ across the batch (see the definition in EmitLinks).
  size_t EmitLinks(std::span<const std::pair<NodeId, NodeId>> links,
                   uint32_t stamp, int32_t sign, PhaseStats* stats,
                   bool mark_dirty = false,
                   const std::vector<uint8_t>* changed1 = nullptr,
                   const std::vector<uint8_t>* changed2 = nullptr);

  // Recomputes level1_/level2_ from current overlay degrees and grows
  // maps/shard map/selection tables to the current node counts.
  void SyncDerivedState();

  // Re-runs the round schedule against the repaired score state (see class
  // comment), fast-forwarding rounds whose scanned levels carry no dirty
  // stamp <= the round index (per level_dirty_stamp_).
  void Replay(ServeBatchStats* stats);

  ServeConfig config_;
  ThreadPool pool_;
  int num_shards_;

  OverlayGraph o1_;
  OverlayGraph o2_;
  std::vector<uint8_t> level1_;
  std::vector<uint8_t> level2_;
  // Range-partition reduce shard per g1 node. Pinned to the *session-start*
  // g1 node count (persisted) so keys keep their cells as nodes grow —
  // shard(u) = min(S-1, u * S / max(1, n1_pinned_)).
  std::vector<uint32_t> shard1_;
  uint64_t n1_pinned_ = 0;

  std::vector<NodeId> map_1to2_;
  std::vector<NodeId> map_2to1_;
  std::vector<std::pair<NodeId, NodeId>> links_;  // seeds are the prefix
  std::vector<std::pair<NodeId, NodeId>> seeds_;  // ctor copy (validation)
  std::vector<ServeRound> rounds_;                // round log, in order
  size_t num_seeds_ = 0;
  bool seeds_emitted_ = false;  // stamp-0 seed runs exist (persisted)

  // Stamped score cells, level-major: cells_[level * num_shards_ + shard].
  std::vector<StampedRuns> cells_;
  std::vector<uint8_t> touched_cells_;  // per-batch scratch
  // Per level: smallest stamp this batch's retraction/re-emission landed in
  // any of the level's cells (UINT32_MAX when clean). A replay round scans
  // levels [bucket, kNumLevels), so it may fast-forward as long as every
  // scanned level is clean at stamps <= the round index — dirty scores in
  // levels below the round's bucket cannot reach its selection.
  std::vector<uint32_t> level_dirty_stamp_;  // per-batch scratch
  SelectionEngine selection_;

  int batches_applied_ = 0;
  uint64_t deltas_consumed_ = 0;
};

}  // namespace reconcile

#endif  // RECONCILE_SERVE_INCREMENTAL_MATCHER_H_
