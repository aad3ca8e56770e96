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
#include "reconcile/graph/edge_list.h"
#include "reconcile/graph/graph.h"
#include "reconcile/graph/types.h"
#include "reconcile/serve/delta_log.h"

namespace reconcile {

/// File-name prefix of serve checkpoints (`serve-batch-NNNNNN.ckpt`, the
/// counter being the applied batches; see the checkpoint-file helpers in
/// util/checkpoint.h).
inline constexpr char kServeCheckpointPrefix[] = "serve-batch-";

struct ServeConfig {
  /// Matching semantics and execution knobs, with the same meaning as for
  /// the batch matcher: every batch runs `MatcherState` under this config.
  /// The crash-safety fields (`checkpoint_*`, `resume`) are read only by
  /// `UserMatching`, not here; a serve driver checkpoints through
  /// `SaveSnapshot` and `LoadSnapshot`.
  MatcherConfig matcher;
};

/// Telemetry for one `ApplyBatch` call.
struct ServeBatchStats {
  int batch = 0;              // 1-based batch number
  size_t deltas_in = 0;       // records handed to ApplyBatch
  size_t deltas_applied = 0;  // edges whose presence changed end-to-end
  // Always 0: a batch reruns the matcher rather than repairing it. Kept for
  // callers that still report them.
  size_t dirty_links = 0;
  size_t rescored_units = 0;
  int skipped_rounds = 0;
  int replayed_rounds = 0;    // rounds the batch's rerun ran (0: no rerun)
  size_t links_added = 0;     // links in the new matching but not the old
  size_t links_removed = 0;   // links in the old matching but not the new
  size_t num_links = 0;       // links after the batch (seeds included)
  double seconds = 0;
  std::vector<PhaseStats> rounds;  // per-phase stats of the rerun's rounds
};

/// A read-only view of one of the session's graphs, which is one immutable
/// `Graph`. It is a type of its own, under this name, only because the
/// end-to-end benchmark names it (`const OverlayGraph& g = session.g1()`).
class OverlayGraph {
 public:
  explicit OverlayGraph(Graph graph) : graph_(std::move(graph)) {}

  NodeId num_nodes() const { return graph_.num_nodes(); }
  size_t num_edges() const { return graph_.num_edges(); }
  NodeId degree(NodeId u) const { return graph_.degree(u); }

  /// True iff the edge {u, v} is present; false for any id past the end.
  bool HasEdge(NodeId u, NodeId v) const { return graph_.HasEdge(u, v); }

  /// Neighbours of `u`, ascending, copied.
  std::vector<NodeId> Neighbors(NodeId u) const {
    const std::span<const NodeId> neighbors = graph_.Neighbors(u);
    return {neighbors.begin(), neighbors.end()};
  }

  /// The edge set as a canonical (u < v) edge list whose node range is
  /// `num_nodes()`. Edges come out sorted by (u, v).
  EdgeList Materialize() const;

  const Graph& graph() const { return graph_; }

 private:
  Graph graph_;
};

/// The continuous-reconciliation session: a live matching over a pair of
/// immutable CSR graphs. Each `ApplyBatch` nets the batch against the
/// graphs, rebuilds each changed side by one sorted merge and re-runs the
/// batch matcher (`MatcherState`) on the result, so the served matching
/// equals a from-scratch run on the current graphs by construction
/// (`serve_incremental_differential_test` checks it after every batch, and
/// `integration_serve_kill_resume_test` across kill/resume).
///
/// Between any two `ApplyBatch` calls the session serializes to a
/// self-contained snapshot (graphs included) and a fresh process resumes it
/// exactly; `ApplyBatch({})` is the initial match on a fresh session and a
/// no-op on a resumed one.
class IncrementalMatcher {
 public:
  /// Takes ownership of the initial graphs; `seeds` must be in-range and
  /// one-to-one (checked).
  IncrementalMatcher(Graph g1, Graph g2,
                     std::span<const std::pair<NodeId, NodeId>> seeds,
                     const ServeConfig& config);

  IncrementalMatcher(const IncrementalMatcher&) = delete;
  IncrementalMatcher& operator=(const IncrementalMatcher&) = delete;

  /// Applies one delta batch and re-matches. Per edge the batch's last
  /// record wins; self-loops and net no-ops (insert of a present edge,
  /// delete of an absent one, an insert/delete pair inside the batch) are
  /// absorbed. A side's node range grows to the largest endpoint of an
  /// applied insert + 1, and never shrinks. The matcher runs when an edge
  /// changed or no batch has run yet, and always to completion: a pending
  /// graceful stop is honoured between batches. Both new graphs are built
  /// before either replaces its predecessor, so an allocation failure
  /// (`std::bad_alloc`, ids implying too many nodes) leaves the session as
  /// it was.
  ServeBatchStats ApplyBatch(const std::vector<EdgeDelta>& deltas);

  const std::vector<NodeId>& map_1to2() const { return map_1to2_; }
  const std::vector<NodeId>& map_2to1() const { return map_2to1_; }
  const OverlayGraph& g1() const { return graphs_[0]; }
  const OverlayGraph& g2() const { return graphs_[1]; }
  size_t num_links() const { return num_links_; }
  size_t num_seeds() const { return seeds_.size(); }
  int batches_applied() const { return batches_applied_; }

  /// Durable delta-stream cursor: data records consumed from the log as of
  /// the last checkpointed state. Owned by the driver (the matcher only
  /// stores and persists it).
  uint64_t deltas_consumed() const { return deltas_consumed_; }
  void set_deltas_consumed(uint64_t n) { deltas_consumed_ = n; }

  /// Copies the current matching into a `MatchResult` (maps + seeds; the
  /// phase log of the last batch is not included — see ServeBatchStats).
  MatchResult Result() const;

  /// Serializes the session — matching semantics, both graphs, the links,
  /// batch count and stream cursor — atomically.
  bool SaveSnapshot(const std::string& path, std::string* error) const;

  /// Restores a `SaveSnapshot` image taken under the same matching
  /// semantics; the thread count may differ. Validates end to end
  /// (format, version, semantics, graphs, links one-to-one, in range and
  /// containing the ctor seeds) before committing; on failure the state is
  /// untouched and `*error` says why.
  bool LoadSnapshot(const std::string& path, std::string* error);

 private:
  // Runs the batch matcher on the current graphs to Done().
  void Rerun(ServeBatchStats* stats);

  ServeConfig config_;

  OverlayGraph graphs_[2];  // g1, g2
  std::vector<std::pair<NodeId, NodeId>> seeds_;
  std::vector<NodeId> map_1to2_;
  std::vector<NodeId> map_2to1_;
  size_t num_links_ = 0;

  int batches_applied_ = 0;
  uint64_t deltas_consumed_ = 0;
};

}  // namespace reconcile

#endif  // RECONCILE_SERVE_INCREMENTAL_MATCHER_H_
