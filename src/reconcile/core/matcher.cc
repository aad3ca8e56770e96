#include "reconcile/core/matcher.h"

#include <algorithm>
#include <iterator>

#include "reconcile/core/matcher_state.h"
#include "reconcile/util/checkpoint.h"
#include "reconcile/util/fault.h"
#include "reconcile/util/logging.h"
#include "reconcile/util/shutdown.h"
#include "reconcile/util/timer.h"

namespace reconcile {

namespace {

// Resume: walk the checkpoint directory newest-first and restore the first
// snapshot that validates end to end. Corrupt or mismatched files are
// warnings, not errors — recovery falls back to the previous checkpoint,
// and to a fresh start if none survives.
//
// With retention enabled, a successful resume also prunes: a killed run
// can leave more snapshots than `keep` (the prune only ran after
// successful writes), and without this pass the excess would persist
// forever across resume cycles. The keep count is raised so the
// just-resumed file always survives, even when newer — corrupt or
// mismatched — files occupy the newest retention slots.
void TryResume(MatcherState* state, const std::string& dir, int keep) {
  std::vector<CheckpointFile> checkpoints = ListCheckpoints(dir);
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
    std::string error;
    if (state->LoadSnapshot(it->path, &error)) {
      RECONCILE_LOG(Info) << "resumed from " << it->path << " ("
                          << state->completed_rounds()
                          << " rounds completed, " << state->num_links()
                          << " links)";
      if (keep > 0) {
        const int newer =
            static_cast<int>(std::distance(checkpoints.rbegin(), it));
        std::string prune_error;
        PruneCheckpoints(dir, std::max(keep, newer + 1), &prune_error);
        if (!prune_error.empty()) {
          RECONCILE_LOG(Warning)
              << "checkpoint prune on resume failed (non-fatal): "
              << prune_error;
        }
      }
      return;
    }
    RECONCILE_LOG(Warning) << "skipping checkpoint " << it->path << ": "
                           << error;
  }
  RECONCILE_LOG(Warning) << "no usable checkpoint in " << dir
                         << "; starting from the seeds";
}

// Writes the post-round snapshot for the current state. Failure is a
// warning: the matcher keeps running, it just loses this recovery point
// (an injected `io:checkpoint_write_fail` exercises exactly this path).
// After a *successful* write, retention prunes all but the newest `keep`
// snapshots — never after a failed one, so a bad write cannot shrink the
// set of usable recovery points.
void WriteCheckpoint(const MatcherState& state, const std::string& dir,
                     int keep) {
  const std::string path = CheckpointPath(dir, state.completed_rounds());
  std::string error;
  if (!state.SaveSnapshot(path, &error)) {
    RECONCILE_LOG(Warning) << "checkpoint write failed: " << error;
    return;
  }
  std::string prune_error;
  PruneCheckpoints(dir, keep, &prune_error);
  if (!prune_error.empty()) {
    RECONCILE_LOG(Warning) << "checkpoint prune failed (non-fatal): "
                           << prune_error;
  }
}

}  // namespace

MatchResult UserMatching(const Graph& g1, const Graph& g2,
                         std::span<const std::pair<NodeId, NodeId>> seeds,
                         const MatcherConfig& config) {
  RECONCILE_CHECK_GE(config.num_iterations, 1);
  RECONCILE_CHECK_GE(config.min_bucket_exponent, 0);
  if (!config.fault_spec.empty()) {
    std::string error;
    RECONCILE_CHECK(ArmFaults(config.fault_spec, &error))
        << "bad fault spec: " << error;
  }

  Timer timer;
  MatcherState state(g1, g2, config);
  state.SeedLinks(seeds);

  const bool checkpointing = !config.checkpoint_dir.empty();
  const int every = std::max(1, config.checkpoint_every_rounds);
  if (checkpointing) {
    std::string error;
    RECONCILE_CHECK(EnsureDir(config.checkpoint_dir, &error))
        << "cannot create checkpoint directory: " << error;
    if (config.resume) {
      TryResume(&state, config.checkpoint_dir, config.checkpoint_keep);
    }
  }

  bool stopped_early = false;
  while (!state.Done()) {
    state.RunRound();
    // Fault hook between completing a round and persisting it: a
    // `crash:after_round=k` kill lands before the round-k checkpoint, so a
    // resume re-runs from an earlier snapshot (exercising replay, not just
    // reload).
    FaultValuePoint("after_round", state.completed_rounds());
    if (checkpointing &&
        (state.Done() || state.completed_rounds() % every == 0)) {
      WriteCheckpoint(state, config.checkpoint_dir, config.checkpoint_keep);
    }
    if (GracefulStopRequested() && !state.Done()) {
      stopped_early = true;
      break;
    }
  }
  // A graceful stop (SIGTERM/SIGINT, or the `stop:` fault kind) finishes
  // the in-flight round, persists it, and returns the partial matching.
  if (stopped_early && checkpointing &&
      state.completed_rounds() % every != 0) {
    WriteCheckpoint(state, config.checkpoint_dir, config.checkpoint_keep);
  }
  return state.TakeResult(timer.Seconds());
}

}  // namespace reconcile
