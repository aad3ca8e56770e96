#include "reconcile/core/matcher.h"

#include <algorithm>
#include <string>

#include "reconcile/core/matcher_state.h"
#include "reconcile/util/checkpoint.h"
#include "reconcile/util/fault.h"
#include "reconcile/util/logging.h"
#include "reconcile/util/shutdown.h"
#include "reconcile/util/timer.h"

namespace reconcile {

MatchResult UserMatching(const Graph& g1, const Graph& g2,
                         std::span<const std::pair<NodeId, NodeId>> seeds,
                         const MatcherConfig& config) {
  RECONCILE_CHECK_GE(config.num_iterations, 1);
  RECONCILE_CHECK_GE(config.min_bucket_exponent, 0);
  RECONCILE_CHECK_LE(config.min_bucket_exponent, 31);

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
      const std::string path = ResumeFromNewestCheckpoint(
          config.checkpoint_dir, kMatcherCheckpointPrefix,
          config.checkpoint_keep,
          [&state](const std::string& path, std::string* error) {
            return state.LoadSnapshot(path, error);
          });
      if (!path.empty()) {
        RECONCILE_LOG(Info) << "resumed from " << path << " ("
                            << state.completed_rounds()
                            << " rounds completed, " << state.num_links()
                            << " links)";
      }
    }
  }

  while (!state.Done()) {
    state.RunRound();
    // Fault hook between completing a round and persisting it: a
    // `crash:after_round=k` kill lands before the round-k checkpoint, so a
    // resume re-runs from an earlier snapshot (exercising replay, not just
    // reload).
    FaultValuePoint("after_round", state.completed_rounds());
    // A graceful stop (SIGTERM/SIGINT, or the `stop:` fault kind) finishes
    // the in-flight round, persists it, and returns the partial matching.
    const bool stop = GracefulStopRequested() && !state.Done();
    if (checkpointing && (state.Done() || stop ||
                          state.completed_rounds() % every == 0)) {
      // A failed write costs this recovery point only (an injected
      // `io:checkpoint_write_fail` exercises that path).
      WriteCheckpoint(config.checkpoint_dir, kMatcherCheckpointPrefix,
                      state.completed_rounds(), config.checkpoint_keep,
                      [&state](const std::string& path, std::string* error) {
                        return state.SaveSnapshot(path, error);
                      });
    }
    if (stop) break;
  }
  return state.TakeResult(timer.Seconds());
}

}  // namespace reconcile
