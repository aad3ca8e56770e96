#ifndef RECONCILE_UTIL_FAULT_H_
#define RECONCILE_UTIL_FAULT_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace reconcile {

/// Deterministic fault injection for crash-safety testing.
///
/// Code under test declares *named fault points*; a process-global injector
/// is armed with a spec naming which points misbehave and when. Nothing
/// fires unless armed, and every firing is deterministic (keyed on an
/// explicit value or a per-point hit counter), so a killed-and-resumed run
/// can be replayed bit for bit.
///
/// Spec grammar — entries separated by `;` or `,`, each `kind:point[=value]`:
///
///   crash:after_round=3        kill the process (`_exit(kFaultCrashExitCode)`)
///                              when value point "after_round" is reached
///                              with value 3
///   stop:after_round=2         request a graceful stop (see
///                              `util/shutdown.h`) at that point — a
///                              deterministic stand-in for SIGTERM
///   io:checkpoint_write_fail   fail the 1st hit of that io point
///   io:checkpoint_truncate=2   fire on the 2nd hit (1-based) instead
///   io:enospc_after=4          threshold io point (`FaultPointExhausted`):
///                              fires on every hit *after* the 4th — the
///                              shape of a disk filling up, where every
///                              write past the cliff fails, not just one
///
/// Arming sources: `ArmFaults` (what the tools' `--fault` flag and the
/// test harnesses call) overrides the `RECONCILE_FAULT` environment
/// variable, which is read once, at first injector use. Nothing in the
/// library arms faults: no config field or registry param carries a spec.
///
/// Known points (grep for the literals to find the hooks; `fault.cc` keeps
/// them in one table with the tools that reach them):
///   after_round            value point in `UserMatching`'s round loop;
///                          value = completed round count
///   checkpoint_write_fail  io point in `SnapshotWriter::Commit` — the
///                          commit reports failure without writing
///   checkpoint_truncate    io point in `SnapshotWriter::Commit` — the
///                          commit writes only half the file but reports
///                          success (simulates a torn write on a
///                          non-atomic filesystem)
///   spill_write_fail       io point in `SpillStore::Spill` — writing a
///                          tier's backing file fails outright
///   spill_truncate         io point in `SpillStore::Spill` — the backing
///                          file is written half-length but the write
///                          reports success (torn spill; caught by the
///                          post-write size validation)
///   mmap_fail              io point in `SpillStore::Spill` — the write
///                          succeeds but mapping the file back fails
///   enospc_after           threshold io point in `SpillStore::Spill` —
///                          after N successful spill writes every later
///                          one fails as if the disk ran out of space
///   spill_commit           value point fired after each successful spill
///                          (value = spills completed so far this
///                          process) — `crash:spill_commit=k` kills the
///                          process in the middle of a budget-enforcement
///                          pass
///   serve_apply            value point in `IncrementalMatcher::ApplyBatch`
///                          (value = 1-based batch number, the initial
///                          match counting as batch 1), fired after the
///                          batch's graphs replaced the session's but
///                          before the matcher re-ran on them — the graphs
///                          are new, the matching is the previous
///                          batch's. A `stop:` here still finishes the
///                          batch
///   after_batch            value point in `reconcile_serve` between
///                          re-matching and writing the batch's
///                          checkpoint — a crash here loses exactly one
///                          batch, which the resume re-applies from the
///                          delta stream

/// Exit code of a `crash:` fault (distinguishable from aborts and clean
/// exits in kill/resume harnesses).
inline constexpr int kFaultCrashExitCode = 42;

/// The process a spec is armed in. Each tool reaches only some of the
/// known points, and a spec naming one it never reaches could never fire.
enum class FaultScope {
  kAny,    ///< Any known point: test harnesses and `RECONCILE_FAULT`.
  kBatch,  ///< `reconcile_cli`: never reaches serve_apply or after_batch.
  kServe,  ///< `reconcile_serve`: never reaches after_round or the spill
           ///< points (it runs unbudgeted).
};

/// Replaces the armed fault set with `spec` (empty spec = disarm all).
/// Returns false and fills `*error` on a malformed spec, leaving the
/// previously armed set untouched. Malformed: bad grammar, a point outside
/// "Known points" above, a kind that does not fit its point (io: on a value
/// point, crash: or stop: on an io point), or a point `scope` never reaches.
/// `RECONCILE_FAULT` is checked the same way under `kAny`; a bad one is one
/// warning and arms nothing.
bool ArmFaults(const std::string& spec, std::string* error,
               FaultScope scope = FaultScope::kAny);

/// Disarms every fault and resets all hit counters.
void DisarmFaults();

/// The currently armed spec in canonical form ("" when disarmed).
std::string ArmedFaultSpec();

/// IO fault point: increments the point's hit counter and returns true when
/// an armed `io:` entry for `point` fires on this hit. Call sites treat
/// `true` as the injected failure.
bool FaultPointHit(std::string_view point);

/// Threshold io fault point: increments the point's hit counter and returns
/// true when an armed `io:` entry for `point` has a value *smaller* than
/// this hit's 1-based index — i.e. `io:point=N` lets the first N hits
/// through and fails every one after (N = 0 fails every hit). Models
/// resource exhaustion (ENOSPC), which does not clear after one failure.
bool FaultPointExhausted(std::string_view point);

/// Value fault point: fires armed `crash:` entries (terminating the process
/// via `_exit(kFaultCrashExitCode)` after flushing a diagnostic) and
/// `stop:` entries (calling `RequestGracefulStop()`) whose armed value
/// equals `value`.
void FaultValuePoint(std::string_view point, int64_t value);

}  // namespace reconcile

#endif  // RECONCILE_UTIL_FAULT_H_
