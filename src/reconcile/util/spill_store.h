#ifndef RECONCILE_UTIL_SPILL_STORE_H_
#define RECONCILE_UTIL_SPILL_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "reconcile/util/row_run.h"

namespace reconcile {

/// Out-of-core backing store for the matcher's score cells.
///
/// At the paper's target scale the per-(level, shard) row-major runs
/// (`util/row_run.h`) dominate RAM. `SpillStore` moves whole runs (tiers)
/// to disk: a tier is written as one flat file under a score directory and
/// mapped back read-only, so the matcher keeps only a pointer-sized view
/// resident while the selection `ForEach` merge streams the same bytes it
/// would have read from the resident vectors. Scans over spilled tiers are purely sequential — exactly the
/// access pattern mmap streaming rewards and the sorted score store's design
/// premise — so matchings are bit-identical to the all-resident run by
/// construction.
///
/// File format (host-endian, same-architecture scratch — spill files are
/// transient per-process state, not durable interchange):
///
///   [magic u64][rows u64 R][entries u64 n][escapes u64 E]
///   [rows (u32 u, u32 end) × R][v u32 × n][escaped counts u32 × E]
///   [count bytes u8 × n]
///
/// — the run's four arrays in the order that keeps every one aligned.
///
/// The writer fsyncs and validates the on-disk length before mapping; a torn
/// or short file is a clean spill failure, never a wrong view. Every failure
/// mode — create/write failure, ENOSPC, a torn write, a failed mmap — makes
/// `Spill` return null with a diagnostic and leaves no file behind; the
/// caller keeps the resident copy (graceful degradation: losing the spill
/// only costs memory headroom, never correctness). Injectable faults (see
/// `util/fault.h`): `io:spill_write_fail`, `io:spill_truncate`,
/// `io:mmap_fail`, `io:enospc_after=N`, and the `spill_commit` value point
/// for `crash:` kills mid-enforcement.
///
/// Files are named `spill-<pid>-<seq>.spill`, with `seq` counted across
/// every store of the process, so stores sharing a score directory never
/// collide. Each `SpilledRun` unlinks its file when its tier is unspilled
/// or its cell destroyed, so a clean exit — including a graceful
/// SIGINT/SIGTERM stop — leaves the score directory empty (the directory
/// itself stays). Only a hard crash leaves scratch behind, and a resumed
/// process never reads stale spill files: checkpoints hold no score state
/// (a resume rebuilds it from the links), so spill files are never part of
/// durable state.

/// A read-only, file-backed row-major run: the spilled form of one tier of
/// a score cell. Owns the mapping and the backing file (unlinked on
/// destruction). Move-only.
class SpilledRun {
 public:
  ~SpilledRun();
  SpilledRun(const SpilledRun&) = delete;
  SpilledRun& operator=(const SpilledRun&) = delete;

  /// The run, read through the mapping.
  const RowRunView& view() const { return view_; }
  size_t size() const { return view_.size; }
  /// Bytes of the backing file (what the spill freed, modulo page cache).
  size_t file_bytes() const { return file_bytes_; }
  const std::string& path() const { return path_; }

 private:
  friend class SpillStore;
  SpilledRun() = default;

  RowRunView view_;
  size_t file_bytes_ = 0;
  void* map_base_ = nullptr;
  size_t map_length_ = 0;
  std::string path_;
};

/// Running totals of a store's spill activity (monotonic per store).
struct SpillStats {
  size_t tiers_spilled = 0;   ///< Successful spills.
  size_t bytes_spilled = 0;   ///< Sum of backing-file bytes written.
  size_t spill_failures = 0;  ///< Spills that fell back to resident.
};

/// Creates, tracks and cleans up the spill files of one matcher run.
/// Not thread-safe: the budget-enforcement pass that calls `Spill` runs on
/// one thread (readers of the returned `SpilledRun` views are lock-free and
/// may be many).
class SpillStore {
 public:
  /// Does not touch the filesystem; the directory is created lazily on the
  /// first spill (a run that never exceeds its budget never does I/O).
  explicit SpillStore(std::string dir);

  SpillStore(const SpillStore&) = delete;
  SpillStore& operator=(const SpillStore&) = delete;

  /// Writes `run` to a fresh backing file and maps it read-only. Returns
  /// null with `*error` set on any failure (injected or real); no file is
  /// left behind on failure. After `Disable()` (or once `disabled()` trips
  /// internally), returns null immediately without touching the disk.
  std::unique_ptr<SpilledRun> Spill(const RowRun& run, std::string* error);

  /// Permanently stops spilling for this store (graceful degradation after
  /// repeated failures — the run continues all-resident).
  void Disable() { disabled_ = true; }
  bool disabled() const { return disabled_; }

  const SpillStats& stats() const { return stats_; }

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  bool dir_ready_ = false;
  bool disabled_ = false;
  SpillStats stats_;
};

}  // namespace reconcile

#endif  // RECONCILE_UTIL_SPILL_STORE_H_
