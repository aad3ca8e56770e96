#ifndef RECONCILE_UTIL_TIERED_STORE_H_
#define RECONCILE_UTIL_TIERED_STORE_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>

#include "reconcile/util/radix_sort.h"
#include "reconcile/util/spill_store.h"

namespace reconcile {

/// One score cell's `(key, count)` aggregate as at most two sorted runs
/// (tiers): a big base run and one delta. Round deltas land in the delta;
/// the base is only rewritten when the delta has grown to a quarter of it,
/// so late low-yield rounds stop paying a full-run merge each round, and a
/// scan never folds more than two runs.
///
/// A key may appear in both tiers; `ForEach` merges them on the fly,
/// summing the counts, so consumers see exactly the single-run aggregate.
///
/// Each tier lives either resident (a `SortedCountRun`) or spilled (an
/// mmap'd `SpilledRun`, see `util/spill_store.h`); the memory-budget
/// enforcement layer moves tiers to disk via `SpillTier`, and the store
/// materializes a spilled tier back whenever an operation must rewrite it
/// (a merge, `Filter`). Reads never distinguish the two forms.
class TieredCountRuns {
 public:
  /// Resident footprint of a run of `entries` entries (flat key + count
  /// payload; the store's accounting unit — vector headers and malloc slop
  /// are noise at spill-worthy sizes).
  static size_t BytesForEntries(size_t entries) {
    return entries * (sizeof(uint64_t) + sizeof(uint32_t));
  }

  /// Adds a round delta. Into an empty cell it becomes the base; otherwise
  /// it merges into the delta tier, and the delta folds into the base once
  /// the base is at most `kFoldRatio` times the delta's size. Afterwards the
  /// delta is empty or under 1 / `kFoldRatio` of the base. Empty deltas are
  /// dropped.
  ///
  /// The ratio keeps tier sizes geometrically separated, so total merge
  /// traffic is O(N log N) instead of the O(N · rounds) of merging every
  /// round into one run. A sweep of other shapes (one to four tiers; ratios
  /// 0, 2 and 8) measured none faster beyond noise, and a single run 27%
  /// slower on Chung-Lu 200k (DESIGN.md §2.2).
  void Append(SortedCountRun&& delta) {
    if (delta.empty()) return;
    if (base_.size() == 0) {
      base_.resident = std::move(delta);
      return;
    }
    delta_.MergeIn(std::move(delta));
    if (base_.size() <= kFoldRatio * delta_.size()) {
      base_.MergeIn(std::move(delta_.resident));
      delta_ = Tier{};
    }
  }

  /// Invokes `fn(key, total_count)` once per distinct key, in ascending key
  /// order, with the two tiers' counts summed — whether they are resident
  /// or spilled (mmap makes the pointer walk identical).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const View a = base_.view();
    const View b = delta_.view();
    size_t i = 0, j = 0;
    while (i < a.size && j < b.size) {
      const uint64_t ka = a.keys[i];
      const uint64_t kb = b.keys[j];
      if (ka < kb) {
        fn(ka, a.counts[i++]);
      } else if (kb < ka) {
        fn(kb, b.counts[j++]);
      } else {
        fn(ka, a.counts[i++] + b.counts[j++]);
      }
    }
    for (; i < a.size; ++i) fn(a.keys[i], a.counts[i]);
    for (; j < b.size; ++j) fn(b.keys[j], b.counts[j]);
  }

  /// Keeps only entries with `pred(key, tier_count)`. The predicate sees the
  /// per-tier count, so it must decide on the key alone (the matcher's
  /// liveness sweep does). A base the filter empties is replaced by the
  /// delta. Spilled tiers are materialized first — a filter rewrites the
  /// run, and the budget layer re-decides placement on its next pass.
  template <typename Pred>
  void Filter(Pred&& pred) {
    for (Tier* tier : {&base_, &delta_}) {
      tier->Materialize();
      tier->resident.Filter(pred);
      if (tier->size() == 0) *tier = Tier{};  // frees the emptied buffers
    }
    if (base_.size() == 0) std::swap(base_, delta_);
  }

  /// Moves tier `index` (0 the base, 1 the delta; below `num_tiers()`) to
  /// disk via `store`. Returns true on success; on failure (including an
  /// injected fault) the tier stays resident and `*error` describes why.
  /// Spilling an already-spilled or empty tier is a successful no-op.
  bool SpillTier(size_t index, SpillStore& store, std::string* error) {
    Tier& tier = index == 0 ? base_ : delta_;
    if (tier.spilled != nullptr || tier.size() == 0) return true;
    std::unique_ptr<SpilledRun> spilled = store.Spill(tier.resident, error);
    if (spilled == nullptr) return false;
    tier.spilled = std::move(spilled);
    tier.resident = SortedCountRun{};
    return true;
  }

  bool empty() const { return base_.size() == 0; }
  /// 0 (empty), 1 (a base) or 2 (a base and a delta).
  size_t num_tiers() const {
    return (base_.size() > 0 ? 1 : 0) + (delta_.size() > 0 ? 1 : 0);
  }
  size_t tier_size(size_t index) const {
    return (index == 0 ? base_ : delta_).size();
  }
  bool tier_spilled(size_t index) const {
    return (index == 0 ? base_ : delta_).spilled != nullptr;
  }

  /// Bytes of tier payload currently held in RAM (spilled tiers cost 0 —
  /// their pages are file-backed and evictable).
  size_t resident_bytes() const {
    size_t total = 0;
    for (const Tier* tier : {&base_, &delta_}) {
      if (tier->spilled == nullptr) total += BytesForEntries(tier->size());
    }
    return total;
  }

 private:
  static constexpr size_t kFoldRatio = 4;

  struct View {
    const uint64_t* keys = nullptr;
    const uint32_t* counts = nullptr;
    size_t size = 0;
  };

  struct Tier {
    SortedCountRun resident;              // authoritative when not spilled
    std::unique_ptr<SpilledRun> spilled;  // non-null => resident is empty

    size_t size() const {
      return spilled != nullptr ? spilled->size() : resident.size();
    }

    View view() const {
      if (spilled != nullptr) {
        return View{spilled->keys(), spilled->counts(), spilled->size()};
      }
      return View{resident.keys.data(), resident.counts.data(),
                  resident.size()};
    }

    // Copies a spilled tier back into resident vectors and drops the file.
    void Materialize() {
      if (spilled == nullptr) return;
      resident.keys.assign(spilled->keys(), spilled->keys() + spilled->size());
      resident.counts.assign(spilled->counts(),
                             spilled->counts() + spilled->size());
      spilled.reset();
    }

    // Merges `run` into this tier, materializing it first if spilled.
    void MergeIn(SortedCountRun&& run) {
      Materialize();
      MergeCountRuns(resident, std::move(run));
    }
  };

  Tier base_;   // empty only when the whole cell is
  Tier delta_;  // empty, or under 1 / kFoldRatio of the base after Append
};

}  // namespace reconcile

#endif  // RECONCILE_UTIL_TIERED_STORE_H_
