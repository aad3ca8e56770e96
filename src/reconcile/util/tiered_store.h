#ifndef RECONCILE_UTIL_TIERED_STORE_H_
#define RECONCILE_UTIL_TIERED_STORE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "reconcile/util/row_run.h"
#include "reconcile/util/spill_store.h"

namespace reconcile {

/// One score cell's pair counts as at most two row-major runs (tiers, see
/// `util/row_run.h`): a big base run and one delta. Round deltas land in the
/// delta; the base is only rewritten when the delta has grown to a quarter
/// of it, so late low-yield rounds stop paying a full-run merge each round,
/// and a scan never folds more than two runs.
///
/// A pair may appear in both tiers; `ForEach` merges them on the fly,
/// summing the counts in u32, so consumers see one total per pair.
///
/// Every rewrite of a tier (a merge, the fold, `Filter`) leaves out the
/// entries its drop rule names (see `KeepAll`). The tiers are rewritten at
/// different times, so a pair the rule names may survive in one tier with a
/// partial total; the matcher's rule names only dead pairs, whose totals no
/// accept reads.
///
/// Each tier lives either resident (a `RowRun`) or spilled (an mmap'd
/// `SpilledRun`, see `util/spill_store.h`); the memory-budget enforcement
/// layer moves tiers to disk via `SpillTier`, and a rewrite reads a spilled
/// tier straight from its mapping and leaves the result resident. Reads
/// never distinguish the two forms.
class TieredCountRuns {
 public:
  /// Adds a round delta. Into an empty cell it becomes the base; otherwise
  /// it merges into the delta tier, and the delta folds into the base once
  /// the base is at most `kFoldRatio` times the delta's size. Afterwards the
  /// delta is empty or under 1 / `kFoldRatio` of the base. Empty deltas are
  /// dropped, and a delta that lands in an empty tier is adopted as it is.
  ///
  /// The ratio keeps tier sizes geometrically separated, so total merge
  /// traffic is O(N log N) instead of the O(N · rounds) of merging every
  /// round into one run. A sweep of other shapes (one to four tiers; ratios
  /// 0, 2 and 8) measured none faster beyond noise, and a single run 27%
  /// slower on Chung-Lu 200k (DESIGN.md §2.2).
  ///
  /// Given an `observe`, calls `observe(u, v, total)` for every pair of
  /// `delta`, in ascending (u, v) order, with its total once appended: the
  /// merge into the delta tier gives the pair's total over that tier and
  /// the delta, and the base's share is looked up by (u, v) (`RowLookup`),
  /// through its mapping when spilled. Exact for every pair the drop rule
  /// does not name: only those are sure to keep all of their stored counts.
  template <typename Drop = KeepAll, typename Observe = std::nullptr_t>
  void Append(RowRun&& delta, const Drop& drop = Drop{},
              Observe&& observe = nullptr) {
    constexpr bool kObserve = !std::is_null_pointer_v<std::decay_t<Observe>>;
    if (delta.empty()) return;
    RowLookup base(base_.view());
    auto with_base = [&base, &observe](auto u, auto v, auto total) {
      observe(u, v, total + base.Count(u, v));
    };
    if (delta_.size() > 0) {
      if constexpr (kObserve) {
        delta_.Rewrite(delta.view(), drop, with_base);
      } else {
        delta_.Rewrite(delta.view(), drop, nullptr);
      }
    } else {
      if constexpr (kObserve) {
        const RowRunView run = delta.view();
        row_run_internal::Cursor c{run};
        row_run_internal::ForEachEntry(c, run.num_rows, with_base);
      }
      if (base_.size() == 0) {
        base_.resident = std::move(delta);
        return;
      }
      delta_.resident = std::move(delta);
    }
    if (base_.size() <= kFoldRatio * delta_.size()) {
      base_.Rewrite(delta_.view(), drop, nullptr);
      delta_ = Tier{};
    }
  }

  /// Invokes `fn(u, v, total)` once per distinct pair whose total over both
  /// tiers is at least `min_total`, in ascending (u, v) order. Returns the
  /// number of distinct pairs stored, those below `min_total` included.
  /// Rows held by one tier alone are screened on their count bytes a
  /// stretch at a time: an entry whose byte is below min(`min_total`, 255)
  /// is skipped without reading its `v` or its row.
  template <typename Fn>
  size_t ForEach(uint32_t min_total, Fn&& fn) const {
    const uint32_t screen = std::min(min_total, kEscapedCount);
    size_t pairs = 0;
    WalkRows(
        base_.view(), delta_.view(),
        [&fn, &pairs, min_total, screen](row_run_internal::Cursor& c,
                                         uint64_t limit) {
          const RowRunView& run = c.run;
          const size_t last = c.RowsBelow(limit);
          const size_t end = run.rows[last - 1].end;
          size_t row = c.row;  // advanced lazily, only to place a hit
          for (size_t i = c.entry; i < end; ++i) {
            if (run.counts[i] < screen) continue;
            const uint32_t total = c.Count(i);
            if (total < min_total) continue;
            while (run.rows[row].end <= i) ++row;
            fn(run.rows[row].u, run.vs[i], total);
          }
          pairs += end - c.entry;
          c.row = last;
          c.entry = end;
        },
        [&fn, &pairs, min_total](uint32_t u, uint32_t v, uint32_t total,
                                 bool) {
          ++pairs;
          if (total >= min_total) fn(u, v, total);
        },
        [](uint32_t) {});
    return pairs;
  }

  /// Leaves out of both tiers the entries `drop` names. A base the filter
  /// empties is replaced by the delta. A spilled tier is read from its
  /// mapping and comes back resident; the budget layer re-decides placement
  /// on its next pass.
  template <typename Drop>
  void Filter(const Drop& drop) {
    for (Tier* tier : {&base_, &delta_}) {
      if (tier->size() > 0) tier->Rewrite(RowRunView{}, drop, nullptr);
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
    tier.resident = RowRun{};
    return true;
  }

  bool empty() const { return base_.size() == 0; }
  /// 0 (empty), 1 (a base) or 2 (a base and a delta).
  size_t num_tiers() const {
    return (base_.size() > 0 ? 1 : 0) + (delta_.size() > 0 ? 1 : 0);
  }
  /// Entries (stored pairs) of tier `index`.
  size_t tier_size(size_t index) const {
    return (index == 0 ? base_ : delta_).size();
  }
  /// Payload bytes of tier `index`, resident or spilled (`RowRunBytes`).
  size_t tier_bytes(size_t index) const {
    return RowRunBytes((index == 0 ? base_ : delta_).view());
  }
  bool tier_spilled(size_t index) const {
    return (index == 0 ? base_ : delta_).spilled != nullptr;
  }

  /// Bytes of tier payload currently held in RAM (spilled tiers cost 0 —
  /// their pages are file-backed and evictable).
  size_t resident_bytes() const {
    size_t total = 0;
    for (size_t t = 0; t < 2; ++t) {
      if (!tier_spilled(t)) total += tier_bytes(t);
    }
    return total;
  }

 private:
  static constexpr size_t kFoldRatio = 4;

  struct Tier {
    RowRun resident;                      // authoritative when not spilled
    std::unique_ptr<SpilledRun> spilled;  // non-null => resident is empty

    RowRunView view() const {
      return spilled != nullptr ? spilled->view() : resident.view();
    }
    size_t size() const { return view().size; }

    // Replaces this tier by its merge with `other`, leaving out what `drop`
    // names, and observing `other`'s pairs (`MergeRowRuns`). A spilled tier
    // is read from its mapping, which goes after.
    template <typename Drop, typename Observe>
    void Rewrite(const RowRunView& other, const Drop& drop,
                 Observe&& observe) {
      RowRun merged = MergeRowRuns(view(), other, drop, observe);
      spilled.reset();
      resident = std::move(merged);
    }
  };

  Tier base_;   // empty only when the whole cell is
  Tier delta_;  // empty, or under 1 / kFoldRatio of the base after Append
};

}  // namespace reconcile

#endif  // RECONCILE_UTIL_TIERED_STORE_H_
