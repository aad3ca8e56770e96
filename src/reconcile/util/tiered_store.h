#ifndef RECONCILE_UTIL_TIERED_STORE_H_
#define RECONCILE_UTIL_TIERED_STORE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "reconcile/util/radix_sort.h"
#include "reconcile/util/spill_store.h"

namespace reconcile {

/// When `TieredCountRuns::Append` folds tiers together (size-tiered
/// compaction, LSM-style). Both knobs only move merge work around in time;
/// the aggregate the store represents — and therefore every matching
/// computed from it — is identical for all settings.
struct TierPolicy {
  /// Hard cap on resident tiers (values < 1 behave as 1). `1` merges every
  /// delta straight into the single persistent run — the pre-LSM behavior;
  /// `2` (one big run + one delta batch) keeps scans on the two-way merge
  /// fast path.
  int max_tiers = 2;
  /// A freshly appended tier is folded into its predecessor while the
  /// predecessor is at most this factor larger (then the merged result is
  /// re-checked against *its* predecessor, cascading). Tier sizes therefore
  /// stay geometrically separated, so total merge traffic is O(N log N)
  /// instead of the O(N · rounds) of merging every round delta into one big
  /// run. Values <= 0 disable the ratio trigger — only `max_tiers` forces
  /// merges.
  double size_ratio = 4.0;
};

/// Borrowed view of one sorted `(key, count)` run — the common shape of a
/// resident `SortedCountRun` and an mmap'd `SpilledRun`. Every consumer of
/// tier contents (selection merge, snapshot writer, compaction) reads
/// through this, which is what makes spilling unobservable: the bytes are
/// the same either way.
struct RunView {
  const uint64_t* keys = nullptr;
  const uint32_t* counts = nullptr;
  size_t size = 0;

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < size; ++i) fn(keys[i], counts[i]);
  }

  uint32_t Count(uint64_t key) const {
    const uint64_t* end = keys + size;
    const uint64_t* it = std::lower_bound(keys, end, key);
    if (it == end || *it != key) return 0;
    return counts[it - keys];
  }
};

/// LSM-style tiered aggregate of `(key, count)` pairs: a short stack of
/// sorted-run tiers (oldest and largest first) that together represent one
/// logical count multiset. Round deltas land as small new tiers; the big
/// persistent run is only rewritten when the size-ratio policy trips, so
/// late low-yield rounds stop paying a full-run merge each round.
///
/// A key may appear in several tiers; `ForEach`/`Count` fold the tiers back
/// together on the fly (k-way merge summing duplicate keys), so consumers
/// see exactly the single-run aggregate. `k` is bounded by
/// `TierPolicy::max_tiers`, keeping scans linear with a small constant.
///
/// Each tier lives either resident (a `SortedCountRun`) or spilled (an
/// mmap'd `SpilledRun`, see `util/spill_store.h`); the memory-budget
/// enforcement layer moves cold big tiers to disk via `SpillTier` and the
/// store transparently materializes a spilled tier back whenever an
/// operation must mutate it (compaction merge, `Filter`). Reads never
/// distinguish the two forms.
class TieredCountRuns {
 public:
  /// Resident footprint of a run of `entries` entries (flat key + count
  /// payload; the store's accounting unit — vector headers and malloc slop
  /// are noise at spill-worthy sizes).
  static size_t BytesForEntries(size_t entries) {
    return entries * (sizeof(uint64_t) + sizeof(uint32_t));
  }

  /// Appends a round delta as a new tier, then applies `policy`'s merge
  /// cascade. Empty deltas are dropped. A cascade step whose merge target
  /// is spilled materializes it first (mutating a mapping is impossible);
  /// the budget layer may re-spill the merged result afterwards.
  void Append(SortedCountRun&& delta, const TierPolicy& policy) {
    if (delta.empty()) return;
    tiers_.emplace_back();
    tiers_.back().resident = std::move(delta);
    const size_t cap = static_cast<size_t>(std::max(1, policy.max_tiers));
    const double ratio = policy.size_ratio;
    while (tiers_.size() > 1 &&
           (tiers_.size() > cap ||
            (ratio > 0.0 &&
             static_cast<double>(tiers_[tiers_.size() - 2].size()) <=
                 ratio * static_cast<double>(tiers_.back().size())))) {
      MergeTopIntoPredecessor();
    }
  }

  /// Folds everything into a single tier (a full compaction).
  void Compact() {
    while (tiers_.size() > 1) MergeTopIntoPredecessor();
  }

  /// Invokes `fn(key, total_count)` once per distinct key, in ascending key
  /// order, with counts summed across tiers — identical to the `ForEach` of
  /// the fully merged run, whether tiers are resident or spilled.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (tiers_.empty()) return;
    if (tiers_.size() == 1) {
      tiers_[0].View().ForEach(fn);
      return;
    }
    if (tiers_.size() == 2) {
      // Two tiers (one big run + one delta batch) is the steady state under
      // small caps; a branch-lean two-way merge keeps the selection scan
      // close to single-run cost. Spilled tiers stream through the same
      // loop — mmap makes the pointer walk identical.
      const RunView a = tiers_[0].View();
      const RunView b = tiers_[1].View();
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
      return;
    }
    const size_t k = tiers_.size();
    std::vector<RunView> views(k);
    for (size_t t = 0; t < k; ++t) views[t] = tiers_[t].View();
    std::vector<size_t> pos(k, 0);
    for (;;) {
      uint64_t min_key = std::numeric_limits<uint64_t>::max();
      bool any = false;
      for (size_t t = 0; t < k; ++t) {
        if (pos[t] >= views[t].size) continue;
        any = true;
        min_key = std::min(min_key, views[t].keys[pos[t]]);
      }
      if (!any) break;
      uint32_t total = 0;
      for (size_t t = 0; t < k; ++t) {
        if (pos[t] < views[t].size && views[t].keys[pos[t]] == min_key) {
          total += views[t].counts[pos[t]];
          ++pos[t];
        }
      }
      fn(min_key, total);
    }
  }

  /// Total count for `key` across tiers (0 if absent).
  uint32_t Count(uint64_t key) const {
    uint32_t total = 0;
    for (const Tier& tier : tiers_) total += tier.View().Count(key);
    return total;
  }

  /// Keeps only entries with `pred(key, tier_count)`. The predicate sees the
  /// per-tier count, so it must decide on the key alone (the matcher's
  /// liveness sweep does); tiers emptied by the sweep are dropped. Spilled
  /// tiers are materialized back to resident first — a filter rewrites the
  /// run, and the budget layer re-decides placement on its next pass.
  template <typename Pred>
  void Filter(Pred&& pred) {
    for (Tier& tier : tiers_) {
      tier.Materialize();
      tier.resident.Filter(pred);
    }
    tiers_.erase(std::remove_if(
                     tiers_.begin(), tiers_.end(),
                     [](const Tier& tier) { return tier.size() == 0; }),
                 tiers_.end());
  }

  /// Moves tier `index` to disk via `store`. Returns true on success; on
  /// failure (including an injected fault) the tier stays resident and
  /// `*error` describes why. Spilling an already-spilled or empty tier is a
  /// successful no-op.
  bool SpillTier(size_t index, SpillStore& store, std::string* error) {
    Tier& tier = tiers_[index];
    if (tier.spilled != nullptr || tier.size() == 0) return true;
    std::unique_ptr<SpilledRun> spilled = store.Spill(tier.resident, error);
    if (spilled == nullptr) return false;
    tier.spilled = std::move(spilled);
    tier.resident = SortedCountRun{};
    return true;
  }

  /// Invokes `fn(RunView)` once per tier, oldest first — the snapshot
  /// writer's serialization hook (spilled tiers stream from their mapping,
  /// so a partially-spilled store checkpoints byte-identically to an
  /// all-resident one).
  template <typename Fn>
  void ForEachTier(Fn&& fn) const {
    for (const Tier& tier : tiers_) fn(tier.View());
  }

  bool empty() const { return tiers_.empty(); }
  size_t num_tiers() const { return tiers_.size(); }
  size_t tier_size(size_t index) const { return tiers_[index].size(); }
  bool tier_spilled(size_t index) const {
    return tiers_[index].spilled != nullptr;
  }

  /// Total resident entries across tiers (an upper bound on distinct keys —
  /// a key split across tiers is counted once per tier).
  size_t total_entries() const {
    size_t total = 0;
    for (const Tier& tier : tiers_) total += tier.size();
    return total;
  }

  /// Bytes of tier payload currently held in RAM (spilled tiers cost 0 —
  /// their pages are file-backed and evictable).
  size_t resident_bytes() const {
    size_t total = 0;
    for (const Tier& tier : tiers_) {
      if (tier.spilled == nullptr) total += BytesForEntries(tier.size());
    }
    return total;
  }

  size_t num_spilled_tiers() const {
    size_t total = 0;
    for (const Tier& tier : tiers_) {
      if (tier.spilled != nullptr) ++total;
    }
    return total;
  }

 private:
  struct Tier {
    SortedCountRun resident;              // authoritative when not spilled
    std::unique_ptr<SpilledRun> spilled;  // non-null => resident is empty

    size_t size() const {
      return spilled != nullptr ? spilled->size() : resident.size();
    }

    RunView View() const {
      if (spilled != nullptr) {
        return RunView{spilled->keys(), spilled->counts(), spilled->size()};
      }
      return RunView{resident.keys.data(), resident.counts.data(),
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
  };

  // Pops the newest tier and folds it into its predecessor (which is
  // materialized first if spilled — merges rewrite the target).
  void MergeTopIntoPredecessor() {
    Tier top = std::move(tiers_.back());
    tiers_.pop_back();
    top.Materialize();
    tiers_.back().Materialize();
    MergeCountRuns(tiers_.back().resident, std::move(top.resident));
  }

  std::vector<Tier> tiers_;
};

}  // namespace reconcile

#endif  // RECONCILE_UTIL_TIERED_STORE_H_
