#ifndef RECONCILE_UTIL_RADIX_SORT_H_
#define RECONCILE_UTIL_RADIX_SORT_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace reconcile {

/// Sort-based counting substrate for the matcher's score store.
///
/// The witness-scoring phase is a high-cardinality count aggregation over
/// packed 64-bit `(u, v)` keys, kept in sorted runs so every pass over the
/// data is sequential:
///  * `RadixSortU64` — LSD radix sort with 8-bit digits that skips byte
///    positions whose digit is constant across the input (packed pair keys
///    on realistic graphs occupy well under 64 bits, so most passes drop);
///    the row merge sorts each shard's gathered entries with it,
///  * `SortedCountRun` — the aggregated form: a flat, strictly-increasing
///    `(key, count)` array that scans linearly,
///  * `MergeCountRuns` — linear two-way merge folding a sorted delta into a
///    persistent run.

/// Below this size introsort beats setting up histogram passes.
inline constexpr size_t kRadixSortCutoff = 256;

/// Sorts `keys` ascending. `scratch` is the ping-pong buffer; it is resized
/// as needed and its contents are unspecified afterwards. Reusing one
/// scratch vector across calls avoids repeated allocation in hot loops.
inline void RadixSortU64(std::vector<uint64_t>& keys,
                         std::vector<uint64_t>& scratch) {
  const size_t n = keys.size();
  if (n < kRadixSortCutoff) {
    std::sort(keys.begin(), keys.end());
    return;
  }
  scratch.resize(n);

  // One histogram pass covering all 8 digit positions at once.
  std::array<std::array<size_t, 256>, 8> hist{};
  for (uint64_t key : keys) {
    for (int d = 0; d < 8; ++d) {
      ++hist[static_cast<size_t>(d)][(key >> (8 * d)) & 0xff];
    }
  }

  uint64_t* src = keys.data();
  uint64_t* dst = scratch.data();
  bool in_keys = true;
  for (int d = 0; d < 8; ++d) {
    const std::array<size_t, 256>& counts = hist[static_cast<size_t>(d)];
    // A pass whose digit is constant over the input is the identity.
    bool trivial = false;
    for (size_t bucket = 0; bucket < 256; ++bucket) {
      if (counts[bucket] == n) trivial = true;
    }
    if (trivial) continue;

    std::array<size_t, 256> offsets;
    size_t sum = 0;
    for (size_t bucket = 0; bucket < 256; ++bucket) {
      offsets[bucket] = sum;
      sum += counts[bucket];
    }
    const int shift = 8 * d;
    for (size_t i = 0; i < n; ++i) {
      dst[offsets[(src[i] >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
    in_keys = !in_keys;
  }
  if (!in_keys) keys.swap(scratch);
}

/// Flat, sorted `(key, count)` aggregate. Keys are strictly increasing;
/// `counts[i]` is the multiplicity of `keys[i]`. Scans are pure linear
/// array walks.
struct SortedCountRun {
  std::vector<uint64_t> keys;
  std::vector<uint32_t> counts;

  size_t size() const { return keys.size(); }
  bool empty() const { return keys.empty(); }

  /// Keeps only entries with `pred(key, count)`, preserving order. Linear,
  /// in place — this is the matcher's `CompactScores` sweep.
  template <typename Pred>
  void Filter(Pred&& pred) {
    size_t out = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (pred(keys[i], counts[i])) {
        keys[out] = keys[i];
        counts[out] = counts[i];
        ++out;
      }
    }
    keys.resize(out);
    counts.resize(out);
  }
};

/// Folds `delta` into `target`: a linear two-way merge summing the counts of
/// keys present in both. Both inputs must be valid runs; the result is one.
/// An empty target adopts `delta`'s buffers outright — the common case on
/// the first emission round, when every cell is still empty and the delta is
/// the largest of the whole match.
inline void MergeCountRuns(SortedCountRun& target, SortedCountRun&& delta) {
  if (delta.empty()) return;
  if (target.empty()) {
    target = std::move(delta);
    return;
  }
  SortedCountRun merged;
  merged.keys.reserve(target.size() + delta.size());
  merged.counts.reserve(target.size() + delta.size());
  size_t i = 0, j = 0;
  while (i < target.size() && j < delta.size()) {
    const uint64_t a = target.keys[i];
    const uint64_t b = delta.keys[j];
    if (a < b) {
      merged.keys.push_back(a);
      merged.counts.push_back(target.counts[i++]);
    } else if (b < a) {
      merged.keys.push_back(b);
      merged.counts.push_back(delta.counts[j++]);
    } else {
      merged.keys.push_back(a);
      merged.counts.push_back(target.counts[i++] + delta.counts[j++]);
    }
  }
  merged.keys.insert(merged.keys.end(),
                     target.keys.begin() + static_cast<ptrdiff_t>(i),
                     target.keys.end());
  merged.counts.insert(merged.counts.end(),
                       target.counts.begin() + static_cast<ptrdiff_t>(i),
                       target.counts.end());
  merged.keys.insert(merged.keys.end(),
                     delta.keys.begin() + static_cast<ptrdiff_t>(j),
                     delta.keys.end());
  merged.counts.insert(merged.counts.end(),
                       delta.counts.begin() + static_cast<ptrdiff_t>(j),
                       delta.counts.end());
  target = std::move(merged);
}

}  // namespace reconcile

#endif  // RECONCILE_UTIL_RADIX_SORT_H_
