#ifndef RECONCILE_UTIL_RADIX_SORT_H_
#define RECONCILE_UTIL_RADIX_SORT_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace reconcile {

/// `RadixSortU64` — LSD radix sort with 8-bit digits that skips byte
/// positions whose digit is constant across the input (packed pair keys on
/// realistic graphs occupy well under 64 bits, so most passes drop). The
/// matcher's row merge sorts each shard's gathered (u, partner) entries with
/// it.

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

}  // namespace reconcile

#endif  // RECONCILE_UTIL_RADIX_SORT_H_
