#ifndef RECONCILE_UTIL_RADIX_SORT_H_
#define RECONCILE_UTIL_RADIX_SORT_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "reconcile/util/parallel_for.h"

namespace reconcile {

/// `RadixSortU64` — LSD radix sort with 8-bit digits that skips byte
/// positions whose digit is constant across the input (packed pair keys on
/// realistic graphs occupy well under 64 bits, so most passes drop). The
/// matcher's row merge sorts each shard's gathered (u, partner) entries with
/// it on one thread, and edge-list normalization sorts the packed edges with
/// it on a pool.

/// Below this size introsort beats setting up histogram passes.
inline constexpr size_t kRadixSortCutoff = 256;

/// Sorts `keys` ascending. `scratch` is the ping-pong buffer; it is resized
/// as needed and its contents are unspecified afterwards. Reusing one
/// scratch vector across calls avoids repeated allocation in hot loops.
///
/// Each pass runs on fixed blocks, one per worker slot of `pool` (a null
/// pool is one block, run inline): every block counts its own digits, a
/// prefix over (digit, block) gives each block its output cursors, and each
/// block scatters its keys in order. The sort is stable, so the result does
/// not depend on the thread count.
inline void RadixSortU64(std::vector<uint64_t>& keys,
                         std::vector<uint64_t>& scratch,
                         ThreadPool* pool = nullptr) {
  const size_t n = keys.size();
  if (n < kRadixSortCutoff) {
    std::sort(keys.begin(), keys.end());
    return;
  }
  scratch.resize(n);

  using Histogram = std::array<size_t, 256>;
  const size_t blocks = static_cast<size_t>(ParallelSlots(pool));
  auto block_lo = [n, blocks](size_t b) { return n * b / blocks; };
  // hist[b][d]: block b's counts of digit d, all 8 digits in one pass.
  std::vector<std::array<Histogram, 8>> hist(blocks);
  ParallelForEach(pool, blocks, [&](size_t b) {
    std::array<Histogram, 8>& h = hist[b];
    const size_t lo = block_lo(b), hi = block_lo(b + 1);
    for (size_t i = lo; i < hi; ++i) {
      const uint64_t key = keys[i];
      for (size_t d = 0; d < 8; ++d) ++h[d][(key >> (8 * d)) & 0xff];
    }
  });

  uint64_t* src = keys.data();
  uint64_t* dst = scratch.data();
  std::vector<Histogram> cursors(blocks);
  bool counted = true;  // hist matches src's block layout
  for (size_t d = 0; d < 8; ++d) {
    // A pass whose digit is constant over the input is the identity.
    bool trivial = false;
    for (size_t bucket = 0; bucket < 256 && !trivial; ++bucket) {
      size_t total = 0;
      for (size_t b = 0; b < blocks; ++b) total += hist[b][d][bucket];
      trivial = total == n;
    }
    if (trivial) continue;

    const int shift = static_cast<int>(8 * d);
    if (!counted) {
      // The last pass moved keys between blocks: recount this digit.
      ParallelForEach(pool, blocks, [&](size_t b) {
        Histogram& h = hist[b][d];
        h.fill(0);
        const size_t lo = block_lo(b), hi = block_lo(b + 1);
        for (size_t i = lo; i < hi; ++i) ++h[(src[i] >> shift) & 0xff];
      });
    }
    size_t sum = 0;
    for (size_t bucket = 0; bucket < 256; ++bucket) {
      for (size_t b = 0; b < blocks; ++b) {
        cursors[b][bucket] = sum;
        sum += hist[b][d][bucket];
      }
    }
    ParallelForEach(pool, blocks, [&](size_t b) {
      // A local copy: the scatter's stores cannot alias it.
      Histogram next = cursors[b];
      const uint64_t* from = src;
      uint64_t* to = dst;
      const size_t lo = block_lo(b), hi = block_lo(b + 1);
      for (size_t i = lo; i < hi; ++i) {
        to[next[(from[i] >> shift) & 0xff]++] = from[i];
      }
    });
    std::swap(src, dst);
    counted = blocks == 1;
  }
  if (src != keys.data()) keys.swap(scratch);
}

}  // namespace reconcile

#endif  // RECONCILE_UTIL_RADIX_SORT_H_
