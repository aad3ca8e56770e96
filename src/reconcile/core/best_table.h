#ifndef RECONCILE_CORE_BEST_TABLE_H_
#define RECONCILE_CORE_BEST_TABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "reconcile/graph/types.h"

namespace reconcile {

/// Per-node best-score bookkeeping for the matcher's mutual-unique-best
/// selection rule, packed into one 64-bit word per node:
///
///   [ epoch : 30 ][ score : 32 ][ ties : 2 ]
///
///  * `score` is the maximum candidate score observed for the node in the
///    current round;
///  * `ties` counts how many candidate pairs achieve it, saturating at 3 —
///    the selection rule only distinguishes "exactly one" from "more than
///    one", so two bits suffice;
///  * `epoch` stamps the round the entry was last written in. Entries from
///    older rounds read as (score 0, ties 0), which turns the per-round
///    O(num_nodes) `Clear()` into an O(1) epoch bump.
///
namespace best_internal {

inline constexpr int kTieBits = 2;
inline constexpr int kScoreBits = 32;
inline constexpr int kEpochShift = kScoreBits + kTieBits;
inline constexpr uint64_t kTieSaturation = (1ULL << kTieBits) - 1;
inline constexpr uint64_t kMaxEpoch = (1ULL << (64 - kEpochShift)) - 1;

inline constexpr uint64_t Pack(uint64_t epoch, uint32_t score, uint64_t ties) {
  return (epoch << kEpochShift) | (static_cast<uint64_t>(score) << kTieBits) |
         ties;
}
inline constexpr uint64_t EpochOf(uint64_t word) { return word >> kEpochShift; }
inline constexpr uint32_t ScoreOf(uint64_t word) {
  return static_cast<uint32_t>(word >> kTieBits);
}
inline constexpr uint64_t TiesOf(uint64_t word) {
  return word & kTieSaturation;
}

/// Folds one observation into a word, given the current epoch. Returns the
/// unchanged word when the observation cannot improve it. The result is
/// independent of observation order (max + saturating equal-count), which is
/// what makes the concurrent table deterministic.
inline constexpr uint64_t Fold(uint64_t word, uint64_t epoch, uint32_t score) {
  if (EpochOf(word) != epoch) return Pack(epoch, score, 1);
  const uint32_t best = ScoreOf(word);
  if (score > best) return Pack(epoch, score, 1);
  if (score == best && TiesOf(word) < kTieSaturation) return word + 1;
  return word;
}

}  // namespace best_internal

/// Concurrent best table: `Observe` is a lock-free CAS-max. Because the
/// epoch only grows and, within an epoch, `Fold` only increases the packed
/// word (higher score, or more ties at the same score), every successful
/// update strictly increases the word — so the CAS loop terminates and the
/// final state equals `Fold` applied serially to the same observation
/// multiset in any order. `NextEpoch` must not race with
/// `Observe`/`IsUniqueBest`; the matcher bumps it between rounds, outside
/// the parallel region.
class AtomicBestTable {
 public:
  explicit AtomicBestTable(size_t num_nodes) : words_(num_nodes) {}

  void NextEpoch() {
    if (epoch_ == best_internal::kMaxEpoch) {
      for (auto& word : words_) word.store(0, std::memory_order_relaxed);
      epoch_ = 0;
    }
    ++epoch_;
  }

  void Observe(NodeId node, uint32_t score) {
    std::atomic<uint64_t>& word = words_[node];
    uint64_t current = word.load(std::memory_order_relaxed);
    for (;;) {
      const uint64_t desired = best_internal::Fold(current, epoch_, score);
      if (desired == current) return;
      // On failure `current` is refreshed with the competing writer's value.
      if (word.compare_exchange_weak(current, desired,
                                     std::memory_order_relaxed)) {
        return;
      }
    }
  }

  bool IsUniqueBest(NodeId node, uint32_t score) const {
    return words_[node].load(std::memory_order_relaxed) ==
           best_internal::Pack(epoch_, score, 1);
  }

  uint32_t BestScore(NodeId node) const {
    const uint64_t word = words_[node].load(std::memory_order_relaxed);
    return best_internal::EpochOf(word) == epoch_
               ? best_internal::ScoreOf(word)
               : 0;
  }

  uint64_t epoch() const { return epoch_; }

 private:
  std::vector<std::atomic<uint64_t>> words_;
  uint64_t epoch_ = 0;
};

}  // namespace reconcile

#endif  // RECONCILE_CORE_BEST_TABLE_H_
