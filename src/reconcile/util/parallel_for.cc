#include "reconcile/util/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace reconcile {

namespace {

// One worker's unclaimed range. The owner pops `grain`-sized chunks from the
// front; thieves take the back half. Compound updates happen under the
// per-slot spinlock; `begin`/`end` are atomics only so the victim-selection
// scan may read them without synchronization (every decision taken from a
// racy read is re-validated under the lock).
struct alignas(64) StealSlot {
  std::atomic_flag lock = ATOMIC_FLAG_INIT;
  std::atomic<size_t> begin{0};
  std::atomic<size_t> end{0};

  size_t RemainingApprox() const {
    const size_t b = begin.load(std::memory_order_relaxed);
    const size_t e = end.load(std::memory_order_relaxed);
    return e > b ? e - b : 0;
  }
};

class SpinGuard {
 public:
  explicit SpinGuard(StealSlot& slot) : slot_(slot) {
    // Bounded spin, then yield: the critical sections are a few loads and
    // stores, so contention normally resolves within the spin budget — but
    // when workers outnumber cores the holder may be descheduled mid-hold,
    // and burning the rest of a timeslice on test_and_set only delays it.
    int spins = 0;
    while (slot_.lock.test_and_set(std::memory_order_acquire)) {
      if (++spins >= 64) {
        std::this_thread::yield();
        spins = 0;
      }
    }
  }
  ~SpinGuard() { slot_.lock.clear(std::memory_order_release); }

  SpinGuard(const SpinGuard&) = delete;
  SpinGuard& operator=(const SpinGuard&) = delete;

 private:
  StealSlot& slot_;
};

void RunWorkStealing(ThreadPool* pool, size_t n, size_t grain,
                     const std::function<void(int, size_t, size_t)>& fn) {
  const size_t step = std::max<size_t>(1, grain);
  if (pool == nullptr || pool->num_threads() < 2 || n <= step) {
    if (n > 0) fn(0, 0, n);
    return;
  }
  // Every slot starts with a non-empty contiguous range; surplus slots would
  // only add steal traffic.
  const int slots =
      static_cast<int>(std::min<size_t>(n, static_cast<size_t>(pool->num_threads())));
  std::vector<StealSlot> ranges(static_cast<size_t>(slots));
  for (int i = 0; i < slots; ++i) {
    const size_t u = static_cast<size_t>(i);
    ranges[u].begin.store(n * u / static_cast<size_t>(slots),
                          std::memory_order_relaxed);
    ranges[u].end.store(n * (u + 1) / static_cast<size_t>(slots),
                        std::memory_order_relaxed);
  }

  // Items not yet claimed by any fn call, decremented at chunk-claim time.
  // Steals move items between slots without touching it, so a worker whose
  // victim scan comes up empty can tell "everything is claimed and being
  // executed — retire" (zero) from "a stolen range is mid-transfer,
  // removed from the victim's slot but not yet published to the thief's —
  // wait for it" (non-zero). Retiring during that window would serialize a
  // stolen (possibly huge) tail on one thread.
  std::atomic<size_t> unclaimed{n};

  auto worker = [&ranges, slots, step, &unclaimed, &fn](int self) {
    StealSlot& mine = ranges[static_cast<size_t>(self)];
    for (;;) {
      // Pop one chunk from the front of the own range.
      size_t chunk_begin = 0, chunk_end = 0;
      {
        SpinGuard guard(mine);
        const size_t b = mine.begin.load(std::memory_order_relaxed);
        const size_t e = mine.end.load(std::memory_order_relaxed);
        if (b < e) {
          chunk_begin = b;
          chunk_end = std::min(e, b + step);
          mine.begin.store(chunk_end, std::memory_order_relaxed);
          unclaimed.fetch_sub(chunk_end - chunk_begin,
                              std::memory_order_relaxed);
        }
      }
      if (chunk_begin < chunk_end) {
        fn(self, chunk_begin, chunk_end);
        continue;
      }

      // Own range drained: steal the back half of the fullest victim. The
      // scan is racy; the claim is re-validated under the victim's lock. A
      // failed claim rescans; the loop terminates because total unclaimed
      // work only ever shrinks.
      bool stole = false;
      for (;;) {
        int victim = -1;
        size_t best = 0;
        for (int v = 0; v < slots; ++v) {
          if (v == self) continue;
          const size_t remaining =
              ranges[static_cast<size_t>(v)].RemainingApprox();
          if (remaining > best) {
            best = remaining;
            victim = v;
          }
        }
        if (victim < 0) {
          if (unclaimed.load(std::memory_order_relaxed) == 0) break;
          // A steal is mid-flight; its range will surface in a slot
          // momentarily — wait for it instead of retiring.
          std::this_thread::yield();
          continue;
        }
        StealSlot& theirs = ranges[static_cast<size_t>(victim)];
        size_t stolen_begin = 0, stolen_end = 0;
        {
          // Claim under the victim's lock only; the own-slot publish below
          // takes the own lock separately. Holding both at once could
          // deadlock when concurrent thieves pick each other as victims.
          SpinGuard guard(theirs);
          const size_t b = theirs.begin.load(std::memory_order_relaxed);
          const size_t e = theirs.end.load(std::memory_order_relaxed);
          if (b >= e) continue;  // raced with the owner; rescan
          const size_t take = (e - b + 1) / 2;
          theirs.end.store(e - take, std::memory_order_relaxed);
          stolen_begin = e - take;
          stolen_end = e;
        }
        {
          SpinGuard guard(mine);
          mine.begin.store(stolen_begin, std::memory_order_relaxed);
          mine.end.store(stolen_end, std::memory_order_relaxed);
        }
        stole = true;
        break;
      }
      if (!stole) return;
    }
  };

  try {
    for (int i = 0; i < slots; ++i) {
      pool->Submit([&worker, i] { worker(i); });
    }
  } catch (...) {
    pool->Wait();  // the workers submitted so far read this frame
    throw;
  }
  pool->Wait();
}

}  // namespace

int ParallelSlots(const ThreadPool* pool) {
  return pool == nullptr ? 1 : std::max(1, pool->num_threads());
}

void ParallelForWorkStealing(ThreadPool* pool, size_t n, size_t grain,
                             const std::function<void(size_t, size_t)>& fn) {
  RunWorkStealing(pool, n, grain,
                  [&fn](int, size_t begin, size_t end) { fn(begin, end); });
}

void ParallelForWorkStealingSlots(
    ThreadPool* pool, size_t n, size_t grain,
    const std::function<void(int, size_t, size_t)>& fn) {
  RunWorkStealing(pool, n, grain, fn);
}

void ParallelForEach(ThreadPool* pool, size_t n,
                     const std::function<void(size_t)>& fn) {
  RunWorkStealing(pool, n, 1, [&fn](int, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) fn(i);
  });
}

}  // namespace reconcile
