#include "reconcile/util/parallel_for.h"

#include <algorithm>
#include <atomic>

namespace reconcile {

int ParallelSlots(const ThreadPool* pool) {
  return pool == nullptr ? 1 : std::max(1, pool->num_threads());
}

// One task per slot, no more than there are chunks; each claims the next
// `grain` items from the shared cursor until the range is used up. A task
// whose body throws stops claiming, and the others take the rest.
void ParallelForSlots(ThreadPool* pool, size_t n, size_t grain,
                      const std::function<void(int, size_t, size_t)>& fn) {
  const size_t step = std::max<size_t>(1, grain);
  if (pool == nullptr || pool->num_threads() < 2 || n <= step) {
    if (n > 0) fn(0, 0, n);
    return;
  }
  const int slots = static_cast<int>(std::min(
      (n + step - 1) / step, static_cast<size_t>(pool->num_threads())));
  std::atomic<size_t> next{0};
  auto claim = [&next, n, step, &fn](int slot) {
    for (;;) {
      const size_t begin = next.fetch_add(step);
      if (begin >= n) return;
      fn(slot, begin, std::min(n, begin + step));
    }
  };
  try {
    for (int i = 0; i < slots; ++i) pool->Submit([&claim, i] { claim(i); });
  } catch (...) {
    pool->Wait();  // the tasks submitted so far read this frame
    throw;
  }
  pool->Wait();
}

void ParallelFor(ThreadPool* pool, size_t n, size_t grain,
                 const std::function<void(size_t, size_t)>& fn) {
  ParallelForSlots(pool, n, grain,
                   [&fn](int, size_t begin, size_t end) { fn(begin, end); });
}

void ParallelForEach(ThreadPool* pool, size_t n,
                     const std::function<void(size_t)>& fn) {
  ParallelForSlots(pool, n, 1, [&fn](int, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) fn(i);
  });
}

}  // namespace reconcile
