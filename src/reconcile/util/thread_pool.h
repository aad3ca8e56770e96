#ifndef RECONCILE_UTIL_THREAD_POOL_H_
#define RECONCILE_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace reconcile {

/// Fixed-size worker pool executing `std::function<void()>` tasks.
///
/// This is the execution substrate for the parallel loops in
/// `util/parallel_for.h`. Tasks may be submitted from any thread; `Wait()`
/// blocks until the queue is drained and all in-flight tasks finished. The
/// pool is intentionally minimal: no futures, no task priorities — callers
/// build their own barriers on top of `Wait()`. An exception a task throws
/// ends that task only; `Wait()` hands the first one back to its caller.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (values < 1 are clamped to 1).
  /// If a worker cannot be started, joins the ones that were and rethrows
  /// (`std::system_error` from `std::thread`).
  explicit ThreadPool(int num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains outstanding work and joins all workers.
  ~ThreadPool();

  /// Enqueues a task for execution.
  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks have completed, then rethrows the
  /// first exception a task threw since the last `Wait`, if any. The pool
  /// stays usable either way. Called from inside one of the pool's own
  /// tasks it would wait for itself forever, so it dies with a FATAL check.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Default parallelism: hardware concurrency, at least 1.
  static int DefaultThreads();

  /// The process-wide pool of `num_threads` workers (`DefaultThreads()` for
  /// values < 1), created on first use and alive until the process exits.
  /// Every parallel loop in the library runs on one of these: the matchers
  /// (core and BP) and the serve session on the pool of their configured
  /// thread count, graph loads and builds on `Shared()`. So a process holds
  /// one pool per thread count it uses, and when the counts agree, all of
  /// them share it. `Wait()` barriers are pool-global: do not run loops on
  /// one pool from several threads at once, and never nest a loop that
  /// submits in one of the pool's own tasks (its `Wait()` dies with a FATAL
  /// check). A `fork()`ed child inherits the pools but not their workers,
  /// so it must not submit to a pool created before the fork.
  static ThreadPool& Shared(int num_threads = 0);

  /// Suggested chunk size for splitting `n` items into parallel tasks:
  /// targets `tasks_per_thread` tasks per worker (slack for load balancing
  /// without drowning the queue in tiny tasks), never below `min_grain`
  /// items per task.
  static size_t GrainSize(size_t n, int num_threads, size_t min_grain = 1,
                          int tasks_per_thread = 4);

  /// `GrainSize` for this pool's worker count.
  size_t GrainFor(size_t n, size_t min_grain = 1) const {
    return GrainSize(n, num_threads(), min_grain);
  }

 private:
  void WorkerLoop();
  // Stops the workers once the queue is drained and joins them.
  void JoinWorkers();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable work_done_;
  std::queue<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  int in_flight_ = 0;
  bool shutting_down_ = false;
  std::exception_ptr error_;  // the first a task threw since the last Wait
};

}  // namespace reconcile

#endif  // RECONCILE_UTIL_THREAD_POOL_H_
