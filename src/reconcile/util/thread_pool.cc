#include "reconcile/util/thread_pool.h"

#include <algorithm>
#include <map>
#include <utility>

#include "reconcile/util/logging.h"

namespace reconcile {

namespace {

// The pool whose worker runs on this thread, if any.
thread_local const ThreadPool* worker_of = nullptr;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  int n = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(n));
  try {
    for (int i = 0; i < n; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  } catch (...) {
    // A joinable std::thread destroyed unjoined would terminate the process.
    JoinWorkers();
    throw;
  }
}

ThreadPool::~ThreadPool() { JoinWorkers(); }

void ThreadPool::JoinWorkers() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  RECONCILE_CHECK(worker_of != this)
      << "a task waits on its own pool: nested parallel loops would hang";
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    work_done_.wait(lock,
                    [this] { return queue_.empty() && in_flight_ == 0; });
    error = std::exchange(error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

int ThreadPool::DefaultThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool& ThreadPool::Shared(int num_threads) {
  static std::mutex mutex;
  static std::map<int, ThreadPool> pools;
  const int n = num_threads > 0 ? num_threads : DefaultThreads();
  std::lock_guard<std::mutex> lock(mutex);
  return pools.try_emplace(n, n).first->second;
}

size_t ThreadPool::GrainSize(size_t n, int num_threads, size_t min_grain,
                             int tasks_per_thread) {
  const size_t tasks = static_cast<size_t>(std::max(1, num_threads)) *
                       static_cast<size_t>(std::max(1, tasks_per_thread));
  return std::max(std::max<size_t>(1, min_grain), (n + tasks - 1) / tasks);
}

void ThreadPool::WorkerLoop() {
  worker_of = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
      ++in_flight_;
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (error && !error_) error_ = std::move(error);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) work_done_.notify_all();
    }
  }
}

}  // namespace reconcile
