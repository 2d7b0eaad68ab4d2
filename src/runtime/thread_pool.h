#ifndef DIVPP_RUNTIME_THREAD_POOL_H
#define DIVPP_RUNTIME_THREAD_POOL_H

/// \file thread_pool.h
/// A small fixed-size worker pool for fanning independent simulation
/// replicas across cores.
///
/// The pool is deliberately minimal: tasks are fire-and-forget closures,
/// and `parallel_for` is the intended entry point for batch work.  All
/// determinism guarantees live one layer up in BatchRunner — the pool
/// itself makes no ordering promises beyond "every task runs exactly
/// once".

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace divpp::runtime {

/// Fixed-size pool of worker threads consuming a shared task queue.
///
/// Workers spawn lazily on the first `submit`, not in the constructor:
/// a process that constructs a pool but never submits (e.g. a
/// supervised SweepRunner that fans work out to forked worker
/// *processes* instead — see runtime/supervisor.h) stays genuinely
/// single-threaded, which is what makes fork() safe there, including
/// under ThreadSanitizer.  `thread_count()` reports the configured size
/// either way, so capacity arithmetic never depends on start state.
class ThreadPool {
 public:
  /// Configures \p threads workers; 0 means one per hardware thread.
  /// A pool of size 1 still runs its single worker, so `submit` never
  /// runs a task on the calling thread.
  explicit ThreadPool(int threads = 0);

  /// Drains the queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Configured number of worker threads (spawned or not).
  [[nodiscard]] int thread_count() const noexcept { return configured_; }

  /// Enqueues a task.  Tasks must not throw; use parallel_for for work
  /// that can fail (it captures and rethrows the first exception).
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and every worker is idle.
  void wait_idle();

  /// std::thread::hardware_concurrency with a floor of 1.
  [[nodiscard]] static int hardware_threads() noexcept;

 private:
  void worker_loop();
  void ensure_started_locked();

  int configured_ = 1;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable all_idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::int64_t active_ = 0;
  bool stopping_ = false;
};

/// Runs fn(i) for every i in [0, count), spread across the pool's
/// workers, and blocks until all iterations finish.  Iterations are
/// claimed dynamically, so long and short items balance automatically.
/// If any iteration throws, the first exception (by completion order) is
/// rethrown after the remaining iterations have drained.
void parallel_for(ThreadPool& pool, std::int64_t count,
                  const std::function<void(std::int64_t)>& fn);

}  // namespace divpp::runtime

#endif  // DIVPP_RUNTIME_THREAD_POOL_H
