#include "runtime/thread_pool.h"

#include <atomic>
#include <exception>
#include <stdexcept>
#include <utility>

namespace divpp::runtime {

ThreadPool::ThreadPool(int threads) {
  if (threads < 0)
    throw std::invalid_argument("ThreadPool: negative thread count");
  configured_ = threads == 0 ? hardware_threads() : threads;
  // Workers spawn lazily in the first submit() — see the header: a pool
  // that is never used leaves the process single-threaded (fork-safe).
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_)
      throw std::logic_error("ThreadPool: submit after shutdown");
    ensure_started_locked();
    queue_.push_back(std::move(task));
  }
  work_ready_.notify_one();
}

void ThreadPool::ensure_started_locked() {
  if (!workers_.empty()) return;
  workers_.reserve(static_cast<std::size_t>(configured_));
  for (int i = 0; i < configured_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

int ThreadPool::hardware_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) all_idle_.notify_all();
    }
  }
}

void parallel_for(ThreadPool& pool, std::int64_t count,
                  const std::function<void(std::int64_t)>& fn) {
  if (count <= 0) return;
  // One claiming task per worker; each loops over a shared atomic index,
  // so iteration cost imbalance self-levels without per-item queue churn.
  std::atomic<std::int64_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const int tasks = static_cast<int>(
      std::min<std::int64_t>(pool.thread_count(), count));
  for (int t = 0; t < tasks; ++t) {
    pool.submit([&] {
      for (;;) {
        const std::int64_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        try {
          fn(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      }
    });
  }
  pool.wait_idle();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace divpp::runtime
