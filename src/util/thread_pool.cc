#include "util/thread_pool.h"

#include <atomic>

namespace haten2 {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || threads_.size() == 1) {
    // Run inline: avoids queueing overhead and, more importantly, keeps
    // single-threaded pools usable from within a pool task (no deadlock).
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Scoped completion state: the caller waits for its own shards only, so
  // concurrent ParallelFor calls from different external threads never wait
  // on each other's work (Wait() would block until the whole pool drains).
  struct Scope {
    std::mutex mu;
    std::condition_variable done;
    size_t remaining;
  };
  std::atomic<size_t> next{0};
  const size_t shards = std::min(n, threads_.size());
  Scope scope{{}, {}, shards};
  for (size_t s = 0; s < shards; ++s) {
    Submit([&next, n, &fn, &scope] {
      while (true) {
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        fn(i);
      }
      std::unique_lock<std::mutex> lock(scope.mu);
      if (--scope.remaining == 0) scope.done.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(scope.mu);
  scope.done.wait(lock, [&scope] { return scope.remaining == 0; });
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace haten2
