#ifndef HATEN2_UTIL_THREAD_POOL_H_
#define HATEN2_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace haten2 {

/// \brief A fixed-size worker pool.
///
/// The MapReduce engine uses one pool per Engine to execute map and reduce
/// tasks. Tasks are plain std::function<void()>; callers coordinate results
/// through their own synchronization (the engine uses per-task output slots,
/// so tasks never contend on shared state).
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  void Wait();

  size_t num_threads() const { return threads_.size(); }

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion.
  /// fn must be safe to invoke concurrently for distinct i.
  ///
  /// Waiting is scoped to this call: the caller blocks only until its own
  /// shard tasks finish, not until the whole pool drains. That makes
  /// ParallelFor safe and efficient to invoke from several external threads
  /// at once (the plan scheduler runs independent MapReduce jobs
  /// concurrently, and each job issues its own ParallelFor phases) — their
  /// shards interleave through the shared queue without cross-waiting.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

}  // namespace haten2

#endif  // HATEN2_UTIL_THREAD_POOL_H_
