// Fixed-size worker pool used to model GPU thread-block parallelism for
// compression kernels and to run concurrent simulation components.
#ifndef HIPRESS_SRC_COMMON_THREAD_POOL_H_
#define HIPRESS_SRC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace hipress {

class ThreadPool {
 public:
  // Creates `num_threads` workers (at least one).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task; returns a future for its completion.
  std::future<void> Submit(std::function<void()> task);

  // Runs fn(begin, end) shards of [0, total) across the pool and blocks until
  // all shards complete. Grain controls the minimum shard size. The calling
  // thread runs the last shard itself, so a single shard never leaves it.
  void ParallelFor(size_t total, size_t grain,
                   const std::function<void(size_t, size_t)>& fn);

  size_t num_threads() const { return threads_.size(); }

  // Process-wide pool sized to hardware concurrency; lazily constructed.
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::vector<std::thread> threads_;
  bool shutdown_ = false;
};

}  // namespace hipress

#endif  // HIPRESS_SRC_COMMON_THREAD_POOL_H_
