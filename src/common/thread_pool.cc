#include "src/common/thread_pool.h"

#include <algorithm>

namespace hipress {

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& thread : threads_) {
    thread.join();
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::ParallelFor(size_t total, size_t grain,
                             const std::function<void(size_t, size_t)>& fn) {
  if (total == 0) {
    return;
  }
  grain = std::max<size_t>(1, grain);
  const size_t max_shards = (total + grain - 1) / grain;
  const size_t num_shards = std::min(max_shards, num_threads());
  const size_t shard_size = (total + num_shards - 1) / num_shards;
  const size_t last = (total - 1) / shard_size;  // final non-empty shard
  std::vector<std::future<void>> futures;
  futures.reserve(last);
  for (size_t shard = 0; shard < last; ++shard) {
    const size_t begin = shard * shard_size;
    futures.push_back(
        Submit([&fn, begin, shard_size] { fn(begin, begin + shard_size); }));
  }
  // The caller runs the last shard itself instead of idling on the futures.
  fn(last * shard_size, total);
  for (auto& future : futures) {
    future.wait();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (shutdown_ && tasks_.empty()) {
        return;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool =
      new ThreadPool(std::max(2u, std::thread::hardware_concurrency()));
  return *pool;
}

}  // namespace hipress
