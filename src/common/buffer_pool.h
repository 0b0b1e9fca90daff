// Pooled workspace memory for the synchronization hot path.
//
// HiPress's on-GPU kernels never malloc per iteration: device buffers live
// in a pool sized during the first rounds, which is a large part of why the
// CompLL kernels beat the OSS baselines (PAPER.md §4-5). This is the CPU
// reproduction of that discipline. A size-bucketed, thread-safe BufferPool
// recycles raw byte blocks; Tensor/ByteBuffer storage, codec scratch,
// sync wire and aggregation buffers and network payloads all draw from it, so
// after one warm-up iteration the steady-state sync path performs zero
// fresh heap allocations ("mem.pool_misses" stops moving — the invariant
// tests/buffer_pool_test.cc asserts).
//
// Layering: BufferPool hands out raw Blocks; PooledArray<T> is the RAII
// owner used like a trivially-copyable-element std::vector; Workspace is a
// per-sync facade that stamps out PooledArrays from one pool. See
// docs/MEMORY.md for design notes, invariants and knobs.
#ifndef HIPRESS_SRC_COMMON_BUFFER_POOL_H_
#define HIPRESS_SRC_COMMON_BUFFER_POOL_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/metrics.h"

namespace hipress {

// Size-bucketed free-list allocator. Requests round up to the next
// power-of-two bucket (minimum kMinBucketBytes); a Release keyed by the
// block's bucket capacity makes the block immediately reusable by any
// later Acquire that rounds to the same bucket, regardless of element
// type. Thread-safe; a single mutex guards the free lists (the sync path
// acquires at partition granularity, so contention is negligible next to
// encode/decode work).
class BufferPool {
 public:
  // A raw allocation. `capacity` is always the bucket-rounded byte size —
  // Release() uses it to find the owning bucket, so callers must hand back
  // the Block unmodified.
  struct Block {
    void* data = nullptr;
    size_t capacity = 0;
    explicit operator bool() const { return data != nullptr; }
  };

  struct Stats {
    uint64_t hits = 0;          // acquisitions served from a free list
    uint64_t misses = 0;        // acquisitions that had to malloc
    uint64_t bytes_in_use = 0;  // acquired minus released
    uint64_t peak_bytes = 0;    // high-water mark of bytes_in_use
    uint64_t free_bytes = 0;    // cached in free lists, ready to reuse
    uint64_t free_blocks = 0;
    uint64_t trims = 0;          // Trim() calls that released anything
    uint64_t trimmed_bytes = 0;  // bytes returned to the heap by Trim()
  };

  // `registry`, when set, receives live "<prefix>.pool_hits"/
  // "<prefix>.pool_misses" counters and "<prefix>.bytes_in_use"/
  // "<prefix>.peak_bytes" gauges. The default prefix "mem" is the
  // process-wide workspace pool; the Network wire pool publishes under
  // "net" so wire-path and compute-path allocation behavior are gated
  // independently (docs/MEMORY.md, docs/COMMUNICATION.md). Local pools
  // (tests, benches) pass nullptr and read stats() directly.
  explicit BufferPool(MetricsRegistry* registry = nullptr,
                      const char* metric_prefix = "mem");
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Never returns null for bytes > 0; a zero-byte request returns an empty
  // Block (Release of which is a no-op).
  Block Acquire(size_t bytes);
  void Release(Block block);

  Stats stats() const;

  // Watermark-based trim: returns cached free blocks to the heap, largest
  // buckets first, until at most `keep_free_bytes` remain cached; returns
  // the bytes released. Trim(0) drops everything (the old behavior).
  // Outstanding blocks are unaffected. Shrinking batch sizes or worker
  // sets call this with a scaled-down watermark so peak-size buckets are
  // released while the warm steady-state buckets keep the pool miss-free
  // (docs/MEMORY.md).
  size_t Trim(size_t keep_free_bytes = 0);

  // When set, every pool miss (fresh malloc) is recorded as a zero-width
  // span on `spans` (lane kTraceLaneMemAlloc, wall-clock ns since pool
  // construction), making warm-up allocation bursts visible in the unified
  // Perfetto trace. Pass nullptr to detach; `spans` must outlive the
  // attachment.
  void set_trace(SpanCollector* spans, int node = 0);

  // Process-wide pool backing Tensor/ByteBuffer storage and default
  // Workspace scratch. Intentionally leaked: buffers with static storage
  // duration release into it during program teardown.
  static BufferPool& Global();

  // Bucket a request of `bytes` rounds up to (what Acquire will actually
  // reserve). Exposed for tests and capacity planning.
  static size_t BucketCapacity(size_t bytes);

 private:
  static constexpr size_t kMinBucketBytes = 64;
  static constexpr int kNumBuckets = 52;  // 64B << 51 covers any size_t ask

  static int BucketIndex(size_t bytes);

  mutable std::mutex mutex_;
  std::array<std::vector<void*>, kNumBuckets> free_lists_;
  Stats stats_;
  MetricsRegistry* registry_ = nullptr;
  Counter* hits_counter_ = nullptr;
  Counter* misses_counter_ = nullptr;
  Gauge* in_use_gauge_ = nullptr;
  Gauge* peak_gauge_ = nullptr;
  SpanCollector* spans_ = nullptr;
  int trace_node_ = 0;
  std::chrono::steady_clock::time_point trace_origin_;
};

// Move-only RAII array over a pooled Block. The deliberate subset of
// std::vector that the sync path needs: resize() preserves the prefix but
// leaves grown tails uninitialized (callers overwrite; use assign() to
// fill), push_back() amortizes through the pool. Element types must be
// trivially copyable so blocks can be recycled across types.
template <typename T>
class PooledArray {
  static_assert(std::is_trivially_copyable_v<T>,
                "PooledArray recycles raw byte blocks across element types");

 public:
  PooledArray() = default;
  explicit PooledArray(BufferPool* pool) : pool_(pool) {}
  PooledArray(BufferPool* pool, size_t count) : pool_(pool) { resize(count); }

  PooledArray(PooledArray&& other) noexcept { *this = std::move(other); }
  PooledArray& operator=(PooledArray&& other) noexcept {
    if (this != &other) {
      ReleaseBlock();
      pool_ = other.pool_;
      block_ = other.block_;
      size_ = other.size_;
      other.block_ = BufferPool::Block();
      other.size_ = 0;
    }
    return *this;
  }

  PooledArray(const PooledArray&) = delete;
  PooledArray& operator=(const PooledArray&) = delete;

  ~PooledArray() { ReleaseBlock(); }

  T* data() { return static_cast<T*>(block_.data); }
  const T* data() const { return static_cast<const T*>(block_.data); }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return block_.capacity / sizeof(T); }

  T& operator[](size_t i) { return data()[i]; }
  const T& operator[](size_t i) const { return data()[i]; }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  std::span<T> span() { return {data(), size_}; }
  std::span<const T> span() const { return {data(), size_}; }

  void reserve(size_t count) {
    if (count > capacity()) {
      Grow(count);
    }
  }

  // Grown tail is uninitialized.
  void resize(size_t count) {
    reserve(count);
    size_ = count;
  }

  void assign(size_t count, T value) {
    resize(count);
    for (size_t i = 0; i < count; ++i) {
      data()[i] = value;
    }
  }

  void push_back(const T& value) {
    if (size_ == capacity()) {
      Grow(size_ + 1);
    }
    data()[size_++] = value;
  }

  // Keeps capacity; the block stays owned for reuse.
  void clear() { size_ = 0; }

 private:
  BufferPool* pool() {
    return pool_ != nullptr ? pool_ : &BufferPool::Global();
  }

  void Grow(size_t count) {
    const size_t want_elems = std::max(count, capacity() * 2);
    BufferPool::Block grown = pool()->Acquire(want_elems * sizeof(T));
    if (size_ > 0) {
      std::memcpy(grown.data, block_.data, size_ * sizeof(T));
    }
    ReleaseBlock();
    block_ = grown;
  }

  void ReleaseBlock() {
    if (block_) {
      pool()->Release(block_);
      block_ = BufferPool::Block();
    }
  }

  BufferPool* pool_ = nullptr;  // nullptr = BufferPool::Global()
  BufferPool::Block block_;
  size_t size_ = 0;
};

using PooledBytes = PooledArray<uint8_t>;
using PooledFloats = PooledArray<float>;
using PooledU32 = PooledArray<uint32_t>;

// Scratch facade: one object to thread through a codec call, stamping out
// pooled arrays from a single pool.
class Workspace {
 public:
  explicit Workspace(BufferPool* pool = &BufferPool::Global())
      : pool_(pool) {}

  BufferPool* pool() const { return pool_; }

  PooledFloats floats(size_t count) { return {pool_, count}; }
  PooledFloats zeroed_floats(size_t count) {
    PooledFloats out(pool_);
    out.assign(count, 0.0f);
    return out;
  }
  PooledBytes bytes(size_t count) { return {pool_, count}; }
  PooledU32 indices(size_t count) { return {pool_, count}; }

 private:
  BufferPool* pool_;
};

}  // namespace hipress

#endif  // HIPRESS_SRC_COMMON_BUFFER_POOL_H_
