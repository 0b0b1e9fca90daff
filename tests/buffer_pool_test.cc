#include "src/common/buffer_pool.h"

#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/thread_pool.h"
#include "src/minidnn/dist_trainer.h"
#include "src/tensor/tensor.h"

namespace hipress {
namespace {

// --------------------------------------------------------------- buckets

TEST(BufferPoolTest, BucketCapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(BufferPool::BucketCapacity(0), 64u);
  EXPECT_EQ(BufferPool::BucketCapacity(1), 64u);
  EXPECT_EQ(BufferPool::BucketCapacity(64), 64u);
  EXPECT_EQ(BufferPool::BucketCapacity(65), 128u);
  EXPECT_EQ(BufferPool::BucketCapacity(4096), 4096u);
  EXPECT_EQ(BufferPool::BucketCapacity(4097), 8192u);
}

TEST(BufferPoolTest, AcquireReturnsBucketRoundedBlocks) {
  BufferPool pool;
  BufferPool::Block block = pool.Acquire(100);
  ASSERT_TRUE(block);
  EXPECT_EQ(block.capacity, 128u);
  pool.Release(block);
}

TEST(BufferPoolTest, ZeroByteAcquireIsEmptyAndReleaseIsNoop) {
  BufferPool pool;
  BufferPool::Block block = pool.Acquire(0);
  EXPECT_FALSE(block);
  pool.Release(block);  // must not crash
  EXPECT_EQ(pool.stats().hits, 0u);
  EXPECT_EQ(pool.stats().misses, 0u);
}

// ------------------------------------------------------------ accounting

TEST(BufferPoolTest, MissThenHitAccounting) {
  BufferPool pool;
  BufferPool::Block a = pool.Acquire(1000);  // cold: miss
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 0u);
  EXPECT_EQ(pool.stats().bytes_in_use, 1024u);

  pool.Release(a);
  EXPECT_EQ(pool.stats().bytes_in_use, 0u);
  EXPECT_EQ(pool.stats().free_bytes, 1024u);
  EXPECT_EQ(pool.stats().free_blocks, 1u);

  // Any request rounding to the same bucket reuses the cached block.
  BufferPool::Block b = pool.Acquire(513);
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(b.capacity, 1024u);
  pool.Release(b);

  EXPECT_EQ(pool.stats().peak_bytes, 1024u);
}

TEST(BufferPoolTest, TrimDropsCachedBlocks) {
  BufferPool pool;
  pool.Release(pool.Acquire(256));
  pool.Release(pool.Acquire(512));
  EXPECT_EQ(pool.stats().free_blocks, 2u);
  pool.Trim();
  EXPECT_EQ(pool.stats().free_blocks, 0u);
  EXPECT_EQ(pool.stats().free_bytes, 0u);
  // Next acquire after a trim is a fresh allocation again.
  const uint64_t misses_before = pool.stats().misses;
  pool.Release(pool.Acquire(256));
  EXPECT_EQ(pool.stats().misses, misses_before + 1);
}

TEST(BufferPoolTest, WatermarkTrimReleasesLargestBucketsFirst) {
  BufferPool pool;
  pool.Release(pool.Acquire(256));
  pool.Release(pool.Acquire(1024));
  pool.Release(pool.Acquire(64 << 10));
  ASSERT_EQ(pool.stats().free_bytes, 256u + 1024u + (64u << 10));

  // Trim down to a watermark that only the two small buckets fit under:
  // the peak-size 64 KiB block goes, the warm small blocks stay.
  const size_t released = pool.Trim(/*keep_free_bytes=*/2048);
  EXPECT_EQ(released, 64u << 10);
  EXPECT_EQ(pool.stats().free_bytes, 256u + 1024u);
  EXPECT_EQ(pool.stats().free_blocks, 2u);
  EXPECT_EQ(pool.stats().trims, 1u);
  EXPECT_EQ(pool.stats().trimmed_bytes, 64u << 10);

  // The surviving blocks still serve hits.
  const uint64_t hits_before = pool.stats().hits;
  pool.Release(pool.Acquire(256));
  EXPECT_EQ(pool.stats().hits, hits_before + 1);

  // A trim already under the watermark is a no-op and not counted.
  EXPECT_EQ(pool.Trim(/*keep_free_bytes=*/4096), 0u);
  EXPECT_EQ(pool.stats().trims, 1u);

  // Trim() without a watermark keeps the historical drop-everything
  // behavior.
  EXPECT_EQ(pool.Trim(), 256u + 1024u);
  EXPECT_EQ(pool.stats().free_bytes, 0u);
  EXPECT_EQ(pool.stats().trims, 2u);
}

TEST(BufferPoolTest, PublishesMetricsWhenRegistryWired) {
  MetricsRegistry registry;
  BufferPool pool(&registry);
  BufferPool::Block block = pool.Acquire(100);
  EXPECT_EQ(registry.counter("mem.pool_misses").value(), 1u);
  EXPECT_EQ(registry.gauge("mem.bytes_in_use").value(), 128.0);
  EXPECT_EQ(registry.gauge("mem.peak_bytes").value(), 128.0);
  pool.Release(block);
  pool.Release(pool.Acquire(128));
  EXPECT_EQ(registry.counter("mem.pool_hits").value(), 1u);
  EXPECT_EQ(registry.gauge("mem.bytes_in_use").value(), 0.0);
}

TEST(BufferPoolTest, MissesRecordTraceSpansOnMemAllocLane) {
  BufferPool pool;
  SpanCollector spans;
  pool.set_trace(&spans, /*node=*/3);
  BufferPool::Block block = pool.Acquire(100);  // miss: one span
  pool.Release(block);
  pool.Release(pool.Acquire(100));  // hit: no span
  ASSERT_EQ(spans.size(), 1u);
  const TraceSpan span = spans.spans()[0];
  EXPECT_EQ(span.node, 3);
  EXPECT_EQ(span.lane, kTraceLaneMemAlloc);
  EXPECT_NE(span.name.find("alloc"), std::string::npos);
  pool.set_trace(nullptr);
}

// ---------------------------------------------------------- PooledArray

TEST(PooledArrayTest, ResizeAssignPushBack) {
  BufferPool pool;
  PooledFloats floats(&pool);
  floats.assign(10, 1.5f);
  ASSERT_EQ(floats.size(), 10u);
  EXPECT_EQ(floats[9], 1.5f);
  floats.resize(4);
  EXPECT_EQ(floats.size(), 4u);
  for (int i = 0; i < 100; ++i) {
    floats.push_back(static_cast<float>(i));
  }
  EXPECT_EQ(floats.size(), 104u);
  EXPECT_EQ(floats[4], 0.0f);
  EXPECT_EQ(floats[103], 99.0f);
}

TEST(PooledArrayTest, ClearKeepsCapacityAndBlock) {
  BufferPool pool;
  PooledFloats floats(&pool, 100);
  const size_t cap = floats.capacity();
  const uint64_t misses = pool.stats().misses;
  floats.clear();
  floats.resize(100);
  EXPECT_EQ(floats.capacity(), cap);
  EXPECT_EQ(pool.stats().misses, misses);  // no round-trip through the pool
}

TEST(PooledArrayTest, BlocksRecycleAcrossElementTypes) {
  BufferPool pool;
  {
    PooledFloats floats(&pool, 256);  // 1024 bytes: miss
  }
  EXPECT_EQ(pool.stats().misses, 1u);
  PooledBytes bytes(&pool, 1000);  // same bucket: hit
  EXPECT_EQ(bytes.size(), 1000u);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST(PooledArrayTest, MoveTransfersOwnership) {
  BufferPool pool;
  PooledFloats a(&pool, 8);
  a[0] = 42.0f;
  PooledFloats b = std::move(a);
  EXPECT_EQ(b.size(), 8u);
  EXPECT_EQ(b[0], 42.0f);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): reset state
  EXPECT_EQ(pool.stats().bytes_in_use, BufferPool::BucketCapacity(32));
}

TEST(WorkspaceTest, ZeroedFloatsAreZero) {
  BufferPool pool;
  Workspace ws(&pool);
  {
    PooledFloats scratch = ws.floats(64);
    for (auto& f : scratch) {
      f = 7.0f;  // dirty the block
    }
  }
  PooledFloats zeroed = ws.zeroed_floats(64);
  for (const float f : zeroed) {
    EXPECT_EQ(f, 0.0f);
  }
}

// ------------------------------------------------------------- threading

TEST(BufferPoolTest, CrossThreadRecycleUnderThreadPool) {
  BufferPool pool;
  ThreadPool& workers = ThreadPool::Global();
  const size_t lanes = workers.num_threads();

  // Warm one block per concurrent lane; each task holds at most one block
  // at a time, so the free list never runs dry afterwards.
  {
    std::vector<BufferPool::Block> warm;
    for (size_t i = 0; i < lanes; ++i) {
      warm.push_back(pool.Acquire(4096));
    }
    for (BufferPool::Block& block : warm) {
      pool.Release(block);
    }
  }
  const uint64_t misses_after_warmup = pool.stats().misses;
  EXPECT_EQ(misses_after_warmup, lanes);

  constexpr int kRounds = 200;
  std::vector<std::future<void>> futures;
  for (size_t t = 0; t < lanes; ++t) {
    futures.push_back(workers.Submit([&pool] {
      for (int i = 0; i < kRounds; ++i) {
        BufferPool::Block block = pool.Acquire(4096);
        static_cast<uint8_t*>(block.data)[0] = 1;
        pool.Release(block);
      }
    }));
  }
  for (auto& future : futures) {
    future.wait();
  }

  const BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.misses, misses_after_warmup);  // steady state: all hits
  EXPECT_EQ(stats.hits, lanes * kRounds);
  EXPECT_EQ(stats.bytes_in_use, 0u);
}

// ------------------------------------------------------------- ReadAt

TEST(ByteBufferDeathTest, ReadAtPastEndAborts) {
  // The ThreadPool test above leaves global worker threads running; fork
  // through exec so the death assertion stays reliable.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ByteBuffer buffer(4);
  size_t offset = 2;
  EXPECT_DEATH(buffer.ReadAt<uint32_t>(offset), "overruns buffer");
  size_t far = 100;
  EXPECT_DEATH(buffer.ReadAt<uint8_t>(far), "overruns buffer");
}

// ------------------------------------------------- steady-state invariant

// The tentpole invariant: after one warm-up iteration, a compressed
// multi-node training step performs zero pool misses — every sync-path
// buffer (gradients, codec scratch, the sync's wire and partial-aggregate
// buffers) is recycled. DistTrainer mirrors the global pool's per-step miss delta
// into its registry as "mem.step_pool_misses".
TEST(BufferPoolSteadyStateTest, CompressedTrainingStopsMissingAfterWarmup) {
  DistTrainConfig config;
  config.num_workers = 3;
  config.batch_per_worker = 16;
  config.algorithm = "onebit";
  config.strategy = StrategyKind::kPs;
  config.partitions = 2;
  auto trainer_or = DistTrainer::Create(config);
  ASSERT_TRUE(trainer_or.ok()) << trainer_or.status();
  std::unique_ptr<DistTrainer> trainer = std::move(*trainer_or);

  // Warm-up: the first iteration faults every bucket in.
  ASSERT_TRUE(trainer->Train(1, 1, 1.0).ok());
  EXPECT_GT(trainer->metrics().gauge("mem.pool_misses").value(), 0.0);

  // Steady state: every subsequent step must run entirely from the pool.
  for (int step = 0; step < 5; ++step) {
    ASSERT_TRUE(trainer->Train(1, 1, 1.0).ok());
    EXPECT_EQ(trainer->metrics().gauge("mem.step_pool_misses").value(), 0.0)
        << "pool miss on steady-state step " << step;
  }
}

}  // namespace
}  // namespace hipress
