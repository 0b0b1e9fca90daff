// Live heap of a training run: the SSP path keeps the task graphs of the
// iterations still in flight, not of every iteration it ran, so its peak
// live heap is bounded by the staleness rather than by the iteration count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "src/models/model_profile.h"
#include "src/strategies/presets.h"
#include "src/train/trainer.h"

// Every global operator new in this binary is counted: a header in front of
// each block records its size, so deletes subtract exactly what was added
// and the peak of live bytes is exact.
namespace {
constexpr std::size_t kHeader = 16;  // keeps malloc's 16-byte alignment
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  auto* block = static_cast<unsigned char*>(std::malloc(size + kHeader));
  if (block == nullptr) {
    throw std::bad_alloc();
  }
  *reinterpret_cast<std::size_t*>(block) = size;
  const int64_t live =
      g_live_bytes.fetch_add(static_cast<int64_t>(size),
                             std::memory_order_relaxed) +
      static_cast<int64_t>(size);
  int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return block + kHeader;
}
// Not inlined: GCC would otherwise pair the free() with the new-expression
// it sees and warn about a mismatched deallocation.
[[gnu::noinline]] void operator delete(void* pointer) noexcept {
  if (pointer == nullptr) {
    return;
  }
  auto* block = static_cast<unsigned char*>(pointer) - kHeader;
  g_live_bytes.fetch_sub(
      static_cast<int64_t>(*reinterpret_cast<std::size_t*>(block)),
      std::memory_order_relaxed);
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* pointer, std::size_t) noexcept {
  operator delete(pointer);
}

namespace hipress {
namespace {

// Peak live heap bytes above the live bytes at entry, over one SSP run of
// `iterations` iterations.
int64_t SspPeakBytes(const std::string& system, int iterations) {
  auto profile = GetModelProfile("resnet50");
  EXPECT_TRUE(profile.ok());
  ClusterSpec cluster = ClusterSpec::Ec2(4);
  cluster.net.link_bandwidth = Bandwidth::Gbps(10.0);
  auto config = MakeSystemConfig(system, cluster, "onebit");
  EXPECT_TRUE(config.ok());
  TrainOptions options;
  options.staleness = 1;
  options.iterations = iterations;
  const int64_t base = g_live_bytes.load();
  g_peak_bytes.store(base);
  {
    auto run = SimulateTraining(*profile, *config, options);
    EXPECT_TRUE(run.ok()) << run.status();
  }
  return g_peak_bytes.load() - base;
}

TEST(SspMemoryTest, PeakLiveHeapDoesNotGrowWithIterations) {
  // hipress-ps launches concurrently; ring pumps ordered collectives.
  for (const char* system : {"hipress-ps", "ring"}) {
    const int64_t short_run = SspPeakBytes(system, 8);
    const int64_t long_run = SspPeakBytes(system, 64);
    EXPECT_GT(short_run, 0) << system;
    // Each iteration's graphs hold a few hundred kB; keeping all 64 would
    // put the long run several times above the short one.
    EXPECT_LT(long_run, short_run * 5 / 4)
        << system << ": " << short_run << " B at 8 iterations, " << long_run
        << " B at 64";
  }
}

}  // namespace
}  // namespace hipress
