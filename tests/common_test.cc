#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>

#include "src/common/bitops.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/string_util.h"
#include "src/common/thread_pool.h"
#include "src/common/units.h"

namespace hipress {
namespace {

// ------------------------------------------------------------------ Status

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = InvalidArgumentError("bad input");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad input");
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad input");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(CancelledError("x").code(), StatusCode::kCancelled);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result(NotFoundError("missing"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) {
    return InvalidArgumentError("odd");
  }
  return x / 2;
}

Status UseHalf(int x, int* out) {
  ASSIGN_OR_RETURN(*out, Half(x));
  return OkStatus();
}

TEST(StatusOrTest, AssignOrReturnPropagatesErrors) {
  int out = 0;
  EXPECT_TRUE(UseHalf(4, &out).ok());
  EXPECT_EQ(out, 2);
  EXPECT_EQ(UseHalf(3, &out).code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.NextBounded(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, GaussianHasRoughlyUnitMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng root(42);
  Rng a = root.Fork(1);
  Rng b = root.Fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

// ------------------------------------------------------------------ bitops

TEST(BitopsTest, PackedBytesRoundsUp) {
  EXPECT_EQ(PackedBytes(0, 1), 0u);
  EXPECT_EQ(PackedBytes(1, 1), 1u);
  EXPECT_EQ(PackedBytes(8, 1), 1u);
  EXPECT_EQ(PackedBytes(9, 1), 2u);
  EXPECT_EQ(PackedBytes(4, 2), 1u);
  EXPECT_EQ(PackedBytes(5, 2), 2u);
  EXPECT_EQ(PackedBytes(3, 4), 2u);
}

TEST(BitopsTest, WriteReadRoundTrip) {
  uint8_t buffer[16] = {};
  for (unsigned bits : {1u, 2u, 3u, 4u, 5u, 8u}) {
    std::fill(std::begin(buffer), std::end(buffer), 0);
    const uint32_t mask = (1u << bits) - 1;
    for (size_t i = 0; i < 16; ++i) {
      WriteBits(buffer, i * bits, bits, static_cast<uint32_t>(i * 7) & mask);
    }
    for (size_t i = 0; i < 16; ++i) {
      EXPECT_EQ(ReadBits(buffer, i * bits, bits),
                (static_cast<uint32_t>(i * 7) & mask))
          << "bits=" << bits << " i=" << i;
    }
  }
}

TEST(BitopsTest, WriteBitsClearsOldBits) {
  uint8_t buffer[2] = {0xff, 0xff};
  WriteBits(buffer, 4, 4, 0x0);
  EXPECT_EQ(ReadBits(buffer, 4, 4), 0u);
  EXPECT_EQ(ReadBits(buffer, 0, 4), 0xfu);
  EXPECT_EQ(ReadBits(buffer, 8, 8), 0xffu);
}

TEST(BitopsTest, FastPackPathsMatchGeneric) {
  uint8_t values8[8] = {1, 0, 1, 1, 0, 0, 1, 0};
  uint8_t generic[1] = {};
  for (int i = 0; i < 8; ++i) {
    WriteBits(generic, i, 1, values8[i]);
  }
  EXPECT_EQ(Pack8x1(values8), generic[0]);
  uint8_t unpacked[8];
  Unpack8x1(generic[0], unpacked);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(unpacked[i], values8[i]);
  }

  uint8_t values4[4] = {3, 0, 2, 1};
  uint8_t generic2[1] = {};
  for (int i = 0; i < 4; ++i) {
    WriteBits(generic2, i * 2, 2, values4[i]);
  }
  EXPECT_EQ(Pack4x2(values4), generic2[0]);

  uint8_t values2[2] = {0xa, 0x5};
  EXPECT_EQ(Pack2x4(values2), 0x5a);
}

// ------------------------------------------------------------- thread pool

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& future : futures) {
    future.wait();
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, 10, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ++hits[i];
    }
  });
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, 1, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, 1024, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ParallelForZeroGrainActsAsGrainOne) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelFor(64, 0, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ++hits[i];
    }
  });
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForZeroTotalNeverCallsEvenWithZeroGrain) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, 0, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, ParallelForGrainLargerThanTotalRunsSingleShard) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(10, 100, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 10u);
    ++calls;
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, ParallelForVisitsEachIndexOnceAndRunsLastShardInline) {
  ThreadPool pool(3);
  for (size_t total : {1u, 2u, 7u, 64u, 1000u, 4097u}) {
    for (size_t grain : {1u, 3u, 64u, 5000u}) {
      std::vector<std::atomic<int>> hits(total);
      std::mutex mutex;
      std::thread::id last_shard_thread;
      pool.ParallelFor(total, grain, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          ++hits[i];
        }
        if (end == total) {
          std::lock_guard<std::mutex> lock(mutex);
          last_shard_thread = std::this_thread::get_id();
        }
      });
      for (size_t i = 0; i < total; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "index " << i << " total " << total << " grain " << grain;
      }
      EXPECT_EQ(last_shard_thread, std::this_thread::get_id())
          << "total " << total << " grain " << grain;
    }
  }
}

TEST(ThreadPoolTest, AtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

// ------------------------------------------------------------ string utils

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  const auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringUtilTest, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("hipress", "hi"));
  EXPECT_FALSE(StartsWith("hi", "hipress"));
  EXPECT_TRUE(EndsWith("task.cc", ".cc"));
  EXPECT_FALSE(EndsWith("task.cc", ".h"));
}

TEST(StringUtilTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512B");
  EXPECT_EQ(HumanBytes(4096), "4KB");
  EXPECT_EQ(HumanBytes(static_cast<uint64_t>(392) * 1024 * 1024), "392.0MB");
}

// ------------------------------------------------------------------- units

TEST(UnitsTest, TimeConversions) {
  EXPECT_EQ(FromMillis(1.5), 1500000);
  EXPECT_EQ(FromMicros(2.0), 2000);
  EXPECT_DOUBLE_EQ(ToSeconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(ToMillis(kMillisecond), 1.0);
}

TEST(UnitsTest, BandwidthTransferTime) {
  const Bandwidth bw = Bandwidth::Gbps(100.0);
  // 12.5 GB/s -> 1 MB takes 80 microseconds.
  EXPECT_NEAR(static_cast<double>(bw.TransferTime(1000000)),
              80.0 * kMicrosecond, 1.0 * kMicrosecond);
  EXPECT_EQ(Bandwidth{0.0}.TransferTime(1000), 0);
}

TEST(UnitsTest, GBpsMatchesGbpsTimesEight) {
  EXPECT_DOUBLE_EQ(Bandwidth::GBps(1.0).bits_per_second,
                   Bandwidth::Gbps(8.0).bits_per_second);
}

}  // namespace
}  // namespace hipress
