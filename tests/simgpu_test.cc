#include <gtest/gtest.h>

#include <vector>

#include "src/common/metrics.h"
#include "src/compress/speed_profile.h"
#include "src/sim/simulator.h"
#include "src/simgpu/gpu.h"

namespace hipress {
namespace {

TEST(GpuDeviceTest, StreamsSerializeIndependently) {
  Simulator sim;
  GpuDevice gpu(&sim, 0);
  std::vector<SimTime> compute_done;
  std::vector<SimTime> kernel_done;
  gpu.SubmitCompute(100, [&] { compute_done.push_back(sim.now()); });
  gpu.SubmitCompute(100, [&] { compute_done.push_back(sim.now()); });
  gpu.SubmitKernel(GpuTaskKind::kEncode, 30,
                   [&] { kernel_done.push_back(sim.now()); });
  gpu.SubmitKernel(GpuTaskKind::kDecode, 30,
                   [&] { kernel_done.push_back(sim.now()); });
  sim.Run();
  // Compute stream: back-to-back 100+100. Kernel stream: 30+30, overlapping
  // compute (separate streams).
  ASSERT_EQ(compute_done.size(), 2u);
  EXPECT_EQ(compute_done[0], 100);
  EXPECT_EQ(compute_done[1], 200);
  ASSERT_EQ(kernel_done.size(), 2u);
  EXPECT_EQ(kernel_done[0], 30);
  EXPECT_EQ(kernel_done[1], 60);
}

TEST(GpuDeviceTest, BusyTimePerStream) {
  Simulator sim;
  GpuDevice gpu(&sim, 0);
  gpu.SubmitCompute(100, [] {});
  gpu.SubmitKernel(GpuTaskKind::kMerge, 40, [] {});
  sim.Run();
  EXPECT_EQ(gpu.busy_time(GpuDevice::kComputeStream), 100);
  EXPECT_EQ(gpu.busy_time(GpuDevice::kKernelStream), 40);
}

TEST(GpuDeviceTest, PublishesTalliesWhenTheSimulatorReturns) {
  // Submit only bumps the device's tallies; the registry sees them when
  // Run() returns, summed over every device wired to it.
  MetricsRegistry metrics;
  Simulator sim;
  GpuDevice gpu0(&sim, 0, 2, &metrics);
  GpuDevice gpu1(&sim, 1, 2, &metrics);
  gpu0.SubmitCompute(100, [&] {
    EXPECT_EQ(metrics.counter_value("gpu.tasks.compute"), 0u);
  });
  gpu0.SubmitKernel(GpuTaskKind::kEncode, 3000, [] {});
  gpu1.SubmitKernel(GpuTaskKind::kEncode, 5000, [] {});
  gpu1.SubmitKernel(GpuTaskKind::kMerge, 1000, [] {});
  EXPECT_EQ(metrics.counter_value("gpu.tasks.encode"), 0u);
  sim.Run();
  EXPECT_EQ(metrics.counter_value("gpu.tasks.compute"), 1u);
  EXPECT_EQ(metrics.counter_value("gpu.tasks.encode"), 2u);
  EXPECT_EQ(metrics.counter_value("gpu.busy_ns.encode"), 8000u);
  EXPECT_EQ(metrics.counter_value("gpu.busy_ns.merge"), 1000u);
  EXPECT_EQ(metrics.counter_value("gpu.tasks.memcpy"), 0u);
  // Compute is not a kernel: three kernel durations, in microseconds.
  const Histogram& kernel_us = metrics.histogram("gpu.kernel_us");
  EXPECT_EQ(kernel_us.count(), 3u);
  EXPECT_DOUBLE_EQ(kernel_us.sum(), 9.0);
  EXPECT_DOUBLE_EQ(kernel_us.min(), 1.0);
  EXPECT_DOUBLE_EQ(kernel_us.max(), 5.0);
  // A second run publishes only what is new.
  gpu0.SubmitKernel(GpuTaskKind::kDecode, 2000, [] {});
  sim.Run();
  EXPECT_EQ(metrics.counter_value("gpu.tasks.encode"), 2u);
  EXPECT_EQ(metrics.counter_value("gpu.tasks.decode"), 1u);
  EXPECT_EQ(kernel_us.count(), 4u);
}

TEST(GpuDeviceTest, DestructionPublishesWhatNoRunDid) {
  MetricsRegistry metrics;
  Simulator sim;
  {
    GpuDevice gpu(&sim, 0, 2, &metrics);
    gpu.SubmitKernel(GpuTaskKind::kMerge, 500, [] {});
  }
  EXPECT_EQ(metrics.counter_value("gpu.tasks.merge"), 1u);
  EXPECT_EQ(metrics.histogram_count("gpu.kernel_us"), 1u);
}

TEST(GpuDeviceTest, TimelineRecordsIntervals) {
  Simulator sim;
  GpuDevice gpu(&sim, 0);
  gpu.set_record_timeline(true);
  gpu.SubmitCompute(100, [] {});
  gpu.SubmitKernel(GpuTaskKind::kEncode, 50, [] {});
  sim.Run();
  ASSERT_EQ(gpu.timeline().size(), 2u);
  EXPECT_EQ(gpu.timeline()[0].kind, GpuTaskKind::kCompute);
  EXPECT_EQ(gpu.timeline()[0].start, 0);
  EXPECT_EQ(gpu.timeline()[0].end, 100);
  EXPECT_EQ(gpu.timeline()[1].kind, GpuTaskKind::kEncode);
}

TEST(GpuDeviceTest, ComputeUtilizationOverWindow) {
  Simulator sim;
  GpuDevice gpu(&sim, 0);
  gpu.set_record_timeline(true);
  gpu.SubmitCompute(100, [] {});
  sim.Run();
  sim.Schedule(100, [&] { gpu.SubmitCompute(100, [] {}); });
  sim.RunUntil(200);
  sim.Run();
  // Busy [0,100) and [200,300): utilization over [0,400) = 0.5.
  EXPECT_DOUBLE_EQ(gpu.ComputeUtilization(0, 400), 0.5);
  EXPECT_DOUBLE_EQ(gpu.ComputeUtilization(0, 100), 1.0);
  EXPECT_DOUBLE_EQ(gpu.ComputeUtilization(100, 200), 0.0);
}

TEST(KernelCostTest, LinearInBytes) {
  KernelCost cost{FromMicros(10.0), 100e9};
  const SimTime t1 = cost.Time(100'000'000);  // 1 ms + overhead
  EXPECT_EQ(t1, FromMicros(10) + FromMillis(1));
  EXPECT_EQ(cost.Time(0), FromMicros(10));
}

TEST(SpeedProfileTest, CompLLBeatsOssBeatsCpu) {
  for (const char* alg : {"onebit", "tbq", "terngrad", "dgc", "graddrop"}) {
    const auto compll =
        GetCodecSpeed(alg, CodecImpl::kCompLL, GpuPlatform::kV100);
    const auto oss = GetCodecSpeed(alg, CodecImpl::kOss, GpuPlatform::kV100);
    const auto cpu = GetCodecSpeed(alg, CodecImpl::kCpu, GpuPlatform::kV100);
    EXPECT_GT(compll.encode.bytes_per_second, oss.encode.bytes_per_second)
        << alg;
    EXPECT_GT(oss.encode.bytes_per_second, 0.0) << alg;
    EXPECT_GT(compll.encode.bytes_per_second,
              10.0 * cpu.encode.bytes_per_second)
        << alg;
  }
}

TEST(SpeedProfileTest, TbqOssSlowdownMatchesPaper) {
  // OSS-TBQ: 256 MB in ~38.2 ms; CompLL 12x faster (Section 4.4).
  const auto oss = GetCodecSpeed("tbq", CodecImpl::kOss, GpuPlatform::kV100);
  const uint64_t bytes = 256ull * 1024 * 1024;
  const double oss_ms = ToMillis(oss.encode.Time(bytes));
  EXPECT_NEAR(oss_ms, 38.2, 6.0);
  const auto compll =
      GetCodecSpeed("tbq", CodecImpl::kCompLL, GpuPlatform::kV100);
  const double ratio = oss_ms / ToMillis(compll.encode.Time(bytes));
  EXPECT_NEAR(ratio, 12.0, 1.5);
}

TEST(SpeedProfileTest, CpuSimdSitsBetweenCpuAndGpu) {
  // The vectorized CPU tier must price strictly faster than the scalar CPU
  // path but stay well below the GPU kernels. The raw kernel ratio is 4x
  // (bench_kernels gates >= 3x), but both CPU tiers fold in the same
  // 12 GB/s PCIe round trip, which compresses the effective gap.
  for (const char* alg : {"onebit", "tbq", "fp16"}) {
    const auto compll =
        GetCodecSpeed(alg, CodecImpl::kCompLL, GpuPlatform::kV100);
    const auto cpu = GetCodecSpeed(alg, CodecImpl::kCpu, GpuPlatform::kV100);
    const auto simd =
        GetCodecSpeed(alg, CodecImpl::kCpuSimd, GpuPlatform::kV100);
    EXPECT_GT(simd.encode.bytes_per_second,
              1.5 * cpu.encode.bytes_per_second)
        << alg;
    EXPECT_LT(simd.encode.bytes_per_second, compll.encode.bytes_per_second)
        << alg;
    EXPECT_GT(simd.decode.bytes_per_second, cpu.decode.bytes_per_second)
        << alg;
  }
  // Platform scaling applies to GPU implementations only; the CPU tiers are
  // host-side and identical across clusters.
  EXPECT_EQ(GetCodecSpeed("onebit", CodecImpl::kCpuSimd, GpuPlatform::kV100)
                .encode.bytes_per_second,
            GetCodecSpeed("onebit", CodecImpl::kCpuSimd,
                          GpuPlatform::k1080Ti)
                .encode.bytes_per_second);
}

TEST(SpeedProfileTest, CpuOnebitSlowdownMatchesPaper) {
  const auto compll =
      GetCodecSpeed("onebit", CodecImpl::kCompLL, GpuPlatform::kV100);
  const auto cpu =
      GetCodecSpeed("onebit", CodecImpl::kCpu, GpuPlatform::kV100);
  const uint64_t bytes = 256ull * 1024 * 1024;
  const double ratio =
      static_cast<double>(cpu.encode.Time(bytes)) /
      static_cast<double>(compll.encode.Time(bytes));
  // 35.6x plus the PCIe round trip folded into the CPU path.
  EXPECT_GT(ratio, 30.0);
  EXPECT_LT(ratio, 60.0);
}

TEST(SpeedProfileTest, LocalPlatformIsSlower) {
  const auto v100 =
      GetCodecSpeed("onebit", CodecImpl::kCompLL, GpuPlatform::kV100);
  const auto ti =
      GetCodecSpeed("onebit", CodecImpl::kCompLL, GpuPlatform::k1080Ti);
  EXPECT_LT(ti.encode.bytes_per_second, v100.encode.bytes_per_second);
  EXPECT_LT(ComputeScale(GpuPlatform::k1080Ti), 1.0);
}

}  // namespace
}  // namespace hipress
