// Simulated accelerator device.
//
// The paper runs compression kernels on the same GPU as DNN computation, on
// separate CUDA streams. We model a device as a set of FIFO streams over the
// discrete-event simulator: stream 0 carries DNN forward/backward compute,
// stream 1 carries compression kernels (encode/decode/merge), so compression
// overlaps communication but serializes against other kernels on its stream.
// Every executed interval is recorded so benches can reconstruct the GPU
// utilization timelines of Figure 9.
#ifndef HIPRESS_SRC_SIMGPU_GPU_H_
#define HIPRESS_SRC_SIMGPU_GPU_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/buffer_pool.h"
#include "src/common/kernel_cost.h"
#include "src/common/metrics.h"
#include "src/common/units.h"
#include "src/sim/simulator.h"

namespace hipress {

enum class GpuTaskKind {
  kCompute,  // DNN forward/backward.
  kEncode,
  kDecode,
  kMerge,
  kMemcpy,
};
inline constexpr int kNumGpuTaskKinds = 5;

const char* GpuTaskKindName(GpuTaskKind kind);

struct GpuInterval {
  SimTime start = 0;
  SimTime end = 0;
  GpuTaskKind kind = GpuTaskKind::kCompute;
};

class GpuDevice {
 public:
  // Stream 0: DNN compute; stream 1: compression kernels.
  static constexpr int kComputeStream = 0;
  static constexpr int kKernelStream = 1;

  // `metrics` (optional) receives per-kind task counts, busy nanoseconds
  // and kernel-duration histograms ("gpu.tasks.encode", "gpu.busy_ns.*",
  // "gpu.kernel_us"), aggregated across every device wired to it. Submit
  // only bumps the device's own tallies; they are published into
  // `metrics` each time the simulator's Run()/RunUntil() returns and when
  // the device is destroyed (Simulator::PublishHook).
  GpuDevice(Simulator* sim, int id, int num_streams = 2,
            MetricsRegistry* metrics = nullptr);
  ~GpuDevice();

  // Runs a task of `duration` ns FIFO on `stream`; `done` fires at its finish
  // time. Returns the task's scheduled start time (>= now; later when the
  // stream has a backlog), so callers can attribute queueing separately
  // from service (the critical-path profiler's wait category).
  SimTime Submit(int stream, GpuTaskKind kind, SimTime duration,
                 std::function<void()> done);

  SimTime SubmitCompute(SimTime duration, std::function<void()> done) {
    return Submit(kComputeStream, GpuTaskKind::kCompute, duration,
                  std::move(done));
  }
  SimTime SubmitKernel(GpuTaskKind kind, SimTime duration,
                       std::function<void()> done) {
    return Submit(kKernelStream, kind, duration, std::move(done));
  }

  // Pool-backed host staging for kernel payloads, mirroring HiPress's
  // preallocated pinned staging area: repeated launches of same-sized
  // kernels reuse one recycled block instead of allocating per launch.
  // Returned bytes are uninitialized; the block returns to the pool when
  // the handle is dropped.
  PooledBytes AcquireStaging(size_t bytes) { return {staging_pool_, bytes}; }
  // Refcounted variant for the wire path: encode writes into the staging
  // block and the same handle becomes the SyncTask/NetMessage payload, so
  // a compressed gradient leaves the device and reaches the batch frame
  // without an intermediate copy (docs/COMMUNICATION.md). The block
  // recycles when the last wire reference drops.
  std::shared_ptr<PooledBytes> AcquireSharedStaging(size_t bytes) {
    return std::make_shared<PooledBytes>(staging_pool_, bytes);
  }
  void set_staging_pool(BufferPool* pool) { staging_pool_ = pool; }

  int id() const { return id_; }
  SimTime stream_free_at(int stream) const { return stream_free_[stream]; }
  SimTime busy_time(int stream) const { return stream_busy_[stream]; }
  const std::vector<GpuInterval>& timeline() const { return timeline_; }
  void set_record_timeline(bool record) { record_timeline_ = record; }

  // Fraction of [window_start, window_end) covered by compute intervals.
  double ComputeUtilization(SimTime window_start, SimTime window_end) const;

 private:
  // Per-kind tallies (index = GpuTaskKind) and their registry counters.
  struct KindTally {
    uint64_t tasks = 0;
    uint64_t busy_ns = 0;
    CounterPublisher tasks_metric;
    CounterPublisher busy_ns_metric;
  };

  void PublishMetrics();

  Simulator* sim_;
  int id_;
  std::vector<SimTime> stream_free_;
  std::vector<SimTime> stream_busy_;
  std::vector<GpuInterval> timeline_;
  bool record_timeline_ = false;
  std::array<KindTally, kNumGpuTaskKinds> kinds_;
  LocalHistogram kernel_us_;  // non-compute kernel durations
  BufferPool* staging_pool_ = &BufferPool::Global();
  Simulator::PublishHook publish_hook_;
};

}  // namespace hipress

#endif  // HIPRESS_SRC_SIMGPU_GPU_H_
