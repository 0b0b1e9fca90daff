#include "src/simgpu/gpu.h"

#include <algorithm>

#include "src/common/logging.h"

namespace hipress {

const char* GpuTaskKindName(GpuTaskKind kind) {
  switch (kind) {
    case GpuTaskKind::kCompute:
      return "compute";
    case GpuTaskKind::kEncode:
      return "encode";
    case GpuTaskKind::kDecode:
      return "decode";
    case GpuTaskKind::kMerge:
      return "merge";
    case GpuTaskKind::kMemcpy:
      return "memcpy";
  }
  return "unknown";
}

GpuDevice::GpuDevice(Simulator* sim, int id, int num_streams,
                     MetricsRegistry* metrics)
    : sim_(sim), id_(id), publish_hook_(sim, [this] { PublishMetrics(); }) {
  CHECK_GT(num_streams, 0);
  // std::max keeps GCC's range analysis from flagging the vector fill.
  const auto streams = static_cast<size_t>(std::max(num_streams, 1));
  stream_free_.assign(streams, 0);
  stream_busy_.assign(streams, 0);
  if (metrics != nullptr) {
    for (int k = 0; k < kNumGpuTaskKinds; ++k) {
      const std::string name = GpuTaskKindName(static_cast<GpuTaskKind>(k));
      KindTally& slot = kinds_[static_cast<size_t>(k)];
      slot.tasks_metric =
          CounterPublisher(&metrics->counter("gpu.tasks." + name));
      slot.busy_ns_metric =
          CounterPublisher(&metrics->counter("gpu.busy_ns." + name));
    }
    kernel_us_ = LocalHistogram(&metrics->histogram("gpu.kernel_us"));
  }
}

GpuDevice::~GpuDevice() { PublishMetrics(); }

void GpuDevice::PublishMetrics() {
  for (KindTally& slot : kinds_) {
    slot.tasks_metric.Publish(slot.tasks);
    slot.busy_ns_metric.Publish(slot.busy_ns);
  }
  kernel_us_.Publish();
}

SimTime GpuDevice::Submit(int stream, GpuTaskKind kind, SimTime duration,
                          std::function<void()> done) {
  CHECK_GE(stream, 0);
  CHECK_LT(static_cast<size_t>(stream), stream_free_.size());
  CHECK_GE(duration, 0);
  const SimTime start = std::max(sim_->now(), stream_free_[stream]);
  const SimTime end = start + duration;
  stream_free_[stream] = end;
  stream_busy_[stream] += duration;
  if (record_timeline_) {
    timeline_.push_back(GpuInterval{start, end, kind});
  }
  KindTally& tally = kinds_[static_cast<size_t>(kind)];
  ++tally.tasks;
  tally.busy_ns += static_cast<uint64_t>(duration);
  if (kind != GpuTaskKind::kCompute) {
    kernel_us_.Observe(static_cast<double>(duration) / kMicrosecond);
  }
  sim_->ScheduleAt(end, std::move(done));
  return start;
}

double GpuDevice::ComputeUtilization(SimTime window_start,
                                     SimTime window_end) const {
  if (window_end <= window_start) {
    return 0.0;
  }
  SimTime covered = 0;
  for (const GpuInterval& interval : timeline_) {
    if (interval.kind != GpuTaskKind::kCompute) {
      continue;
    }
    const SimTime lo = std::max(interval.start, window_start);
    const SimTime hi = std::min(interval.end, window_end);
    if (hi > lo) {
      covered += hi - lo;
    }
  }
  return static_cast<double>(covered) /
         static_cast<double>(window_end - window_start);
}

}  // namespace hipress
