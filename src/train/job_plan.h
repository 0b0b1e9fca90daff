// What SimulateTraining and RunClusterJobs share (internal to src/train):
// the feature-combination validator, the per-job gradient plan (SeCoPa's
// <compress?, K>, fusion buckets, local aggregation, the adaptive ladder),
// the simulated fabric a run executes on, and Horovod's ordered-collectives
// pump. Both entry points call these, so a gradient is priced and launched
// the same way whichever loop runs it.
#ifndef HIPRESS_SRC_TRAIN_JOB_PLAN_H_
#define HIPRESS_SRC_TRAIN_JOB_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/casync/adaptive.h"
#include "src/casync/config.h"
#include "src/casync/engine.h"
#include "src/common/flight_recorder.h"
#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/common/watchdog.h"
#include "src/models/model_profile.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"
#include "src/simgpu/gpu.h"

namespace hipress {

constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ULL;

// FNV-1a over `size` bytes, continuing from `hash`.
uint64_t Fnv1a(const void* data, size_t size, uint64_t hash = kFnvOffsetBasis);

// The run options that decide which features may combine.
struct JobFeatures {
  int staleness = 0;
  bool adaptive = false;
  // One of RunClusterJobs' jobs: contention only, no churn, and concurrent
  // collectives only (its event-chained loop has no ordered-collectives
  // pump).
  bool cluster_job = false;
};

// InvalidArgumentError for every combination neither loop can model.
Status ValidateJob(const ModelProfile& model, const SyncConfig& config,
                   const JobFeatures& features);

// One gradient (or Horovod-style fusion bucket) to synchronize.
struct SyncUnit {
  uint64_t bytes = 0;
  SimTime ready_offset = 0;  // from backward start, incl. local aggregation
  int members = 1;           // gradients fused into this unit
  GradientSync plan;
};

struct JobPlan {
  SimTime forward = 0;
  SimTime backward = 0;
  SimTime compute_time = 0;  // single-GPU forward + backward
  int batch_per_gpu = 0;
  double rate = 1.0;  // the configured codec's compression rate
  std::vector<SyncUnit> units;
  // Null unless adaptive compression is enabled; then it owns the plans.
  std::unique_ptr<AdaptiveController> adaptive;

  // Copies the adaptive controller's current plans onto the units.
  void AdoptAdaptivePlans();
  // Adaptive decision at an iteration boundary (the engine is idle): feeds
  // the controller, adopts refreshed plans and swaps the engine's codec.
  AdaptiveDecision Adapt(int iteration, const CpAttribution& attribution,
                         CaSyncEngine* engine);
};

// Prices every gradient of `model` under `config`. SeCoPa consults the cost
// model; baselines compress everything (or nothing) with their fixed
// partitioning rules. Rung 0 of the adaptive ladder is the configured codec,
// so the controller's initial plans equal the fixed ones.
StatusOr<JobPlan> PlanJob(const ModelProfile& model, const SyncConfig& config,
                          const AdaptiveOptions& adaptive);

// The simulated cluster a run executes on: one simulator, one network, one
// sync GPU per node, one metrics registry, plus the span collector (when a
// timeline is recorded) and the always-on flight recorder
// (docs/OBSERVABILITY.md). Callbacks capture its address; do not move it.
struct Fabric {
  Fabric(int num_nodes, const NetworkConfig& net_config,
         bool record_timeline, const ObservabilityOptions& observability);

  // A watchdog over `hub`; a trip dumps the flight recorder.
  std::unique_ptr<HealthMonitor> MakeWatchdog(TimeSeriesHub* hub) const;
  // Publishes the sim.* scheduler gauges and the recorder's counters, and
  // writes the end-of-run dump when a dump path is set.
  void Finish() const;

  ObservabilityOptions observability;
  std::shared_ptr<MetricsRegistry> metrics;
  std::shared_ptr<SpanCollector> spans;
  Simulator sim;
  Network net;
  std::vector<std::unique_ptr<GpuDevice>> gpu_storage;
  std::vector<GpuDevice*> gpus;
  std::shared_ptr<FlightRecorder> flight;
};

// Horovod's ordered collectives: graphs execute one at a time in the order
// they were added, each once it is marked ready and its predecessor has
// finished, after its negotiation delay on the critical path.
class OrderedCollectives {
 public:
  OrderedCollectives(Simulator* sim, CaSyncEngine* engine)
      : sim_(sim), engine_(engine) {}
  // Scheduled callbacks hold `this`.
  OrderedCollectives(const OrderedCollectives&) = delete;
  OrderedCollectives& operator=(const OrderedCollectives&) = delete;

  // Queues `graph`; `on_done` runs when it completes. Returns its index.
  size_t Add(TaskGraph* graph, SimTime negotiation,
             std::function<void()> on_done);
  void MarkReady(size_t index);

 private:
  void Pump();

  struct Entry {
    TaskGraph* graph = nullptr;
    SimTime negotiation = 0;
    std::function<void()> on_done;
    bool ready = false;
  };
  Simulator* sim_;
  CaSyncEngine* engine_;
  std::vector<Entry> entries_;
  size_t next_ = 0;
  bool in_flight_ = false;
};

}  // namespace hipress

#endif  // HIPRESS_SRC_TRAIN_JOB_PLAN_H_
