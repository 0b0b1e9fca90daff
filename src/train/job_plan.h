// What SimulateTraining and RunClusterJobs share (internal to src/train):
// the feature-combination validator, the per-job gradient plan (SeCoPa's
// <compress?, K>, fusion buckets, local aggregation, the adaptive ladder),
// the simulated fabric a run executes on, and the iteration chain with its
// sync graphs (JobSync: drive, build, launch, recovery, attribution). Both
// entry points call these, so a gradient is priced and launched the same
// way whichever loop runs it.
#ifndef HIPRESS_SRC_TRAIN_JOB_PLAN_H_
#define HIPRESS_SRC_TRAIN_JOB_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/casync/adaptive.h"
#include "src/casync/config.h"
#include "src/casync/critical_path.h"
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
  // collectives only (the ordered-collectives presets derate the network,
  // and every job shares one).
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

// One job's iteration chain: what SimulateTraining's BSP and SSP loops and
// RunClusterJobs all run. Drive() chains the iterations through simulator
// events. Each submits its forward + backward, builds one task graph per
// sync unit over the participants and launches each when its gradients
// are ready: concurrently (CaSync) or in unit order through Horovod's
// ordered collectives. One launcher rebuilds a graph cancelled by a peer
// failure over the survivors and runs it again, so a unit counts as
// synchronized only once one of its graphs completed. Finish() closes an
// iteration: critical-path attribution over its graphs (recovery rebuilds
// included), the adaptive boundary, and the graphs' release.
class JobSync {
 public:
  struct Options {
    // Node `straggler_node` computes `straggler_factor` times slower; its
    // shard gates every aggregation, so launches follow its timeline.
    int straggler_node = -1;
    double straggler_factor = 1.0;
  };

  struct Round {
    int iteration = 0;
    std::vector<int> nodes;  // the members found not failed at the start
    // When the lead node's compute starts (the straggler's, when it takes
    // part); every launch keys off it.
    SimTime compute_start = 0;
    SimTime sync_end = 0;  // when the last unit synchronized (0 until then)
    // The BSP barrier: the last unit synchronized AND the slowest node's
    // compute finished (compute can outlast small syncs).
    SimTime end = 0;
    SimTime recovery_started_at = -1;  // first cancellation (-1: none)
    // One graph per unit, then every recovery rebuild.
    std::vector<std::unique_ptr<TaskGraph>> graphs;
    size_t remaining = 0;  // units not yet synchronized
  };

  // Closes an iteration: BSP (staleness 0) in an event at its barrier,
  // round.end; SSP inside its last unit's completion. Calling `next`, now
  // or from a later event, releases it to the chain; never calling it
  // stops the job.
  using Step = std::function<void(Round& round, std::function<void()> next)>;

  // `config` sizes the graphs' strategy; it and `plan`, whose units each
  // iteration is built from, must outlive this object.
  JobSync(Fabric* fabric, CaSyncEngine* engine, const SyncConfig& config,
          JobPlan* plan, Options options);
  // Scheduled callbacks hold `this` and the rounds.
  JobSync(const JobSync&) = delete;
  JobSync& operator=(const JobSync&) = delete;

  // Runs `iterations` iterations over `*members`, which is read at each
  // start and must outlive the run; starts what the bound admits now.
  // Iteration k starts once iteration k-1-staleness was released. A round
  // no longer in flight is freed at the next start, or by Finish().
  void Drive(const std::vector<int>* members, int iterations, int staleness,
             Step step);
  // Closes a synchronized iteration: attributes [compute_start, end),
  // runs the adaptive decision (stored in `decision` when non-null) and
  // frees the round. Only from a BSP step.
  IterationAttribution Finish(Round* round,
                              AdaptiveDecision* decision = nullptr);

  // Unit graphs rebuilt over survivors after a cancellation, whole run.
  uint64_t recoveries() const { return recoveries_; }

 private:
  struct Queued {
    Round* round = nullptr;
    size_t unit = 0;
    TaskGraph* graph = nullptr;
    SimTime negotiation = 0;
    bool ready = false;
  };

  // Starts every iteration the staleness bound admits.
  void StartReady();
  void Start(int iteration);
  // Appends unit `unit`'s graph over `nodes` to the round's graphs.
  TaskGraph* Build(Round* round, size_t unit, const std::vector<int>& nodes);
  // `nodes` minus those the transport declared failed.
  std::vector<int> Alive(const std::vector<int>& nodes) const;
  void Launch(Round* round, size_t unit, TaskGraph* graph);
  void UnitSynced(Round* round);
  void Pump();

  Simulator* sim_;
  const std::vector<GpuDevice*>& gpus_;
  CaSyncEngine* engine_;
  const SyncConfig& config_;
  JobPlan* plan_;
  Options options_;
  double stretch_ = 1.0;
  SimTime slowest_compute_ = 0;
  uint64_t recoveries_ = 0;
  // The drive: view, bound, step, iterations started and released.
  const std::vector<int>* members_ = nullptr;
  int staleness_ = 0;
  Step step_;
  int started_ = 0;
  std::vector<bool> released_;
  std::vector<std::unique_ptr<Round>> rounds_;
  Round* completing_ = nullptr;  // whose step is running
  // Ordered collectives: the front is in flight or next. A deque, so the
  // scheduled MarkReady events' pointers survive pushes and pops.
  std::deque<Queued> queue_;
  bool in_flight_ = false;
};

}  // namespace hipress

#endif  // HIPRESS_SRC_TRAIN_JOB_PLAN_H_
