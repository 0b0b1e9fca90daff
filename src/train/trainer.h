// Data-parallel training-loop simulator.
//
// Drives one model profile over the simulated cluster under a SyncConfig:
// every node runs forward+backward on its GPU; gradients become available
// back-to-front during backward (after intra-node local aggregation across
// the node's GPUs, Section 5); each gradient's synchronization task graph
// launches the moment it is ready, so communication and compression overlap
// the remaining backward computation. An iteration ends when every
// gradient has been synchronized on every node (BSP barrier).
//
// Reports the metrics the evaluation section uses: throughput
// (samples/sec), scaling efficiency, communication ratio, and the
// computation/synchronization latency breakdown of Figure 11.
#ifndef HIPRESS_SRC_TRAIN_TRAINER_H_
#define HIPRESS_SRC_TRAIN_TRAINER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/casync/adaptive.h"
#include "src/casync/config.h"
#include "src/casync/critical_path.h"
#include "src/casync/engine.h"
#include "src/casync/secopa.h"
#include "src/common/flight_recorder.h"
#include "src/common/metrics.h"
#include "src/common/profiler.h"
#include "src/common/watchdog.h"
#include "src/common/status.h"
#include "src/models/model_profile.h"
#include "src/simgpu/gpu.h"

namespace hipress {

struct TrainOptions {
  int iterations = 2;           // the last iteration is the measured one
  // Record every node's GPU intervals plus network/coordinator trace spans,
  // enabling the merged Perfetto export (WriteTrainReportTrace); the
  // node-0 timeline also feeds Figure 9.
  bool record_timeline = false;
  // Straggler injection: node `straggler_node` computes
  // `straggler_factor` times slower (its gradients — which every
  // aggregation needs — arrive late, stretching BSP and SSP iterations).
  int straggler_node = -1;
  double straggler_factor = 1.0;
  // Bounded staleness (SSP, the paper's Section 7 extension): iteration k
  // may start computing once iteration k-1-staleness has fully
  // synchronized, so up to `staleness`+1 iterations pipeline. 0 = BSP.
  // With staleness > 0 the report carries average iteration time and
  // throughput; the per-iteration breakdown fields are zero.
  int staleness = 0;
  // Runtime-adaptive compression (docs/ADAPTIVE.md): when enabled, an
  // AdaptiveController observes every iteration's critical-path
  // attribution and the engine's measured send latencies, and re-plans
  // codec/ratio/cutoffs at iteration boundaries. Requires compression with
  // SeCoPa on the BSP path (staleness == 0, concurrent collectives).
  AdaptiveOptions adaptive;
  // Always-on flight recorder + health watchdog (docs/OBSERVABILITY.md).
  ObservabilityOptions observability;
};

// Elastic-membership summary (docs/FAULT_TOLERANCE.md): the epoch-numbered
// transition history, donor re-sync accounting, and the post-quiesce model
// state check the chaos-soak gate relies on. `enabled` is set when the
// fault schedule carries membership events or standby nodes.
struct MembershipReport {
  bool enabled = false;
  uint64_t final_epoch = 0;
  std::vector<int> final_members;
  uint64_t joins = 0;
  uint64_t leaves = 0;
  uint64_t crashes = 0;
  uint64_t rejoins = 0;
  // Donor state transfers (joins + rejoins) over the pooled wire path.
  uint64_t resyncs = 0;
  uint64_t resync_bytes = 0;
  // Total simulated time spent in drain + re-sync windows.
  SimTime resync_time = 0;
  // Node-iterations computed by nodes that crashed and later rejoined —
  // nonzero proves a rejoined node contributed to training again.
  uint64_t rejoined_contributions = 0;
  // MembershipManager::LogString(): one line per transition, reproduced
  // byte-for-byte by a replay with the same fault schedule.
  std::string event_log;
  // FNV-1a over the lowest-id final member's model state. Bit-identical to
  // the churn-free run with the same seed and iteration count once every
  // transition has quiesced.
  uint64_t model_fingerprint = 0;
  // All final members hold bit-identical, valid model state.
  bool state_consistent = false;
};

struct TrainReport {
  SimTime iteration_time = 0;
  SimTime compute_time = 0;  // single-GPU forward+backward
  // Time after backward completes until the last gradient is synchronized
  // (the non-hidden communication the paper's pipelining fights).
  SimTime sync_tail = 0;
  double throughput = 0.0;          // cluster samples (or tokens)/sec
  double scaling_efficiency = 0.0;  // vs. linear scaling of one GPU
  // Fraction of the iteration covered by the synchronization window (first
  // sync launch to last completion) — the paper's communication-time ratio.
  double comm_ratio = 0.0;
  // Node-0 uplink busy share (pure wire-serialization view).
  double network_busy_ratio = 0.0;
  // Node-0 downlink (receive-side) busy share.
  double rx_busy_ratio = 0.0;
  int total_gpus = 0;
  // --- fault tolerance (docs/FAULT_TOLERANCE.md) -------------------------
  // True when at least one node was declared failed during the run; the
  // remaining iterations (and the throughput above) ran degraded over the
  // survivors.
  bool degraded = false;
  std::vector<int> failed_nodes;  // detection order
  int surviving_nodes = 0;
  // Sync-unit task graphs rebuilt over the survivors after a cancellation.
  uint64_t recoveries = 0;
  // Total simulated time spent inside recovery windows (first failure
  // detection in an iteration to that iteration's completion).
  SimTime recovery_time = 0;
  // Engine-side accounting for the measured iteration: primitive counts,
  // modelled kernel time, and bytes on the wire (sums over all nodes).
  EngineStats engine_stats;
  // Critical-path wall-time attribution of the measured iteration
  // (src/casync/critical_path.h); sums to iteration_time on the BSP path,
  // all-zero under SSP (pipelined iterations have no single bounding
  // chain). Also exported as "cp.<category>_ms" / "cp.share.<category>"
  // gauges in `metrics`.
  CpAttribution cp_attribution;
  // One StepRecord per BSP iteration (including warm-up), ready for
  // WriteStepReport (`train_cluster --step-report`). Empty under SSP.
  std::vector<StepRecord> steps;
  // Elastic-membership lifecycle summary; also exported as the
  // "membership.*" metrics family.
  MembershipReport membership;
  // Adaptive-controller summary (enabled == false when the run was fixed):
  // one decision per iteration, replan/switch counts, and the
  // deterministic decision log replays must reproduce byte-for-byte.
  AdaptiveReport adaptive;
  // Interpolated percentiles of the per-iteration "train.iteration_ms"
  // histogram over the whole run.
  double iteration_p50_ms = 0.0;
  double iteration_p95_ms = 0.0;
  double iteration_p99_ms = 0.0;
  std::vector<GpuInterval> timeline;  // node-0 device (if recorded)
  SimTime timeline_origin = 0;        // measured iteration's start time
  // Full run observability. `metrics` is always populated: the engine,
  // network, coordinator and GPU counters plus the trainer's per-iteration
  // histograms ("train.iteration_ms", ...), whole-run totals (not deltas).
  // `spans` and `node_timelines` are populated when record_timeline is set
  // and feed the merged Perfetto trace (one track per node).
  std::shared_ptr<MetricsRegistry> metrics;
  std::shared_ptr<SpanCollector> spans;
  std::vector<std::vector<GpuInterval>> node_timelines;
  // Watchdog verdict over the run (health.* metrics mirror it); enabled is
  // false when options.observability.watchdog was off or the run was SSP.
  HealthReport health;
  // The run's black box, still holding every ring (BSP path, recorder on).
  // Callers can Dump() it after the fact; train_cluster --flight-record
  // wires the dump path through ObservabilityOptions instead.
  std::shared_ptr<FlightRecorder> flight;
};

// Runs the simulation; deterministic for fixed inputs.
StatusOr<TrainReport> SimulateTraining(const ModelProfile& model,
                                       const SyncConfig& config,
                                       const TrainOptions& options = {});

}  // namespace hipress

#endif  // HIPRESS_SRC_TRAIN_TRAINER_H_
