// Multi-job cluster simulation (docs/TOPOLOGY.md).
//
// RunClusterJobs instantiates K independent training jobs — each with its
// own model, sync system, codec, task-graph engine and (optionally) adaptive
// controller — over disjoint node subsets of ONE simulated cluster: a single
// Simulator drives a single Network, so every job's traffic contends for the
// same links. Under a flat topology jobs only collide at their own endpoint
// NICs; under an oversubscribed fat tree with striped placement, jobs share
// ToR uplinks and the cross-job interference the multi-tenant-cluster
// literature analyzes (PAPERS.md, "On the Utility of Gradient Compression")
// becomes measurable: per-job iteration times stretch versus a solo run,
// critical-path send shares rise, and each job's AdaptiveController reacts
// to bandwidth it actually observes.
//
// Each job is a BSP loop chained through simulator events (no per-iteration
// drain): its JobSync (src/train/job_plan.h) runs an iteration over the
// job's global node ids, and the barrier event starts the next. Per-job
// results surface in ClusterJobReport and as "job<k>.*" gauges.
#ifndef HIPRESS_SRC_TRAIN_CLUSTER_JOB_H_
#define HIPRESS_SRC_TRAIN_CLUSTER_JOB_H_

#include <memory>
#include <string>
#include <vector>

#include "src/casync/adaptive.h"
#include "src/casync/critical_path.h"
#include "src/common/flight_recorder.h"
#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/common/watchdog.h"
#include "src/compress/compressor.h"
#include "src/strategies/presets.h"

namespace hipress {

struct ClusterJobSpec {
  // Metrics prefix and display name; defaults to "job<k>" when empty.
  std::string name;
  std::string model = "resnet50";
  std::string system = "hipress-ps";
  std::string algorithm = "onebit";
  CompressorParams codec_params;
  int iterations = 3;
  // Per-job runtime-adaptive compression (docs/ADAPTIVE.md); each job runs
  // its own controller against its own engine's measurements.
  AdaptiveOptions adaptive;
};

enum class JobPlacement {
  // Contiguous node blocks: job k gets nodes [k*S, (k+1)*S). Under a fat
  // tree, jobs mostly own whole racks and meet only on the spine.
  kPacked,
  // Round-robin striping: job k gets nodes {k, k+K, k+2K, ...}. Every rack
  // hosts every job, so oversubscribed ToR uplinks are genuinely shared —
  // the adversarial multi-tenancy layout (the default).
  kStriped,
};

struct ClusterJobsOptions {
  // cluster.num_nodes is the whole cluster; nodes divide evenly over jobs.
  ClusterSpec cluster;
  std::vector<ClusterJobSpec> jobs;
  JobPlacement placement = JobPlacement::kStriped;
  bool record_timeline = false;
  // Flight recorder + watchdog (docs/OBSERVABILITY.md). The recorder spans
  // the whole cluster (one ring per node); watchdog rules cover the shared
  // scheduler/network plus a per-job iteration-stall rule.
  ObservabilityOptions observability;
};

struct ClusterJobReport {
  std::string name;
  std::string model;
  std::string system;
  std::vector<int> nodes;
  SimTime compute_time = 0;
  SimTime iteration_time = 0;  // final (steady-state) iteration
  double throughput = 0.0;     // job samples/sec over the final iteration
  // Critical-path attribution of the final iteration and its send share —
  // the cross-job contention signal.
  CpAttribution cp_attribution;
  double send_share = 0.0;
  AdaptiveReport adaptive;
  // Absolute completion time of every BSP iteration; the replay
  // fingerprint hashes these, so two runs from the same seed must match
  // bit-for-bit.
  std::vector<SimTime> iteration_end;
  // This job's engine registry ("engine.*", "coordinator.*"): per-job
  // attribution. The run's shared registry holds the sums over all jobs.
  std::shared_ptr<MetricsRegistry> engine_metrics;
};

struct ClusterRunReport {
  std::vector<ClusterJobReport> jobs;
  SimTime sim_time = 0;
  double wall_seconds = 0.0;
  // Scheduler health (also published as "sim.*" gauges on `metrics`).
  uint64_t events_processed = 0;
  double events_per_wall_second = 0.0;
  uint64_t queue_peak_depth = 0;
  uint64_t sched_pool_misses = 0;
  // Event-record pool misses after every job finished its first iteration;
  // zero in steady state (the invariant bench_sim_scale gates).
  uint64_t steady_sched_pool_misses = 0;
  // FNV-1a over every job's per-iteration completion times. Machine
  // independent: simulated nanoseconds only.
  uint64_t replay_fingerprint = 0;
  std::shared_ptr<MetricsRegistry> metrics;
  std::shared_ptr<SpanCollector> spans;
  // Watchdog verdict over the whole run (health.* gauges mirror it).
  HealthReport health;
  // Cluster-wide black box (one ring per node, all jobs' traffic).
  std::shared_ptr<FlightRecorder> flight;
};

// Node subsets for `num_jobs` jobs over `num_nodes` nodes (must divide
// evenly; every job gets num_nodes / num_jobs nodes).
std::vector<std::vector<int>> AssignJobNodes(int num_nodes, int num_jobs,
                                             JobPlacement placement);

// Runs every job to completion on one shared cluster; deterministic for
// fixed options. Jobs are validated, planned and synchronized by the code
// SimulateTraining uses (src/train/job_plan.h). Crash and membership
// faults and sequential_collectives systems (ring, ring-oss) are rejected:
// multi-job runs model contention, not churn, on one shared network. Under
// message loss, a peer declared failed (retry budget exhausted) stops
// every job at its next barrier and makes the run return UNAVAILABLE
// naming the job and the peer: a job report has no degraded mode.
StatusOr<ClusterRunReport> RunClusterJobs(const ClusterJobsOptions& options);

}  // namespace hipress

#endif  // HIPRESS_SRC_TRAIN_CLUSTER_JOB_H_
