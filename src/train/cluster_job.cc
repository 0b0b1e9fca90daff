#include "src/train/cluster_job.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/models/model_profile.h"
#include "src/train/job_plan.h"

namespace hipress {
namespace {

// Everything one job needs while the shared simulator runs. Stable address
// (held by unique_ptr) because simulator callbacks capture `Job*`.
struct Job {
  ClusterJobSpec spec;
  std::string prefix;
  std::vector<int> nodes;
  // plan_config sizes the strategy over the job (num_nodes = job size);
  // engine_config addresses the shared cluster (num_nodes = total) so the
  // remapped physical node ids in the task graphs stay in range.
  SyncConfig plan_config;
  SyncConfig engine_config;
  JobPlan plan;
  std::unique_ptr<CaSyncEngine> engine;
  std::unique_ptr<JobSync> sync;
  ClusterJobReport report;
};

// Adds one job's engine and coordinator totals into the shared registry
// under the names a single-job run records them with.
void AddEngineTotals(CaSyncEngine& engine, MetricsRegistry* shared) {
  const EngineStats stats = engine.stats();
  const std::pair<const char*, uint64_t> totals[] = {
      {"engine.encode_tasks", stats.encode_tasks},
      {"engine.decode_tasks", stats.decode_tasks},
      {"engine.merge_tasks", stats.merge_tasks},
      {"engine.send_tasks", stats.send_tasks},
      {"engine.encode_time_ns", static_cast<uint64_t>(stats.encode_time)},
      {"engine.decode_time_ns", static_cast<uint64_t>(stats.decode_time)},
      {"engine.merge_time_ns", static_cast<uint64_t>(stats.merge_time)},
      {"engine.wire_bytes", stats.wire_bytes},
  };
  for (const auto& [name, value] : totals) {
    shared->counter(name).Increment(value);
  }
  const BulkCoordinator* coordinator = engine.coordinator();
  if (coordinator == nullptr) {
    return;
  }
  const std::pair<const char*, uint64_t> batching[] = {
      {"coordinator.batches", coordinator->batches_sent()},
      {"coordinator.transfers_batched", coordinator->transfers_batched()},
      {"coordinator.batch_bucket_waste_bytes",
       coordinator->bucket_waste_bytes()},
  };
  for (const auto& [name, value] : batching) {
    shared->counter(name).Increment(value);
  }
}

}  // namespace

std::vector<std::vector<int>> AssignJobNodes(int num_nodes, int num_jobs,
                                             JobPlacement placement) {
  CHECK_GT(num_jobs, 0);
  CHECK_EQ(num_nodes % num_jobs, 0)
      << "nodes must divide evenly over jobs";
  const int per_job = num_nodes / num_jobs;
  std::vector<std::vector<int>> assignment(
      static_cast<size_t>(num_jobs));
  for (auto& nodes : assignment) {
    nodes.reserve(static_cast<size_t>(per_job));
  }
  if (placement == JobPlacement::kPacked) {
    for (int k = 0; k < num_jobs; ++k) {
      for (int i = 0; i < per_job; ++i) {
        assignment[static_cast<size_t>(k)].push_back(k * per_job + i);
      }
    }
  } else {
    for (int node = 0; node < num_nodes; ++node) {
      assignment[static_cast<size_t>(node % num_jobs)].push_back(node);
    }
  }
  return assignment;
}

StatusOr<ClusterRunReport> RunClusterJobs(const ClusterJobsOptions& options) {
  const int num_jobs = static_cast<int>(options.jobs.size());
  if (num_jobs < 1) {
    return InvalidArgumentError("need at least one job");
  }
  const int total_nodes = options.cluster.num_nodes;
  if (total_nodes < num_jobs || total_nodes % num_jobs != 0) {
    return InvalidArgumentError(
        StrFormat("%d nodes do not divide evenly over %d jobs", total_nodes,
                  num_jobs));
  }
  const int nodes_per_job = total_nodes / num_jobs;
  if (nodes_per_job < 2) {
    return InvalidArgumentError("each job needs at least two nodes");
  }
  for (const ClusterJobSpec& spec : options.jobs) {
    if (spec.iterations < 1) {
      return InvalidArgumentError("every job needs at least one iteration");
    }
  }

  const std::vector<std::vector<int>> assignment =
      AssignJobNodes(total_nodes, num_jobs, options.placement);

  // -------------------------------------------------------------------
  // Per-job setup: the validator and planner SimulateTraining calls (codec
  // rates, SeCoPa scan, fusion buckets, local aggregation, adaptive
  // ladder). A solo job reproduces the single-job trainer's iteration
  // times bit for bit.
  // -------------------------------------------------------------------
  std::vector<std::unique_ptr<Job>> jobs;
  jobs.reserve(static_cast<size_t>(num_jobs));
  for (int k = 0; k < num_jobs; ++k) {
    const ClusterJobSpec& spec = options.jobs[static_cast<size_t>(k)];
    auto job = std::make_unique<Job>();
    job->spec = spec;
    job->prefix =
        spec.name.empty() ? StrFormat("job%d", k) : spec.name;
    job->nodes = assignment[static_cast<size_t>(k)];

    ClusterSpec job_cluster = options.cluster;
    job_cluster.num_nodes = nodes_per_job;
    ASSIGN_OR_RETURN(job->plan_config,
                     MakeSystemConfig(spec.system, job_cluster,
                                      spec.algorithm, spec.codec_params));
    job->engine_config = job->plan_config;
    job->engine_config.num_nodes = total_nodes;
    ASSIGN_OR_RETURN(const ModelProfile model, GetModelProfile(spec.model));
    const Status valid = ValidateJob(
        model, job->plan_config,
        {.adaptive = spec.adaptive.enabled, .cluster_job = true});
    if (!valid.ok()) {
      return InvalidArgumentError(job->prefix + ": " + valid.message());
    }
    ASSIGN_OR_RETURN(job->plan,
                     PlanJob(model, job->plan_config, spec.adaptive));

    job->report.name = job->prefix;
    job->report.model = spec.model;
    job->report.system = spec.system;
    job->report.nodes = job->nodes;
    job->report.compute_time = job->plan.compute_time;
    jobs.push_back(std::move(job));
  }

  // One simulator, one network, one metrics registry for every job. Every
  // preset the validator accepts leaves the cluster's network as it is, so
  // the shared fabric is the one a solo SimulateTraining run builds.
  Fabric fabric(total_nodes, options.cluster.net, options.record_timeline,
                options.observability);
  Simulator& sim = fabric.sim;
  const std::vector<GpuDevice*>& gpus = fabric.gpus;
  const std::shared_ptr<MetricsRegistry>& metrics = fabric.metrics;
  const std::shared_ptr<FlightRecorder>& flight = fabric.flight;
  for (const auto& job : jobs) {
    // The engine records into a per-job registry: "engine.*" counters
    // would otherwise merge across jobs on the shared registry and become
    // unattributable. Their sums are published after the run.
    job->report.engine_metrics = std::make_shared<MetricsRegistry>();
    job->engine = std::make_unique<CaSyncEngine>(
        &sim, &fabric.net, gpus, job->engine_config,
        job->report.engine_metrics.get(), fabric.spans.get());
    job->sync = std::make_unique<JobSync>(
        &fabric, job->engine.get(), job->plan_config, &job->plan,
        JobSync::Options{});
  }

  // -------------------------------------------------------------------
  // Observability (docs/OBSERVABILITY.md): one cluster-wide black box (a
  // ring per node, all jobs' traffic interleaved) plus a watchdog over the
  // shared fabric — scheduler queue depth, wire-pool misses — and a
  // per-job iteration-stall rule.
  // -------------------------------------------------------------------
  const uint16_t ev_job_iter = flight ? flight->Intern("job.iter.end") : 0;
  TimeSeriesHub hub;
  std::unique_ptr<HealthMonitor> watchdog;
  if (options.observability.watchdog) {
    hub.AttachCounter(metrics.get(), "net.pool_misses");
    hub.AttachGauge(metrics.get(), "sim.queue_depth");
    watchdog = fabric.MakeWatchdog(&hub);
    watchdog->AddRule({"queue_blowup", "sim.queue_depth",
                       HealthRuleKind::kAboveMedianFactor, 4.0});
    watchdog->AddRule({"pool_miss_growth", "net.pool_misses",
                       HealthRuleKind::kAboveValue, 0.0});
    for (const auto& job : jobs) {
      watchdog->AddRule({job->prefix + ".stall", job->prefix + ".iteration_ms",
                         HealthRuleKind::kAboveMedianFactor, 3.0});
    }
  }

  // -------------------------------------------------------------------
  // Event-driven BSP: each job's JobSync chains its iterations at their
  // barriers, so jobs overlap freely and contend on the shared links.
  // -------------------------------------------------------------------
  int jobs_warm = 0;
  int jobs_done = 0;
  uint64_t steady_miss_baseline = 0;
  bool steady_baseline_set = false;

  for (const auto& owned : jobs) {
    Job* const job = owned.get();
    job->sync->Drive(
        &job->nodes, job->spec.iterations, /*staleness=*/0,
        [&, job](JobSync::Round& round, std::function<void()> next) {
          const int iteration = round.iteration;
          const SimTime end = round.end;
          const SimTime took = end - round.compute_start;
          job->report.iteration_end.push_back(end);
          metrics
              ->histogram(job->prefix + ".iteration_ms",
                          HistogramBuckets::Exponential(1.0, 2.0, 16))
              .Observe(ToMillis(took));
          if (flight) {
            flight->Record(job->nodes.front(), ev_job_iter, end,
                           static_cast<uint64_t>(iteration),
                           static_cast<uint64_t>(took));
          }
          if (watchdog) {
            // Queue depth is sampled mid-run here (other jobs still in
            // flight), so the blowup rule watches genuinely live backlog.
            hub.Series(job->prefix + ".iteration_ms")
                .Observe(end, ToMillis(took));
            metrics->gauge("sim.queue_depth")
                .Set(static_cast<double>(sim.queue_depth()));
            hub.SampleAll(end);
            watchdog->Evaluate(end);
          }
          // Every graph of this job has completed, so its engine is idle
          // even while other jobs' traffic is still in flight: the
          // adaptive boundary cannot touch in-flight state.
          const IterationAttribution attrib = job->sync->Finish(&round);
          if (iteration + 1 == job->spec.iterations) {
            job->report.iteration_time = took;
            job->report.cp_attribution = attrib.attribution;
            job->report.send_share =
                attrib.attribution.Share(CpCategory::kSend);
            if (job->plan.adaptive) {
              job->report.adaptive = job->plan.adaptive->Report();
            }
            ++jobs_done;
          }
          if (iteration == 0 && ++jobs_warm == num_jobs) {
            // Every pool (scheduler slabs, wire buffers) has now seen a
            // full cluster-wide iteration; later misses indicate unbounded
            // growth.
            steady_miss_baseline = sim.sched_pool_misses();
            steady_baseline_set = true;
          }
          // Once any job lost a peer, no job chains another iteration.
          if (std::ranges::all_of(jobs, [](const std::unique_ptr<Job>& other) {
                return other->engine->failed_nodes().empty();
              })) {
            next();
          }
        });
  }
  sim.Run();

  // A peer the transport declared failed is an error here: its units
  // recovered over the survivors, but a job report has no degraded mode.
  for (const auto& job : jobs) {
    if (!job->engine->failed_nodes().empty()) {
      return UnavailableError(StrFormat(
          "%s: peer %d declared failed (retry budget exhausted); multi-job "
          "runs do not model degraded training",
          job->prefix.c_str(), job->engine->failed_nodes().front()));
    }
  }
  if (jobs_done != num_jobs) {
    return InternalError(
        StrFormat("simulation drained with %d of %d jobs incomplete",
                  num_jobs - jobs_done, num_jobs));
  }

  // -------------------------------------------------------------------
  // Reports, fingerprint, shared-registry gauges.
  // -------------------------------------------------------------------
  ClusterRunReport run;
  run.sim_time = sim.now();
  run.wall_seconds = sim.run_wall_seconds();
  run.events_processed = sim.events_processed();
  run.events_per_wall_second = sim.events_per_wall_second();
  run.queue_peak_depth = sim.queue_peak_depth();
  run.sched_pool_misses = sim.sched_pool_misses();
  run.steady_sched_pool_misses =
      steady_baseline_set ? sim.sched_pool_misses() - steady_miss_baseline
                          : 0;
  run.metrics = metrics;
  run.spans = fabric.spans;
  run.flight = flight;
  if (watchdog) {
    run.health = watchdog->Finalize();
  }
  fabric.Finish();

  uint64_t fingerprint = kFnvOffsetBasis;
  auto mix = [&fingerprint](uint64_t value) {
    fingerprint = Fnv1a(&value, sizeof(value), fingerprint);
  };
  for (size_t k = 0; k < jobs.size(); ++k) {
    Job& job = *jobs[k];
    AddEngineTotals(*job.engine, metrics.get());
    mix(k);
    for (size_t i = 0; i < job.report.iteration_end.size(); ++i) {
      mix(i);
      mix(static_cast<uint64_t>(job.report.iteration_end[i]));
    }

    const double iter_seconds = ToSeconds(job.report.iteration_time);
    if (iter_seconds > 0) {
      job.report.throughput =
          static_cast<double>(job.nodes.size()) *
          options.cluster.gpus_per_node * job.plan.batch_per_gpu /
          iter_seconds;
    }
    metrics->gauge(job.prefix + ".iteration_ms_last")
        .Set(ToMillis(job.report.iteration_time));
    metrics->gauge(job.prefix + ".throughput").Set(job.report.throughput);
    metrics->gauge(job.prefix + ".cp.share.send")
        .Set(job.report.send_share);
    metrics->gauge(job.prefix + ".nodes")
        .Set(static_cast<double>(job.nodes.size()));
    if (job.report.adaptive.enabled) {
      metrics->gauge(job.prefix + ".replans")
          .Set(static_cast<double>(job.report.adaptive.replans));
      metrics->gauge(job.prefix + ".codec_switches")
          .Set(static_cast<double>(job.report.adaptive.codec_switches));
    }
    run.jobs.push_back(std::move(job.report));
  }
  run.replay_fingerprint = fingerprint;
  metrics->gauge("sim.steady_sched_pool_misses")
      .Set(static_cast<double>(run.steady_sched_pool_misses));
  return run;
}

}  // namespace hipress
