#include "src/train/cluster_job.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

#include "src/casync/builder.h"
#include "src/casync/engine.h"
#include "src/casync/secopa.h"
#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/compress/registry.h"
#include "src/compress/speed_profile.h"
#include "src/models/model_profile.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"
#include "src/simgpu/gpu.h"
#include "src/strategies/presets.h"

namespace hipress {
namespace {

// Mirrors trainer.cc's SyncUnit: one gradient (or ring fusion bucket).
struct JobUnit {
  uint64_t bytes = 0;
  SimTime ready_offset = 0;  // from backward start, incl. local aggregation
  GradientSync plan;
};

SimTime JobLocalAggregationTime(uint64_t bytes, const SyncConfig& config) {
  const int g = config.gpus_per_node;
  if (g <= 1) {
    return 0;
  }
  const double volume = 2.0 * (g - 1) / g * static_cast<double>(bytes);
  return FromMicros(20.0) +
         static_cast<SimTime>(volume / config.intra_node_bytes_per_sec *
                              static_cast<double>(kSecond));
}

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
  SimTime forward = 0;
  SimTime compute_time = 0;
  int batch_per_gpu = 0;
  std::vector<JobUnit> units;
  std::unique_ptr<CaSyncEngine> engine;
  std::unique_ptr<AdaptiveController> adaptive;
  std::vector<std::unique_ptr<TaskGraph>> graphs;
  int iteration = 0;
  size_t remaining = 0;
  SimTime iter_start = 0;
  ClusterJobReport report;
};

// Adds one job's engine and coordinator counters into the shared registry
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
  if (engine.coordinator() == nullptr) {
    return;
  }
  for (const char* name :
       {"coordinator.batches", "coordinator.transfers_batched",
        "coordinator.batch_bucket_waste_bytes"}) {
    shared->counter(name).Increment(engine.metrics().counter_value(name));
  }
}

uint64_t FnvMix(uint64_t hash, uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    hash ^= (value >> (8 * b)) & 0xffULL;
    hash *= 1099511628211ULL;
  }
  return hash;
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
  const FaultConfig& faults = options.cluster.net.faults;
  if (!faults.crashes.empty() || !faults.membership.empty() ||
      !faults.standby_nodes.empty()) {
    return InvalidArgumentError(
        "multi-job runs model contention, not churn; fault injection is "
        "only supported by single-job SimulateTraining");
  }
  for (const ClusterJobSpec& spec : options.jobs) {
    if (spec.iterations < 1) {
      return InvalidArgumentError("every job needs at least one iteration");
    }
  }

  const std::vector<std::vector<int>> assignment =
      AssignJobNodes(total_nodes, num_jobs, options.placement);

  // -------------------------------------------------------------------
  // Shared fabric: one simulator, one network, one metrics registry.
  // -------------------------------------------------------------------
  auto metrics = std::make_shared<MetricsRegistry>();
  std::shared_ptr<SpanCollector> spans;
  if (options.record_timeline) {
    spans = std::make_shared<SpanCollector>();
  }
  Simulator sim;
  Network net(&sim, total_nodes, options.cluster.net, metrics.get(),
              spans.get());
  std::vector<std::unique_ptr<GpuDevice>> gpu_storage;
  std::vector<GpuDevice*> gpus;
  gpu_storage.reserve(static_cast<size_t>(total_nodes));
  for (int node = 0; node < total_nodes; ++node) {
    gpu_storage.push_back(
        std::make_unique<GpuDevice>(&sim, node, 2, metrics.get()));
    if (options.record_timeline) {
      gpu_storage.back()->set_record_timeline(true);
    }
    gpus.push_back(gpu_storage.back().get());
  }

  // -------------------------------------------------------------------
  // Per-job setup: configs, plans, units, engine, adaptive ladder. This
  // mirrors SimulateTraining's planning path exactly (same codec rates,
  // same SeCoPa scan, same fusion rules) so a solo job here reproduces the
  // single-job trainer's schedule.
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
    if (spec.adaptive.enabled &&
        (!job->plan_config.compression || !job->plan_config.secopa)) {
      return InvalidArgumentError(StrFormat(
          "%s: adaptive compression re-plans the SeCoPa cutoffs; enable "
          "compression with secopa",
          job->prefix.c_str()));
    }

    ASSIGN_OR_RETURN(const ModelProfile model, GetModelProfile(spec.model));
    if (model.gradient_bytes.empty()) {
      return InvalidArgumentError(
          StrFormat("%s: model has no gradients", job->prefix.c_str()));
    }
    const SyncConfig& config = job->plan_config;
    const double compute_scale = ComputeScale(config.platform);
    job->forward = static_cast<SimTime>(
        static_cast<double>(model.forward_time_v100) / compute_scale);
    job->compute_time =
        job->forward + static_cast<SimTime>(static_cast<double>(
                                                model.backward_time_v100) /
                                            compute_scale);
    job->batch_per_gpu = model.batch_per_gpu;

    double rate = 1.0;
    if (config.compression) {
      const std::string codec_name =
          config.codec_impl == CodecImpl::kCompLL
              ? config.algorithm
              : (CompressorRegistry::Instance().Contains("oss-" +
                                                         config.algorithm)
                     ? "oss-" + config.algorithm
                     : config.algorithm);
      ASSIGN_OR_RETURN(auto codec,
                       CreateCompressor(codec_name, config.codec_params));
      rate = codec->CompressionRate(1 << 20);
    }
    SeCoPaPlanner planner(config, rate);
    auto plan_gradient = [&](uint32_t id, uint64_t bytes) {
      GradientSync sync;
      sync.id = id;
      sync.bytes = bytes;
      sync.rate = rate;
      if (!config.compression) {
        sync.compress = false;
        sync.partitions =
            config.strategy == StrategyKind::kRing
                ? std::min<int>(config.num_nodes,
                                std::max<int>(
                                    1, static_cast<int>(bytes /
                                                        (256 * 1024))))
                : std::max<int>(1, static_cast<int>(
                                       bytes / config.ps_partition_bytes));
        sync.partitions = std::max(1, sync.partitions);
        return sync;
      }
      if (config.secopa) {
        const SyncPlan plan = planner.Plan(bytes);
        sync.compress = plan.compress;
        sync.partitions = plan.partitions;
        return sync;
      }
      sync.compress = true;
      sync.partitions =
          config.strategy == StrategyKind::kRing
              ? std::min({config.num_nodes,
                          std::max(1, config.fixed_partitions),
                          std::max<int>(1, static_cast<int>(bytes /
                                                            (256 * 1024)))})
              : std::max<int>(1, static_cast<int>(
                                     bytes / config.ps_partition_bytes));
      return sync;
    };

    if (config.ring_fusion_bytes > 0 &&
        config.strategy == StrategyKind::kRing) {
      uint64_t bucket_bytes = 0;
      SimTime bucket_ready = 0;
      uint32_t bucket_id = 0;
      auto flush = [&]() {
        if (bucket_bytes == 0) {
          return;
        }
        JobUnit unit;
        unit.bytes = bucket_bytes;
        unit.ready_offset =
            bucket_ready + JobLocalAggregationTime(bucket_bytes, config);
        unit.plan = plan_gradient(bucket_id++, bucket_bytes);
        job->units.push_back(unit);
        bucket_bytes = 0;
        bucket_ready = 0;
      };
      for (size_t i = 0; i < model.gradient_bytes.size(); ++i) {
        bucket_bytes += model.gradient_bytes[i];
        bucket_ready = std::max(
            bucket_ready, model.GradientReadyOffset(i, compute_scale));
        if (bucket_bytes >= config.ring_fusion_bytes) {
          flush();
        }
      }
      flush();
    } else {
      for (size_t i = 0; i < model.gradient_bytes.size(); ++i) {
        JobUnit unit;
        unit.bytes = model.gradient_bytes[i];
        unit.ready_offset =
            model.GradientReadyOffset(i, compute_scale) +
            JobLocalAggregationTime(unit.bytes, config);
        unit.plan = plan_gradient(static_cast<uint32_t>(i), unit.bytes);
        job->units.push_back(unit);
      }
    }

    if (spec.adaptive.enabled) {
      std::vector<AdaptiveCodecOption> ladder;
      AdaptiveCodecOption configured;
      configured.algorithm = config.algorithm;
      configured.impl = config.codec_impl;
      configured.rate = rate;
      configured.speed = planner.codec_speed();
      ladder.push_back(configured);
      for (const std::string& name : spec.adaptive.candidate_algorithms) {
        if (name == config.algorithm) {
          continue;
        }
        ASSIGN_OR_RETURN(auto codec, CreateCompressor(name, {}));
        AdaptiveCodecOption option;
        option.algorithm = name;
        option.impl = config.codec_impl;
        option.rate = codec->CompressionRate(1 << 20);
        option.speed =
            GetCodecSpeed(name, config.codec_impl, config.platform);
        ladder.push_back(option);
      }
      std::vector<uint64_t> unit_bytes;
      unit_bytes.reserve(job->units.size());
      for (const JobUnit& unit : job->units) {
        unit_bytes.push_back(unit.bytes);
      }
      job->adaptive = std::make_unique<AdaptiveController>(
          config, spec.adaptive, std::move(unit_bytes), std::move(ladder));
      for (size_t i = 0; i < job->units.size(); ++i) {
        job->units[i].plan = job->adaptive->plans()[i];
      }
    }

    // The engine records into a per-job registry: "engine.*" counters
    // would otherwise merge across jobs on the shared registry and become
    // unattributable. Their sums are published after the run.
    job->report.engine_metrics = std::make_shared<MetricsRegistry>();
    job->engine = std::make_unique<CaSyncEngine>(
        &sim, &net, gpus, job->engine_config,
        job->report.engine_metrics.get(), spans.get());
    job->report.name = job->prefix;
    job->report.model = spec.model;
    job->report.system = spec.system;
    job->report.nodes = job->nodes;
    job->report.compute_time = job->compute_time;
    jobs.push_back(std::move(job));
  }

  // -------------------------------------------------------------------
  // Observability (docs/OBSERVABILITY.md): one cluster-wide black box (a
  // ring per node, all jobs' traffic interleaved) plus a watchdog over the
  // shared fabric — scheduler queue depth, wire-pool misses — and a
  // per-job iteration-stall rule.
  // -------------------------------------------------------------------
  std::shared_ptr<FlightRecorder> flight;
  uint16_t ev_job_iter = 0;
  if (options.observability.flight_recorder) {
    FlightRecorder::Options fr_options;
    fr_options.num_nodes = total_nodes;
    fr_options.events_per_node = options.observability.flight_events_per_node;
    fr_options.dump_path = options.observability.flight_dump_path;
    flight = std::make_shared<FlightRecorder>(fr_options);
    ev_job_iter = flight->Intern("job.iter.end");
    net.set_flight_recorder(flight.get());
    FlightRecorder::InstallGlobal(flight.get());
  }
  TimeSeriesHub hub;
  std::unique_ptr<HealthMonitor> watchdog;
  if (options.observability.watchdog) {
    hub.AttachCounter(metrics.get(), "net.pool_misses");
    hub.AttachGauge(metrics.get(), "sim.queue_depth");
    watchdog =
        std::make_unique<HealthMonitor>(&hub, metrics.get(), flight.get());
    HealthRule queue_blowup;
    queue_blowup.name = "queue_blowup";
    queue_blowup.series = "sim.queue_depth";
    queue_blowup.kind = HealthRuleKind::kAboveMedianFactor;
    queue_blowup.threshold = 4.0;
    watchdog->AddRule(queue_blowup);
    HealthRule pool_misses;
    pool_misses.name = "pool_miss_growth";
    pool_misses.series = "net.pool_misses";
    pool_misses.kind = HealthRuleKind::kAboveValue;
    pool_misses.threshold = 0.0;
    watchdog->AddRule(pool_misses);
    for (const auto& job : jobs) {
      HealthRule stall;
      stall.name = job->prefix + ".stall";
      stall.series = job->prefix + ".iteration_ms";
      stall.kind = HealthRuleKind::kAboveMedianFactor;
      stall.threshold = 3.0;
      watchdog->AddRule(stall);
    }
    watchdog->set_on_trip([&flight](const HealthRule&) {
      if (flight) {
        flight->TriggerDump("watchdog-trip");
      }
    });
  }

  // -------------------------------------------------------------------
  // Event-driven BSP: each job chains its own iterations through simulator
  // events; there is no global drain between iterations, so jobs overlap
  // freely and contend on the shared links.
  // -------------------------------------------------------------------
  int jobs_warm = 0;
  int jobs_done = 0;
  uint64_t steady_miss_baseline = 0;
  bool steady_baseline_set = false;

  std::function<void(Job*)> start_iteration;
  std::function<void(Job*)> finish_iteration;

  start_iteration = [&](Job* job) {
    job->iter_start = sim.now();
    job->remaining = job->units.size();
    job->graphs.clear();
    for (const int node : job->nodes) {
      gpus[node]->SubmitCompute(job->compute_time, [] {});
    }
    for (const JobUnit& unit : job->units) {
      auto graph = std::make_unique<TaskGraph>();
      AppendSyncTasksOver(job->plan_config, unit.plan, job->nodes,
                          graph.get());
      TaskGraph* graph_ptr = graph.get();
      job->graphs.push_back(std::move(graph));
      const SimTime launch_offset =
          job->forward + unit.ready_offset + options.launch_overhead;
      sim.Schedule(launch_offset, [&, job, graph_ptr] {
        job->engine->Execute(graph_ptr, [&, job] {
          if (--job->remaining > 0) {
            return;
          }
          // Barrier: the iteration ends when the last sync lands AND every
          // node's compute has finished (compute can outlast small syncs).
          const SimTime end =
              std::max(sim.now(), job->iter_start + job->compute_time);
          sim.ScheduleAt(end, [&, job] { finish_iteration(job); });
        });
      });
    }
  };

  finish_iteration = [&](Job* job) {
    const SimTime end = sim.now();
    job->report.iteration_end.push_back(end);
    metrics
        ->histogram(job->prefix + ".iteration_ms",
                    HistogramBuckets::Exponential(1.0, 2.0, 16))
        .Observe(ToMillis(end - job->iter_start));
    if (flight) {
      flight->Record(job->nodes.front(), ev_job_iter, end,
                     static_cast<uint64_t>(job->iteration),
                     static_cast<uint64_t>(end - job->iter_start));
    }
    if (watchdog) {
      // Queue depth is sampled mid-run here (other jobs still in flight),
      // so the blowup rule watches genuinely live backlog.
      hub.Series(job->prefix + ".iteration_ms")
          .Observe(end, ToMillis(end - job->iter_start));
      metrics->gauge("sim.queue_depth")
          .Set(static_cast<double>(sim.queue_depth()));
      hub.SampleAll(end);
      watchdog->Evaluate(end);
    }

    std::vector<const TaskGraph*> views;
    views.reserve(job->graphs.size());
    for (const auto& graph : job->graphs) {
      views.push_back(graph.get());
    }
    const IterationAttribution attrib =
        AttributeIteration(views, job->iter_start, end);

    const bool last = job->iteration + 1 == job->spec.iterations;
    if (last) {
      job->report.iteration_time = end - job->iter_start;
      job->report.cp_attribution = attrib.attribution;
      job->report.send_share = attrib.attribution.Share(CpCategory::kSend);
    }

    // Adaptive boundary: this job's graphs have all completed, so its
    // engine is idle even while other jobs' traffic is still in flight —
    // plan swaps cannot touch in-flight state.
    if (job->adaptive) {
      const AdaptiveDecision decision = job->adaptive->Observe(
          job->iteration, attrib.attribution, job->engine->auditor());
      if (decision.replanned) {
        for (size_t i = 0; i < job->units.size(); ++i) {
          job->units[i].plan = job->adaptive->plans()[i];
        }
        if (decision.codec_switched) {
          const AdaptiveCodecOption& codec = job->adaptive->active_codec();
          job->engine->ApplyCodec(codec.algorithm, codec.impl, codec.speed);
        }
      }
    }
    job->graphs.clear();

    if (job->iteration == 0 && ++jobs_warm == num_jobs) {
      // Every pool (scheduler slabs, wire buffers) has now seen a full
      // cluster-wide iteration; later misses indicate unbounded growth.
      steady_miss_baseline = sim.sched_pool_misses();
      steady_baseline_set = true;
    }
    ++job->iteration;
    if (last) {
      if (job->adaptive) {
        job->report.adaptive = job->adaptive->Report();
      }
      ++jobs_done;
      return;
    }
    start_iteration(job);
  };

  for (const auto& job : jobs) {
    start_iteration(job.get());
  }
  sim.Run();

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
  run.spans = spans;
  if (watchdog) {
    run.health = watchdog->Finalize();
  }
  if (flight) {
    flight->PublishMetrics(metrics.get());
    if (!options.observability.flight_dump_path.empty()) {
      flight->TriggerDump("end-of-run");
    }
    run.flight = flight;
  }

  uint64_t fingerprint = 14695981039346656037ULL;
  for (size_t k = 0; k < jobs.size(); ++k) {
    Job& job = *jobs[k];
    AddEngineTotals(*job.engine, metrics.get());
    fingerprint = FnvMix(fingerprint, static_cast<uint64_t>(k));
    for (size_t i = 0; i < job.report.iteration_end.size(); ++i) {
      fingerprint = FnvMix(fingerprint, static_cast<uint64_t>(i));
      fingerprint = FnvMix(
          fingerprint, static_cast<uint64_t>(job.report.iteration_end[i]));
    }

    const double iter_seconds = ToSeconds(job.report.iteration_time);
    if (iter_seconds > 0) {
      job.report.throughput =
          static_cast<double>(job.nodes.size()) *
          options.cluster.gpus_per_node * job.batch_per_gpu / iter_seconds;
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

  metrics->gauge("sim.events_processed")
      .Set(static_cast<double>(run.events_processed));
  metrics->gauge("sim.events_per_wall_second")
      .Set(run.events_per_wall_second);
  metrics->gauge("sim.queue_peak_depth")
      .Set(static_cast<double>(run.queue_peak_depth));
  metrics->gauge("sim.sched_pool_misses")
      .Set(static_cast<double>(run.sched_pool_misses));
  metrics->gauge("sim.steady_sched_pool_misses")
      .Set(static_cast<double>(run.steady_sched_pool_misses));
  return run;
}

}  // namespace hipress
