#include "src/train/job_plan.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>

#include "src/casync/builder.h"
#include "src/casync/secopa.h"
#include "src/compress/registry.h"
#include "src/compress/speed_profile.h"

namespace hipress {
namespace {

// Per-gradient sync launch overhead (framework negotiation/dispatch).
constexpr SimTime kLaunchOverhead = FromMicros(50.0);

// Intra-node aggregation across the node's `g` GPUs over NVLink/PCIe:
// ring reduce-scatter + allgather inside the node.
SimTime LocalAggregationTime(uint64_t bytes, const SyncConfig& config) {
  const int g = config.gpus_per_node;
  if (g <= 1) {
    return 0;
  }
  const double volume = 2.0 * (g - 1) / g * static_cast<double>(bytes);
  return FromMicros(20.0) +
         static_cast<SimTime>(volume / config.intra_node_bytes_per_sec *
                              static_cast<double>(kSecond));
}

}  // namespace

uint64_t Fnv1a(const void* data, size_t size, uint64_t hash) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  for (size_t b = 0; b < size; ++b) {
    hash ^= bytes[b];
    hash *= 1099511628211ULL;
  }
  return hash;
}

Status ValidateJob(const ModelProfile& model, const SyncConfig& config,
                   const JobFeatures& features) {
  if (model.gradient_bytes.empty()) {
    return InvalidArgumentError("model has no gradients");
  }
  if (config.num_nodes < 1) {
    return InvalidArgumentError("need at least one node");
  }
  const FaultConfig& faults = config.net.faults;
  const bool churn = !faults.crashes.empty() || !faults.membership.empty() ||
                     !faults.standby_nodes.empty();
  if (features.cluster_job && churn) {
    return InvalidArgumentError(
        "multi-job runs model contention, not churn; fault injection is "
        "only supported by single-job SimulateTraining");
  }
  if (features.cluster_job && config.sequential_collectives) {
    return InvalidArgumentError(
        "multi-job runs launch every gradient concurrently; ordered "
        "collectives (sequential_collectives: ring, ring-oss) are only "
        "supported by single-job SimulateTraining");
  }
  if (churn && (features.staleness > 0 || config.sequential_collectives)) {
    return InvalidArgumentError(
        "node-crash recovery and elastic membership are only supported on "
        "the BSP concurrent-collectives path (staleness == 0, "
        "sequential_collectives off)");
  }
  if (churn) {
    RETURN_IF_ERROR(ValidateFaultSchedule(faults, config.num_nodes));
  }
  if (features.adaptive) {
    if (!config.compression || !config.secopa) {
      return InvalidArgumentError(
          "adaptive compression re-plans the SeCoPa cutoffs; enable "
          "compression with secopa");
    }
    if (features.staleness > 0 || config.sequential_collectives) {
      return InvalidArgumentError(
          "adaptive compression swaps plans at BSP iteration boundaries; "
          "it requires staleness == 0 and concurrent collectives");
    }
  }
  return OkStatus();
}

void JobPlan::AdoptAdaptivePlans() {
  for (size_t i = 0; i < units.size(); ++i) {
    units[i].plan = adaptive->plans()[i];
  }
}

AdaptiveDecision JobPlan::Adapt(int iteration,
                                const CpAttribution& attribution,
                                CaSyncEngine* engine) {
  const AdaptiveDecision decision =
      adaptive->Observe(iteration, attribution, engine->auditor());
  if (decision.replanned) {
    AdoptAdaptivePlans();
    if (decision.codec_switched) {
      const AdaptiveCodecOption& codec = adaptive->active_codec();
      engine->ApplyCodec(codec.algorithm, codec.impl, codec.speed);
    }
  }
  return decision;
}

StatusOr<JobPlan> PlanJob(const ModelProfile& model, const SyncConfig& config,
                          const AdaptiveOptions& adaptive) {
  JobPlan job;
  const double compute_scale = ComputeScale(config.platform);
  job.forward = static_cast<SimTime>(
      static_cast<double>(model.forward_time_v100) / compute_scale);
  job.backward = static_cast<SimTime>(
      static_cast<double>(model.backward_time_v100) / compute_scale);
  job.compute_time = job.forward + job.backward;
  job.batch_per_gpu = model.batch_per_gpu;

  if (config.compression) {
    // Rate comes from the real codec so sparse ratios and quantization
    // bitwidths flow through to wire sizes.
    const std::string codec_name =
        config.codec_impl == CodecImpl::kCompLL
            ? config.algorithm
            : (CompressorRegistry::Instance().Contains("oss-" +
                                                       config.algorithm)
                   ? "oss-" + config.algorithm
                   : config.algorithm);
    ASSIGN_OR_RETURN(auto codec,
                     CreateCompressor(codec_name, config.codec_params));
    job.rate = codec->CompressionRate(1 << 20);
  }
  const double rate = job.rate;
  SeCoPaPlanner planner(config, rate);

  auto plan_gradient = [&](uint32_t id, uint64_t bytes) {
    GradientSync sync;
    sync.id = id;
    sync.bytes = bytes;
    sync.rate = rate;
    if (config.compression && config.secopa) {
      const SyncPlan plan = planner.Plan(bytes);
      sync.compress = plan.compress;
      sync.partitions = plan.partitions;
      return sync;
    }
    // Baselines compress everything or nothing. PS baselines keep their
    // size-based slicing (BytePS compresses per 4 MB slice); ring baselines
    // use natural ring chunking, capped so small gradients are not shredded
    // into sub-header chunks, and compressed ones at fixed_partitions.
    sync.compress = config.compression;
    const int ring_cap = config.compression
                             ? std::max(1, config.fixed_partitions)
                             : config.num_nodes;
    sync.partitions =
        config.strategy == StrategyKind::kRing
            ? std::min({config.num_nodes, ring_cap,
                        std::max<int>(1, static_cast<int>(bytes /
                                                          (256 * 1024)))})
            : std::max<int>(1, static_cast<int>(
                                   bytes / config.ps_partition_bytes));
    return sync;
  };

  // Sync units: per gradient, or per fusion bucket for Horovod-style ring.
  if (config.ring_fusion_bytes > 0 &&
      config.strategy == StrategyKind::kRing) {
    uint64_t bucket_bytes = 0;
    SimTime bucket_ready = 0;
    uint32_t bucket_id = 0;
    int bucket_members = 0;
    auto flush = [&]() {
      if (bucket_bytes == 0) {
        return;
      }
      SyncUnit unit;
      unit.bytes = bucket_bytes;
      unit.ready_offset =
          bucket_ready + LocalAggregationTime(bucket_bytes, config);
      unit.members = bucket_members;
      unit.plan = plan_gradient(bucket_id++, bucket_bytes);
      job.units.push_back(unit);
      bucket_bytes = 0;
      bucket_ready = 0;
      bucket_members = 0;
    };
    for (size_t i = 0; i < model.gradient_bytes.size(); ++i) {
      bucket_bytes += model.gradient_bytes[i];
      ++bucket_members;
      bucket_ready =
          std::max(bucket_ready, model.GradientReadyOffset(i, compute_scale));
      if (bucket_bytes >= config.ring_fusion_bytes) {
        flush();
      }
    }
    flush();
  } else {
    for (size_t i = 0; i < model.gradient_bytes.size(); ++i) {
      SyncUnit unit;
      unit.bytes = model.gradient_bytes[i];
      unit.ready_offset = model.GradientReadyOffset(i, compute_scale) +
                          LocalAggregationTime(unit.bytes, config);
      unit.plan = plan_gradient(static_cast<uint32_t>(i), unit.bytes);
      job.units.push_back(unit);
    }
  }

  if (!adaptive.enabled) {
    return job;
  }
  std::vector<AdaptiveCodecOption> ladder;
  AdaptiveCodecOption configured;
  configured.algorithm = config.algorithm;
  configured.impl = config.codec_impl;
  configured.rate = rate;
  configured.speed = planner.codec_speed();
  ladder.push_back(configured);
  for (const std::string& name : adaptive.candidate_algorithms) {
    if (name == config.algorithm) {
      continue;
    }
    ASSIGN_OR_RETURN(auto codec, CreateCompressor(name, {}));
    AdaptiveCodecOption option;
    option.algorithm = name;
    option.impl = config.codec_impl;
    option.rate = codec->CompressionRate(1 << 20);
    option.speed = GetCodecSpeed(name, config.codec_impl, config.platform);
    ladder.push_back(option);
  }
  std::vector<uint64_t> unit_bytes;
  unit_bytes.reserve(job.units.size());
  for (const SyncUnit& unit : job.units) {
    unit_bytes.push_back(unit.bytes);
  }
  job.adaptive = std::make_unique<AdaptiveController>(
      config, adaptive, std::move(unit_bytes), std::move(ladder));
  job.AdoptAdaptivePlans();
  return job;
}

Fabric::Fabric(int num_nodes, const NetworkConfig& net_config,
               bool record_timeline,
               const ObservabilityOptions& observability_options)
    : observability(observability_options),
      metrics(std::make_shared<MetricsRegistry>()),
      spans(record_timeline ? std::make_shared<SpanCollector>() : nullptr),
      net(&sim, num_nodes, net_config, metrics.get(), spans.get()) {
  for (int node = 0; node < num_nodes; ++node) {
    gpu_storage.push_back(
        std::make_unique<GpuDevice>(&sim, node, 2, metrics.get()));
    gpu_storage.back()->set_record_timeline(record_timeline);
    gpus.push_back(gpu_storage.back().get());
  }
  // The black box: every net send/delivery, transport retry and iteration
  // event appends a 24-byte record to the owning node's ring. Installed as
  // the process fatal hook so a CHECK failure dumps the rings first.
  if (observability.flight_recorder) {
    FlightRecorder::Options options;
    options.num_nodes = num_nodes;
    options.dump_path = observability.flight_dump_path;
    flight = std::make_shared<FlightRecorder>(options);
    net.set_flight_recorder(flight.get());
    FlightRecorder::InstallGlobal(flight.get());
  }
}

std::unique_ptr<HealthMonitor> Fabric::MakeWatchdog(
    TimeSeriesHub* hub) const {
  auto watchdog =
      std::make_unique<HealthMonitor>(hub, metrics.get(), flight.get());
  // A trip is exactly the moment the black box exists for.
  watchdog->set_on_trip([recorder = flight](const HealthRule&) {
    if (recorder) {
      recorder->TriggerDump("watchdog-trip");
    }
  });
  return watchdog;
}

void Fabric::Finish() const {
  // Scheduler health (docs/TOPOLOGY.md): event volume, sustained event
  // rate and peak queue depth of the run, plus pool misses — the
  // calendar-queue arena should stop allocating once warm.
  metrics->gauge("sim.events_processed")
      .Set(static_cast<double>(sim.events_processed()));
  metrics->gauge("sim.events_per_wall_second")
      .Set(sim.events_per_wall_second());
  metrics->gauge("sim.queue_peak_depth")
      .Set(static_cast<double>(sim.queue_peak_depth()));
  metrics->gauge("sim.sched_pool_misses")
      .Set(static_cast<double>(sim.sched_pool_misses()));
  if (flight) {
    flight->PublishMetrics(metrics.get());
    if (!observability.flight_dump_path.empty()) {
      flight->TriggerDump("end-of-run");
    }
  }
}

JobSync::JobSync(Fabric* fabric, CaSyncEngine* engine,
                 const SyncConfig& config, JobPlan* plan, Options options)
    : sim_(&fabric->sim),
      gpus_(fabric->gpus),
      engine_(engine),
      config_(config),
      plan_(plan),
      options_(options) {
  if (options_.straggler_node >= 0 &&
      options_.straggler_node < config.num_nodes &&
      options_.straggler_factor > 1.0) {
    stretch_ = options_.straggler_factor;
  }
  slowest_compute_ = static_cast<SimTime>(
      static_cast<double>(plan->compute_time) * stretch_);
}

void JobSync::Drive(const std::vector<int>* members, int iterations,
                    int staleness, Step step) {
  members_ = members;
  staleness_ = staleness;
  step_ = std::move(step);
  released_.assign(static_cast<size_t>(iterations), false);
  StartReady();
}

void JobSync::StartReady() {
  while (started_ < std::ssize(released_) &&
         (started_ <= staleness_ || released_[started_ - 1 - staleness_])) {
    Start(started_++);
  }
}

void JobSync::Start(int iteration) {
  std::erase_if(rounds_, [this](const std::unique_ptr<Round>& round) {
    return round->remaining == 0 && round.get() != completing_;
  });
  Round* round = rounds_.emplace_back(std::make_unique<Round>()).get();
  round->iteration = iteration;
  // Failed or departed nodes neither compute nor synchronize.
  round->nodes = Alive(*members_);
  // Compute queues FIFO on each device: the lead node's compute starts
  // when its stream frees up.
  const int lead = std::ranges::count(round->nodes, options_.straggler_node)
                       ? options_.straggler_node
                       : round->nodes.front();
  const SimTime compute_start = round->compute_start = std::max(
      sim_->now(), gpus_[lead]->stream_free_at(GpuDevice::kComputeStream));
  for (const int node : round->nodes) {
    gpus_[node]->SubmitCompute(node == options_.straggler_node
                                   ? slowest_compute_
                                   : plan_->compute_time,
                               [] {});
  }
  // CaSync: every gradient's graph launches the moment it is ready, and
  // graphs execute concurrently and pipeline. Horovod's ordered
  // collectives instead run unit i+1 only after unit i finished AND its
  // own gradients are ready.
  const std::vector<SyncUnit>& units = plan_->units;
  round->remaining = units.size();
  for (size_t i = 0; i < units.size(); ++i) {
    TaskGraph* graph = Build(round, i, round->nodes);
    const SimTime launch_at =
        compute_start +
        static_cast<SimTime>(
            static_cast<double>(plan_->forward + units[i].ready_offset) *
            stretch_) +
        kLaunchOverhead;
    const SimTime when = std::max(launch_at, sim_->now());
    if (config_.sequential_collectives) {
      Queued* queued = &queue_.emplace_back(Queued{
          round, i, graph, units[i].members * config_.per_gradient_negotiation});
      sim_->ScheduleAt(when, [this, queued] {
        queued->ready = true;
        Pump();
      });
      continue;
    }
    sim_->ScheduleAt(when,
                     [this, round, i, graph] { Launch(round, i, graph); });
  }
}

TaskGraph* JobSync::Build(Round* round, size_t unit,
                          const std::vector<int>& nodes) {
  TaskGraph* graph =
      round->graphs.emplace_back(std::make_unique<TaskGraph>()).get();
  AppendSyncTasksOver(config_, plan_->units[unit].plan, nodes, graph);
  return graph;
}

std::vector<int> JobSync::Alive(const std::vector<int>& nodes) const {
  std::vector<int> alive;
  std::ranges::copy_if(nodes, std::back_inserter(alive), [this](int node) {
    return !engine_->node_failed(node);
  });
  return alive;
}

void JobSync::Launch(Round* round, size_t unit, TaskGraph* graph) {
  engine_->Execute(graph, [this, round, unit](const Status& status) {
    if (status.ok()) {
      UnitSynced(round);
      return;
    }
    // Peer failure: rebuild this unit's topology over the surviving
    // participants and run it again, so the iteration completes degraded
    // instead of hanging or counting the cancelled graph as done.
    if (round->recovery_started_at < 0) {
      round->recovery_started_at = sim_->now();
    }
    ++recoveries_;
    Launch(round, unit, Build(round, unit, Alive(round->nodes)));
  });
}

void JobSync::UnitSynced(Round* round) {
  if (config_.sequential_collectives) {
    queue_.pop_front();
    in_flight_ = false;
  }
  if (--round->remaining == 0) {
    round->sync_end = sim_->now();
    round->end =
        std::max(round->sync_end, round->compute_start + slowest_compute_);
    auto close = [this, round] {
      Round* const outer = std::exchange(completing_, round);
      step_(*round, [this, iteration = round->iteration] {
        released_[iteration] = true;
        StartReady();
      });
      completing_ = outer;
    };
    if (staleness_ > 0) {
      close();
    } else {
      sim_->ScheduleAt(round->end, close);
    }
  }
  if (config_.sequential_collectives) {
    Pump();
  }
}

void JobSync::Pump() {
  if (in_flight_ || queue_.empty() || !queue_.front().ready) {
    return;
  }
  in_flight_ = true;
  const Queued& next = queue_.front();
  // Per-tensor negotiation happens on the critical path between
  // collectives (Horovod's coordination cycle).
  sim_->Schedule(next.negotiation,
                 [this, round = next.round, unit = next.unit,
                  graph = next.graph] { Launch(round, unit, graph); });
}

IterationAttribution JobSync::Finish(Round* round,
                                     AdaptiveDecision* decision) {
  std::vector<const TaskGraph*> views;
  views.reserve(round->graphs.size());
  for (const auto& graph : round->graphs) {
    views.push_back(graph.get());
  }
  const IterationAttribution attrib =
      AttributeIteration(views, round->compute_start, round->end);
  if (plan_->adaptive) {
    // The job's graphs have all completed, so its engine is idle: refreshed
    // plans and a codec swap cannot touch in-flight graphs or pooled wire
    // buffers. The next iteration builds from the refreshed plans.
    const AdaptiveDecision made =
        plan_->Adapt(round->iteration, attrib.attribution, engine_);
    if (decision != nullptr) {
      *decision = made;
    }
  }
  std::erase_if(rounds_, [round](const std::unique_ptr<Round>& owned) {
    return owned.get() == round;
  });
  return attrib;
}

}  // namespace hipress
