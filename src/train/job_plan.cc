#include "src/train/job_plan.h"

#include <algorithm>
#include <string>

#include "src/casync/secopa.h"
#include "src/common/string_util.h"
#include "src/compress/registry.h"
#include "src/compress/speed_profile.h"

namespace hipress {
namespace {

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

// Static feasibility walk over the crash + membership schedule: joins only
// admit non-members, leaves only remove members, rejoins need a prior
// crash, and the view never empties. Detection timing is dynamic, but the
// node sets are decidable up front.
Status ValidateMembershipSchedule(int num_nodes, const FaultConfig& faults) {
  std::vector<bool> standby(static_cast<size_t>(num_nodes), false);
  for (const int node : faults.standby_nodes) {
    if (node < 0 || node >= num_nodes) {
      return InvalidArgumentError(
          StrFormat("standby node %d out of range", node));
    }
    if (standby[node]) {
      return InvalidArgumentError(
          StrFormat("standby node %d listed twice", node));
    }
    standby[node] = true;
  }
  std::vector<bool> member(static_cast<size_t>(num_nodes), false);
  std::vector<bool> crashed(static_cast<size_t>(num_nodes), false);
  int members = 0;
  for (int node = 0; node < num_nodes; ++node) {
    member[node] = !standby[node];
    members += member[node] ? 1 : 0;
  }
  if (members == 0) {
    return InvalidArgumentError("every node is standby");
  }
  struct WalkEvent {
    SimTime at = 0;
    int order = 0;  // crashes sort before membership events at equal time
    int node = -1;
    MembershipEventKind kind = MembershipEventKind::kJoin;
  };
  std::vector<WalkEvent> walk;
  for (const NodeCrash& crash : faults.crashes) {
    walk.push_back(WalkEvent{crash.at, 0, crash.node, {}});
  }
  for (const MembershipEvent& event : faults.membership) {
    if (event.node < 0 || event.node >= num_nodes) {
      return InvalidArgumentError(StrFormat(
          "%s node %d out of range", MembershipEventKindName(event.kind),
          event.node));
    }
    walk.push_back(WalkEvent{event.at, 1, event.node, event.kind});
  }
  std::sort(walk.begin(), walk.end(),
            [](const WalkEvent& a, const WalkEvent& b) {
              return a.at != b.at     ? a.at < b.at
                     : a.order != b.order ? a.order < b.order
                                          : a.node < b.node;
            });
  for (const WalkEvent& event : walk) {
    if (event.order == 0) {  // crash
      if (member[event.node]) {
        member[event.node] = false;
        if (--members == 0) {
          return InvalidArgumentError("crash schedule empties the cluster");
        }
      }
      crashed[event.node] = true;
      continue;
    }
    switch (event.kind) {
      case MembershipEventKind::kJoin:
        if (member[event.node]) {
          return InvalidArgumentError(
              StrFormat("join of current member %d", event.node));
        }
        if (crashed[event.node]) {
          return InvalidArgumentError(StrFormat(
              "join of crashed node %d (use rejoin)", event.node));
        }
        member[event.node] = true;
        ++members;
        break;
      case MembershipEventKind::kLeave:
        if (!member[event.node]) {
          return InvalidArgumentError(
              StrFormat("leave of non-member %d", event.node));
        }
        member[event.node] = false;
        if (--members == 0) {
          return InvalidArgumentError("leave schedule empties the cluster");
        }
        break;
      case MembershipEventKind::kRejoin:
        if (!crashed[event.node]) {
          return InvalidArgumentError(StrFormat(
              "rejoin of node %d without a prior crash", event.node));
        }
        crashed[event.node] = false;
        member[event.node] = true;
        ++members;
        break;
    }
  }
  return OkStatus();
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
    RETURN_IF_ERROR(ValidateMembershipSchedule(config.num_nodes, faults));
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
    options.events_per_node = observability.flight_events_per_node;
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

size_t OrderedCollectives::Add(TaskGraph* graph, SimTime negotiation,
                               std::function<void()> on_done) {
  entries_.push_back(Entry{graph, negotiation, std::move(on_done), false});
  return entries_.size() - 1;
}

void OrderedCollectives::MarkReady(size_t index) {
  entries_[index].ready = true;
  Pump();
}

void OrderedCollectives::Pump() {
  if (in_flight_ || next_ >= entries_.size() || !entries_[next_].ready) {
    return;
  }
  in_flight_ = true;
  const size_t index = next_++;
  // Per-tensor negotiation happens on the critical path between
  // collectives (Horovod's coordination cycle).
  sim_->Schedule(entries_[index].negotiation, [this, index] {
    engine_->Execute(entries_[index].graph, [this, index] {
      in_flight_ = false;
      // Moved out first: it may queue more entries, which can reallocate.
      const std::function<void()> on_done = std::move(entries_[index].on_done);
      on_done();
      Pump();
    });
  });
}

}  // namespace hipress
