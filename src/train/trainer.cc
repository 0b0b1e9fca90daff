#include "src/train/trainer.h"

#include <algorithm>
#include <cstring>

#include "src/casync/builder.h"
#include "src/casync/engine.h"
#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/compress/registry.h"
#include "src/net/membership.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"

namespace hipress {
namespace {

// One gradient (or Horovod-style fusion bucket) to synchronize.
struct SyncUnit {
  uint64_t bytes = 0;
  SimTime ready_offset = 0;  // from backward start, incl. local aggregation
  int members = 1;           // gradients fused into this unit
  GradientSync plan;
};

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

StatusOr<TrainReport> SimulateTraining(const ModelProfile& model,
                                       const SyncConfig& config,
                                       const TrainOptions& options) {
  if (model.gradient_bytes.empty()) {
    return InvalidArgumentError("model has no gradients");
  }
  if (config.num_nodes < 1) {
    return InvalidArgumentError("need at least one node");
  }
  const FaultConfig& faults = config.net.faults;
  const bool membership_active =
      !faults.membership.empty() || !faults.standby_nodes.empty();
  if ((!faults.crashes.empty() || membership_active) &&
      (options.staleness > 0 || config.sequential_collectives)) {
    return InvalidArgumentError(
        "node-crash recovery and elastic membership are only supported on "
        "the BSP concurrent-collectives path (staleness == 0, "
        "sequential_collectives off)");
  }
  if (membership_active || !faults.crashes.empty()) {
    const Status schedule_ok =
        ValidateMembershipSchedule(config.num_nodes, faults);
    if (!schedule_ok.ok()) {
      return schedule_ok;
    }
  }
  if (options.adaptive.enabled) {
    if (!config.compression || !config.secopa) {
      return InvalidArgumentError(
          "adaptive compression re-plans the SeCoPa cutoffs; enable "
          "compression with secopa");
    }
    if (options.staleness > 0 || config.sequential_collectives) {
      return InvalidArgumentError(
          "adaptive compression swaps plans at BSP iteration boundaries; "
          "it requires staleness == 0 and concurrent collectives");
    }
  }

  const double compute_scale = ComputeScale(config.platform);
  const SimTime forward = static_cast<SimTime>(
      static_cast<double>(model.forward_time_v100) / compute_scale);
  const SimTime backward = static_cast<SimTime>(
      static_cast<double>(model.backward_time_v100) / compute_scale);
  const SimTime compute_time = forward + backward;
  // Straggler: its shard gates every gradient's aggregation, so sync
  // launches follow the slow node's timeline and the barrier waits for its
  // compute.
  const bool has_straggler = options.straggler_node >= 0 &&
                             options.straggler_node < config.num_nodes &&
                             options.straggler_factor > 1.0;
  const double launch_stretch =
      has_straggler ? options.straggler_factor : 1.0;
  const SimTime slowest_compute = static_cast<SimTime>(
      static_cast<double>(compute_time) * launch_stretch);

  // ---------------------------------------------------------------------
  // Per-gradient plans. SeCoPa consults the cost model; baselines compress
  // everything (or nothing) with their fixed partitioning rules.
  // ---------------------------------------------------------------------
  double rate = 1.0;
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
                              std::max<int>(1, static_cast<int>(
                                                   bytes / (256 * 1024))))
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
    // Compression without SeCoPa: compress everything. PS baselines keep
    // their size-based slicing (BytePS compresses per 4 MB slice); ring
    // baselines use natural ring chunking, capped so small gradients are
    // not shredded into sub-header chunks.
    sync.compress = true;
    sync.partitions =
        config.strategy == StrategyKind::kRing
            ? std::min({config.num_nodes, std::max(1, config.fixed_partitions),
                        std::max<int>(1, static_cast<int>(bytes /
                                                          (256 * 1024)))})
            : std::max<int>(1, static_cast<int>(
                                   bytes / config.ps_partition_bytes));
    return sync;
  };

  // ---------------------------------------------------------------------
  // Sync units: per gradient, or per fusion bucket for Horovod-style ring.
  // ---------------------------------------------------------------------
  std::vector<SyncUnit> units;
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
      unit.ready_offset = bucket_ready + LocalAggregationTime(bucket_bytes, config);
      unit.members = bucket_members;
      unit.plan = plan_gradient(bucket_id++, bucket_bytes);
      units.push_back(unit);
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
      units.push_back(unit);
    }
  }

  // ---------------------------------------------------------------------
  // Adaptive controller: candidate codec ladder + initial plans. Rung 0 is
  // the configured codec at the configured bandwidth, so the initial plans
  // are exactly the fixed plans above; the controller only diverges once a
  // decision triggers.
  // ---------------------------------------------------------------------
  std::unique_ptr<AdaptiveController> adaptive;
  if (options.adaptive.enabled) {
    std::vector<AdaptiveCodecOption> ladder;
    AdaptiveCodecOption configured;
    configured.algorithm = config.algorithm;
    configured.impl = config.codec_impl;
    configured.rate = rate;
    configured.speed = planner.codec_speed();
    ladder.push_back(configured);
    for (const std::string& name : options.adaptive.candidate_algorithms) {
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
    unit_bytes.reserve(units.size());
    for (const SyncUnit& unit : units) {
      unit_bytes.push_back(unit.bytes);
    }
    adaptive = std::make_unique<AdaptiveController>(
        config, options.adaptive, std::move(unit_bytes), std::move(ladder));
    for (size_t i = 0; i < units.size(); ++i) {
      units[i].plan = adaptive->plans()[i];
    }
  }

  // ---------------------------------------------------------------------
  // Build the simulated cluster. One metrics registry spans every layer;
  // the span collector (trace rows beyond the GPU) only runs when the
  // caller wants a timeline.
  // ---------------------------------------------------------------------
  auto metrics = std::make_shared<MetricsRegistry>();
  std::shared_ptr<SpanCollector> spans;
  if (options.record_timeline) {
    spans = std::make_shared<SpanCollector>();
  }
  Simulator sim;
  Network net(&sim, config.num_nodes, config.net, metrics.get(), spans.get());
  std::vector<std::unique_ptr<GpuDevice>> gpu_storage;
  std::vector<GpuDevice*> gpus;
  for (int node = 0; node < config.num_nodes; ++node) {
    gpu_storage.push_back(
        std::make_unique<GpuDevice>(&sim, node, 2, metrics.get()));
    if (options.record_timeline) {
      gpu_storage.back()->set_record_timeline(true);
    }
    gpus.push_back(gpu_storage.back().get());
  }
  CaSyncEngine engine(&sim, &net, gpus, config, metrics.get(), spans.get());

  // Always-on black box (docs/OBSERVABILITY.md): every net send/delivery,
  // transport retry, iteration boundary and membership transition appends a
  // 24-byte record to the owning node's ring. Installed as the process
  // fatal hook so a CHECK failure dumps the rings before aborting.
  std::shared_ptr<FlightRecorder> flight;
  uint16_t ev_iter_start = 0;
  uint16_t ev_iter_end = 0;
  uint16_t ev_recovery = 0;
  uint16_t ev_member = 0;
  if (options.observability.flight_recorder) {
    FlightRecorder::Options fr_options;
    fr_options.num_nodes = config.num_nodes;
    fr_options.events_per_node = options.observability.flight_events_per_node;
    fr_options.dump_path = options.observability.flight_dump_path;
    flight = std::make_shared<FlightRecorder>(fr_options);
    ev_iter_start = flight->Intern("iter.start");
    ev_iter_end = flight->Intern("iter.end");
    ev_recovery = flight->Intern("train.recovery");
    ev_member = flight->Intern("member.change");
    net.set_flight_recorder(flight.get());
    if (engine.reliable_channel() != nullptr) {
      engine.reliable_channel()->set_flight_recorder(flight.get());
    }
    FlightRecorder::InstallGlobal(flight.get());
  }

  // Pre-build one task graph per unit; graphs are reusable templates but
  // dependency counters mutate during execution, so build per iteration.
  TrainReport report;
  report.compute_time = compute_time;
  report.total_gpus = config.num_nodes * config.gpus_per_node;
  report.surviving_nodes = config.num_nodes;
  report.metrics = metrics;
  report.spans = spans;
  report.flight = flight;
  Histogram& iteration_ms = metrics->histogram(
      "train.iteration_ms", HistogramBuckets::Exponential(1.0, 2.0, 16));
  Histogram& sync_tail_ms = metrics->histogram(
      "train.sync_tail_ms", HistogramBuckets::Exponential(0.125, 2.0, 16));
  Counter& iterations_counter = metrics->counter("train.iterations");
  Counter& recoveries_counter = metrics->counter("train.recoveries");
  Histogram& recovery_ms = metrics->histogram(
      "train.recovery_ms", HistogramBuckets::Exponential(0.125, 2.0, 16));
  // Max-minus-median of the per-node last-sync-completion offsets for the
  // latest iteration (0 on a balanced cluster; rises under stragglers and
  // degraded links).
  Gauge& straggler_skew = metrics->gauge("train.straggler_skew_ms");
  // Wire-pool misses during the latest iteration (delta of the cumulative
  // net.pool_misses counter): 0 in steady state once every link has
  // flushed a batch — the mem.step_pool_misses invariant, applied to the
  // wire path (batch frames, retransmit payloads, staging copies).
  Gauge& step_wire_pool_misses = metrics->gauge("net.step_pool_misses");
  auto finalize_observability = [&] {
    report.iteration_p50_ms = iteration_ms.Quantile(0.5);
    report.iteration_p95_ms = iteration_ms.Quantile(0.95);
    report.iteration_p99_ms = iteration_ms.Quantile(0.99);
    if (report.cp_attribution.total() > 0) {
      for (int c = 0; c < kNumCpCategories; ++c) {
        const CpCategory category = static_cast<CpCategory>(c);
        metrics->gauge(StrFormat("cp.%s_ms", CpCategoryName(category)))
            .Set(ToMillis(report.cp_attribution[category]));
        metrics->gauge(StrFormat("cp.share.%s", CpCategoryName(category)))
            .Set(report.cp_attribution.Share(category));
      }
    }
    engine.auditor().Publish(metrics.get());
    metrics->gauge("train.failed_nodes")
        .Set(static_cast<double>(report.failed_nodes.size()));
    metrics->gauge("train.surviving_nodes")
        .Set(static_cast<double>(report.surviving_nodes));
    metrics->gauge("train.throughput").Set(report.throughput);
    metrics->gauge("train.scaling_efficiency")
        .Set(report.scaling_efficiency);
    metrics->gauge("train.iteration_ms_last")
        .Set(ToMillis(report.iteration_time));
    metrics->gauge("train.compute_ms").Set(ToMillis(report.compute_time));
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
      if (!options.observability.flight_dump_path.empty()) {
        flight->TriggerDump("end-of-run");
      }
    }
    if (options.record_timeline) {
      for (const GpuDevice* gpu : gpus) {
        report.node_timelines.push_back(gpu->timeline());
      }
      metrics->gauge("gpu.node0.compute_utilization")
          .Set(gpus[0]->ComputeUtilization(report.timeline_origin,
                                           sim.now()));
    }
  };

  // -----------------------------------------------------------------------
  // SSP path: iterations pipeline under the staleness bound. Iteration k's
  // compute may start once iteration k-1-staleness has synchronized; the
  // GPU compute stream still serializes successive forwards/backwards, so
  // the win is hiding the sync tail behind the next iteration's compute.
  // -----------------------------------------------------------------------
  if (options.staleness > 0) {
    const int total_iterations = std::max(options.iterations,
                                          options.staleness + 3);
    struct SspState {
      std::vector<bool> sync_done;
      std::vector<SimTime> iteration_end;  // sync completion time
      int started = 0;
    };
    SspState state;
    state.sync_done.assign(total_iterations, false);
    state.iteration_end.assign(total_iterations, 0);
    std::vector<std::unique_ptr<TaskGraph>> all_graphs;

    // Ordered-collectives chain (Horovod semantics hold across iterations
    // too): a unit executes only after every earlier unit finished AND its
    // own gradients are ready.
    struct SequentialChain {
      struct Entry {
        TaskGraph* graph = nullptr;
        SimTime negotiation = 0;
        std::function<void()> on_done;
        bool ready = false;
      };
      std::vector<Entry> entries;
      size_t next = 0;
      bool in_flight = false;
    };
    // The chain and its pump live on this frame, which outlives sim.Run();
    // the scheduled closures refer to them by reference.
    SequentialChain chain;
    // Entries are referenced while in flight; pre-reserve so later
    // iterations' pushes never reallocate.
    chain.entries.reserve(static_cast<size_t>(total_iterations) *
                          units.size());
    std::function<void()> chain_pump = [&engine, &sim, &chain, &chain_pump] {
      if (chain.in_flight || chain.next >= chain.entries.size() ||
          !chain.entries[chain.next].ready) {
        return;
      }
      chain.in_flight = true;
      auto& entry = chain.entries[chain.next];
      ++chain.next;
      sim.Schedule(entry.negotiation, [&engine, &entry, &chain, &chain_pump] {
        engine.Execute(entry.graph, [&entry, &chain, &chain_pump] {
          chain.in_flight = false;
          if (entry.on_done) {
            entry.on_done();
          }
          chain_pump();
        });
      });
    };

    std::function<void()> start_ready_iterations = [&] {
      while (state.started < total_iterations) {
        const int k = state.started;
        const int gate = k - 1 - options.staleness;
        if (gate >= 0 && !state.sync_done[gate]) {
          return;
        }
        ++state.started;
        // Compute queues FIFO on the device; its actual start time is the
        // stream's free time, which all launch offsets key off.
        const SimTime compute_start =
            std::max(sim.now(), gpus[0]->stream_free_at(
                                    GpuDevice::kComputeStream));
        for (int node = 0; node < config.num_nodes; ++node) {
          gpus[node]->SubmitCompute(compute_time, [] {});
        }
        auto remaining = std::make_shared<size_t>(units.size());
        auto unit_done = [remaining, k, &state, &sim,
                          &start_ready_iterations] {
          if (--*remaining == 0) {
            state.sync_done[k] = true;
            state.iteration_end[k] = sim.now();
            start_ready_iterations();
          }
        };
        for (const SyncUnit& unit : units) {
          auto graph = std::make_unique<TaskGraph>();
          AppendSyncTasks(config, unit.plan, graph.get());
          TaskGraph* graph_ptr = graph.get();
          all_graphs.push_back(std::move(graph));
          const SimTime launch_at = compute_start + forward +
                                    unit.ready_offset +
                                    options.launch_overhead;
          if (config.sequential_collectives) {
            chain.entries.push_back(SequentialChain::Entry{
                graph_ptr, unit.members * config.per_gradient_negotiation,
                unit_done, false});
            const size_t index = chain.entries.size() - 1;
            sim.ScheduleAt(std::max(launch_at, sim.now()),
                           [&chain, index, &chain_pump] {
              chain.entries[index].ready = true;
              chain_pump();
            });
            continue;
          }
          sim.ScheduleAt(std::max(launch_at, sim.now()),
                         [&engine, graph_ptr, unit_done] {
            engine.Execute(graph_ptr, unit_done);
          });
        }
      }
    };
    sim.Schedule(0, start_ready_iterations);
    sim.Run();

    // Steady-state average over the pipelined window (skip iteration 0).
    const SimTime first_end = state.iteration_end[0];
    const SimTime last_end = state.iteration_end[total_iterations - 1];
    const SimTime average =
        (last_end - first_end) / (total_iterations - 1);
    report.iteration_time = average;
    const double seconds = ToSeconds(average);
    if (seconds > 0) {
      report.throughput = static_cast<double>(report.total_gpus) *
                          model.batch_per_gpu / seconds;
      report.scaling_efficiency = static_cast<double>(compute_time) /
                                  static_cast<double>(average);
    }
    for (int k = 1; k < total_iterations; ++k) {
      iterations_counter.Increment();
      iteration_ms.Observe(
          ToMillis(state.iteration_end[k] - state.iteration_end[k - 1]));
    }
    report.engine_stats = engine.stats();
    finalize_observability();
    return report;
  }

  // ---------------------------------------------------------------------
  // Elastic membership (docs/FAULT_TOLERANCE.md). The manager keeps an
  // epoch-numbered view of the live worker set; scheduled joins/leaves and
  // crash rejoins apply at iteration boundaries (the engine is idle, so
  // plans rebuild and the channel epoch advances without touching
  // in-flight graphs). Each node carries a small replicated model state
  // whose per-iteration delta is a pure function of (seed, iteration):
  // live replicas stay bit-identical, a crashed replica is invalidated
  // until a donor re-sync restores it, and a churned run must finish with
  // exactly the churn-free run's state — the chaos-soak gate.
  // ---------------------------------------------------------------------
  MembershipManager membership(config.num_nodes, faults.standby_nodes,
                               metrics.get());
  std::vector<int> current_members = membership.members();
  constexpr size_t kStateFloats = 32;
  constexpr size_t kStateBytes = kStateFloats * sizeof(float);
  const uint64_t state_seed = faults.seed ^ 0x6d6f64656cULL;  // "model"
  std::vector<std::vector<float>> model_state(
      static_cast<size_t>(config.num_nodes));
  std::vector<bool> state_valid(static_cast<size_t>(config.num_nodes),
                                false);
  for (int node = 0; node < config.num_nodes; ++node) {
    model_state[node].resize(kStateFloats);
    for (size_t j = 0; j < kStateFloats; ++j) {
      model_state[node][j] = static_cast<float>(FaultUniform(state_seed, j));
    }
  }
  for (const int node : current_members) {
    state_valid[node] = true;
  }
  uint64_t model_bytes = 0;
  for (const uint64_t bytes : model.gradient_bytes) {
    model_bytes += bytes;
  }
  std::vector<bool> crash_processed(faults.crashes.size(), false);
  std::vector<bool> rejoined(static_cast<size_t>(config.num_nodes), false);
  std::vector<MembershipEvent> schedule = faults.membership;
  std::sort(schedule.begin(), schedule.end(),
            [](const MembershipEvent& a, const MembershipEvent& b) {
              return a.at != b.at ? a.at < b.at : a.node < b.node;
            });
  size_t next_event = 0;
  MembershipReport mreport;
  mreport.enabled = membership_active;
  Counter& resyncs_counter = metrics->counter("membership.resyncs");
  Counter& resync_bytes_counter = metrics->counter("membership.resync_bytes");
  Counter& drains_counter = metrics->counter("membership.drains");
  Counter& rejoined_contrib_counter =
      metrics->counter("membership.rejoined_contributions");
  Counter& pool_trimmed_counter =
      metrics->counter("membership.pool_trimmed_bytes");
  Histogram& resync_ms = metrics->histogram(
      "membership.resync_ms", HistogramBuckets::Exponential(0.125, 2.0, 16));
  Histogram& drain_ms = metrics->histogram(
      "membership.drain_ms", HistogramBuckets::Exponential(0.125, 2.0, 16));
  ReliableChannel* channel = engine.reliable_channel();

  // Re-price every unit's <compress?, K> over a live view of `live_nodes`
  // members (the SeCoPa cost terms and 2N partition cap depend on the
  // view size). The adaptive controller owns this when enabled.
  SyncConfig elastic_config = config;
  auto replan_units = [&](int live_nodes) {
    if (!config.compression || !config.secopa) {
      return;
    }
    elastic_config.num_nodes = live_nodes;
    const SeCoPaPlanner live_planner(elastic_config, rate);
    for (SyncUnit& unit : units) {
      const SyncPlan plan = live_planner.Plan(unit.bytes);
      unit.plan.compress = plan.compress;
      unit.plan.partitions = plan.partitions;
    }
  };

  // Ships `bytes` of state from src to dst over the pooled wire path
  // (ReliableChannel when present — always, under fault injection) and
  // runs the simulator to quiescence; returns the transfer's duration.
  // The payload carries src's replicated model state; `copy_state`
  // installs it on dst at delivery (donor re-sync), while drain handoffs
  // only account the wire time.
  auto transfer_state = [&](int src, int dst, uint64_t bytes,
                            bool copy_state) {
    const SimTime started = sim.now();
    const std::span<const uint8_t> view(
        reinterpret_cast<const uint8_t*>(model_state[src].data()),
        kStateBytes);
    NetMessage message;
    message.src = src;
    message.dst = dst;
    message.bytes = std::max<uint64_t>(1, bytes);
    message.tag = 0xe1a0000 + static_cast<uint64_t>(membership.epoch());
    message.payload = MakePooledPayload(view, net.wire_pool());
    auto on_deliver = [&model_state, &state_valid, dst, copy_state,
                       kStateBytes](const NetMessage& delivered) {
      if (!copy_state) {
        return;
      }
      auto payload =
          std::static_pointer_cast<PooledBytes>(delivered.payload);
      std::memcpy(model_state[dst].data(), payload->data(),
                  std::min<size_t>(payload->size(), kStateBytes));
      state_valid[dst] = true;
    };
    if (channel != nullptr) {
      channel->Send(std::move(message), on_deliver, [](const Status&) {});
    } else {
      net.Send(std::move(message), on_deliver);
    }
    sim.Run();
    return sim.now() - started;
  };

  // Ground-truth crash bookkeeping: a replica inside a crash window loses
  // its state (until re-synced) whether or not the transport has blamed
  // the node yet.
  auto invalidate_crashed = [&](SimTime upto) {
    for (size_t c = 0; c < faults.crashes.size(); ++c) {
      if (!crash_processed[c] && faults.crashes[c].at <= upto) {
        crash_processed[c] = true;
        state_valid[faults.crashes[c].node] = false;
      }
    }
  };

  // Applies crash evictions and due membership events at an iteration
  // boundary, then re-plans over the new view, advances the channel
  // epoch, and trims the wire pool when the view shrank.
  auto process_boundary = [&](SimTime boundary) {
    bool changed = false;
    invalidate_crashed(sim.now());
    // Crash detections from the reliable transport become membership
    // evictions.
    for (const int node : engine.failed_nodes()) {
      if (membership.is_member(node) && membership.size() > 1) {
        membership.Remove(node, MembershipChange::kCrash, sim.now());
        changed = true;
        if (spans) {
          spans->Add(node, kTraceLaneMembership,
                     StrFormat("crash node %d", node), sim.now(), sim.now());
        }
      }
    }
    while (next_event < schedule.size() &&
           schedule[next_event].at <= boundary) {
      const MembershipEvent event = schedule[next_event++];
      if (event.at > sim.now()) {
        // Apply the transition at its scheduled time — a rejoin's crash
        // window only closes at event.at, so an earlier re-sync would send
        // into the blackhole.
        sim.ScheduleAt(event.at, [] {});
        sim.Run();
      }
      switch (event.kind) {
        case MembershipEventKind::kLeave: {
          if (!membership.is_member(event.node) || membership.size() <= 1) {
            break;  // crashed before its planned leave; nothing to drain
          }
          // Planned drain: in-flight units already completed (the engine
          // is idle at a boundary); the leaver ships its partition share
          // to the lowest-id remaining member, then exits cleanly.
          int successor = -1;
          for (const int member : membership.members()) {
            if (member != event.node) {
              successor = member;
              break;
            }
          }
          const uint64_t share = model_bytes /
                                 static_cast<uint64_t>(membership.size());
          const SimTime took =
              transfer_state(event.node, successor, share, false);
          membership.Remove(event.node, MembershipChange::kLeave, sim.now());
          state_valid[event.node] = false;
          drains_counter.Increment();
          drain_ms.Observe(ToMillis(took));
          mreport.resync_time += took;
          if (spans) {
            spans->Add(event.node, kTraceLaneMembership,
                       StrFormat("leave node %d (drain)", event.node),
                       sim.now() - took, sim.now());
          }
          changed = true;
          break;
        }
        case MembershipEventKind::kJoin:
        case MembershipEventKind::kRejoin: {
          const bool is_rejoin = event.kind == MembershipEventKind::kRejoin;
          if (is_rejoin && membership.is_member(event.node)) {
            // The crash this rejoin answers was never detected (no traffic
            // touched the corpse); evict it first so the epoch history
            // reflects the full crash->rejoin cycle.
            membership.Remove(event.node, MembershipChange::kCrash,
                              sim.now());
          }
          if (membership.is_member(event.node)) {
            break;  // duplicate admit; validation rejects hand-written ones
          }
          if (is_rejoin) {
            engine.ReviveNode(event.node);
          }
          // Donor re-sync: the lowest-id member streams current model
          // state to the (re)joining node over the pooled wire path.
          const int donor = membership.members().front();
          const SimTime took =
              transfer_state(donor, event.node, model_bytes, true);
          membership.Admit(event.node,
                           is_rejoin ? MembershipChange::kRejoin
                                     : MembershipChange::kJoin,
                           sim.now());
          resyncs_counter.Increment();
          resync_bytes_counter.Increment(model_bytes);
          ++mreport.resyncs;
          mreport.resync_bytes += model_bytes;
          mreport.resync_time += took;
          resync_ms.Observe(ToMillis(took));
          if (is_rejoin) {
            rejoined[event.node] = true;
          }
          if (spans) {
            spans->Add(event.node, kTraceLaneMembership,
                       StrFormat("%s node %d (resync from %d)",
                                 is_rejoin ? "rejoin" : "join", event.node,
                                 donor),
                       sim.now() - took, sim.now());
          }
          changed = true;
          break;
        }
      }
    }
    if (!changed) {
      return;
    }
    const int old_size = static_cast<int>(current_members.size());
    current_members = membership.members();
    const int new_size = membership.size();
    if (flight) {
      flight->Record(0, ev_member, sim.now(), membership.epoch(),
                     static_cast<uint64_t>(new_size));
    }
    if (channel != nullptr) {
      // Messages stamped under the old view are now stale on delivery.
      channel->set_epoch(membership.epoch());
    }
    if (adaptive) {
      if (adaptive->OnMembershipChange(new_size)) {
        for (size_t i = 0; i < units.size(); ++i) {
          units[i].plan = adaptive->plans()[i];
        }
      }
    } else if (new_size != old_size) {
      replan_units(new_size);
    }
    if (new_size < old_size) {
      // Shrunken view: release the wire pool's peak-size buckets but keep
      // the proportional warm share so the smaller cluster stays miss-free
      // (watermark Trim, docs/MEMORY.md).
      const BufferPool::Stats wire = net.wire_pool()->stats();
      const size_t keep = static_cast<size_t>(wire.free_bytes) *
                          static_cast<size_t>(new_size) /
                          static_cast<size_t>(old_size);
      pool_trimmed_counter.Increment(net.wire_pool()->Trim(keep));
    }
  };

  // Windowed telemetry + health watchdog (docs/OBSERVABILITY.md): series
  // are fed once per iteration boundary — the trainer-observed signals
  // directly, the attached registry metrics via SampleAll — and the rules
  // compare each iteration's newest window against the run's own rolling
  // history, so trips replay deterministically for a fixed seed.
  TimeSeriesHub hub;
  std::unique_ptr<HealthMonitor> watchdog;
  CostSampleStats send_stats_prev;
  if (options.observability.watchdog) {
    hub.AttachCounter(metrics.get(), "net.retries");
    hub.AttachCounter(metrics.get(), "net.pool_misses");
    hub.AttachGauge(metrics.get(), "sim.queue_depth");
    hub.AttachGauge(metrics.get(), "cp.share.send");
    if (adaptive) {
      hub.AttachGauge(metrics.get(), "adaptive.observed_gbps");
    }
    watchdog = std::make_unique<HealthMonitor>(&hub, metrics.get(),
                                               flight.get());
    for (HealthRule& rule : HealthMonitor::DefaultTrainerRules()) {
      watchdog->AddRule(std::move(rule));
    }
    // A trip is exactly the moment the black box exists for.
    watchdog->set_on_trip([&flight](const HealthRule&) {
      if (flight) {
        flight->TriggerDump("watchdog-trip");
      }
    });
  }

  SimTime iter_start = 0;
  SimTime measured_iter_time = 0;
  SimTime measured_uplink_busy = 0;
  SimTime measured_downlink_busy = 0;
  SimTime measured_sync_tail = 0;
  SimTime measured_sync_span = 0;

  std::vector<std::unique_ptr<TaskGraph>> graphs;
  for (int iteration = 0; iteration < options.iterations; ++iteration) {
    graphs.clear();
    size_t remaining = units.size();
    SimTime iteration_end = 0;
    // First failure detection this iteration (-1: none); closes the
    // recovery window when the degraded BSP barrier completes.
    SimTime recovery_started_at = -1;
    const SimTime uplink_busy_before = net.uplink_busy(0);
    const SimTime downlink_busy_before = net.downlink_busy(0);
    const EngineStats stats_before = engine.stats();
    const uint64_t wire_misses_before = net.wire_pool()->stats().misses;
    const bool measured = iteration == options.iterations - 1;
    // Stray coordinator-timeout events can fire slightly after the last
    // sync completes; align the next iteration start past them.
    iter_start = std::max(iter_start, sim.now());
    // Membership transitions apply here, between iterations: the engine is
    // idle, so evictions, drains and donor re-syncs cannot race in-flight
    // graphs. Re-sync wire time pushes the boundary out.
    process_boundary(iter_start);
    iter_start = std::max(iter_start, sim.now());
    if (flight) {
      flight->Record(0, ev_iter_start, iter_start,
                     static_cast<uint64_t>(iteration));
    }
    if (measured && options.record_timeline) {
      report.timeline_origin = iter_start;
    }

    // The per-unit launchers the starter below installs. They live on this
    // frame, which outlives sim.Run(), so the closures that re-enter them
    // (recovery re-executes, the ordered-collectives pump) hold references.
    std::function<void(size_t, TaskGraph*)> execute_unit;
    std::function<void()> pump;

    // One starter event at the iteration boundary submits compute and arms
    // the per-gradient sync launches, so all offsets are iteration-relative.
    sim.ScheduleAt(iter_start, [&] {
      // The current membership view, minus any node the transport declared
      // failed since the boundary; failed or departed nodes neither compute
      // nor participate in synchronization.
      std::vector<int> alive;
      alive.reserve(current_members.size());
      for (const int node : current_members) {
        if (!engine.node_failed(node)) {
          alive.push_back(node);
        }
      }
      const bool full_strength =
          static_cast<int>(alive.size()) == config.num_nodes;
      // Forward + backward occupy the compute stream on every live node.
      for (const int node : alive) {
        const SimTime node_compute =
            node == options.straggler_node ? slowest_compute : compute_time;
        gpus[node]->SubmitCompute(node_compute, [] {});
        if (rejoined[node]) {
          // A node that crashed, re-synced and rejoined is computing again.
          rejoined_contrib_counter.Increment();
        }
      }
      // Build the per-unit sync graphs up front, over the survivors when
      // already degraded.
      std::vector<TaskGraph*> graph_ptrs;
      for (const SyncUnit& unit : units) {
        auto graph = std::make_unique<TaskGraph>();
        if (full_strength) {
          AppendSyncTasks(config, unit.plan, graph.get());
        } else {
          AppendSyncTasksOver(config, unit.plan, alive, graph.get());
        }
        graph_ptrs.push_back(graph.get());
        graphs.push_back(std::move(graph));
      }

      auto complete_one = [&remaining, &sim, &iteration_end] {
        if (--remaining == 0) {
          iteration_end = sim.now();
        }
      };

      if (!config.sequential_collectives) {
        // CaSync: every gradient's graph launches the moment it is ready;
        // graphs execute concurrently and pipeline. A graph cancelled by a
        // peer failure is rebuilt over the survivors and re-executed, so
        // the BSP barrier completes degraded instead of hanging.
        execute_unit = [&engine, &sim, &config, &units, &graphs, &report,
                        &recovery_started_at, &recoveries_counter,
                        &current_members, complete_one,
                        &execute_unit](size_t i, TaskGraph* graph_ptr) {
          engine.Execute(
              graph_ptr,
              [&engine, &sim, &config, &units, &graphs, &report,
               &recovery_started_at, &recoveries_counter, &current_members,
               complete_one, &execute_unit, i](const Status& status) {
                if (status.ok()) {
                  complete_one();
                  return;
                }
                // Peer failure: recovery. Rebuild this unit's topology over
                // the surviving members and run it again.
                if (recovery_started_at < 0) {
                  recovery_started_at = sim.now();
                }
                recoveries_counter.Increment();
                ++report.recoveries;
                std::vector<int> survivors;
                for (const int node : current_members) {
                  if (!engine.node_failed(node)) {
                    survivors.push_back(node);
                  }
                }
                CHECK_GT(survivors.size(), 0u) << "every node failed";
                auto rebuilt = std::make_unique<TaskGraph>();
                AppendSyncTasksOver(config, units[i].plan, survivors,
                                    rebuilt.get());
                TaskGraph* rebuilt_ptr = rebuilt.get();
                graphs.push_back(std::move(rebuilt));
                execute_unit(i, rebuilt_ptr);
              });
        };
        for (size_t i = 0; i < units.size(); ++i) {
          const SimTime launch_at = static_cast<SimTime>(
              static_cast<double>(forward + units[i].ready_offset) *
              launch_stretch) + options.launch_overhead;
          TaskGraph* graph_ptr = graph_ptrs[i];
          sim.Schedule(launch_at, [&execute_unit, i, graph_ptr] {
            execute_unit(i, graph_ptr);
          });
        }
      } else {
        // Horovod-style ordered collectives: unit i+1 starts only after
        // unit i's allreduce finished AND its own gradients are ready.
        struct SequentialState {
          size_t next = 0;
          bool in_flight = false;
          std::vector<bool> ready;
        };
        auto state = std::make_shared<SequentialState>();
        state->ready.assign(units.size(), false);
        std::vector<SimTime> negotiation;
        negotiation.reserve(units.size());
        for (const SyncUnit& unit : units) {
          negotiation.push_back(unit.members *
                                config.per_gradient_negotiation);
        }
        pump = [&engine, &sim, graph_ptrs, negotiation, state, complete_one,
                &pump] {
          if (state->in_flight || state->next >= graph_ptrs.size() ||
              !state->ready[state->next]) {
            return;
          }
          state->in_flight = true;
          const size_t index = state->next;
          ++state->next;
          TaskGraph* graph_ptr = graph_ptrs[index];
          // Per-tensor negotiation happens on the critical path between
          // collectives (Horovod's coordination cycle).
          sim.Schedule(negotiation[index],
                       [&engine, graph_ptr, state, complete_one, &pump] {
            engine.Execute(graph_ptr, [state, complete_one, &pump] {
              state->in_flight = false;
              complete_one();
              pump();
            });
          });
        };
        for (size_t i = 0; i < units.size(); ++i) {
          const SimTime launch_at = static_cast<SimTime>(
              static_cast<double>(forward + units[i].ready_offset) *
              launch_stretch) + options.launch_overhead;
          sim.Schedule(launch_at, [state, i, &pump] {
            state->ready[i] = true;
            pump();
          });
        }
      }
    });

    sim.Run();
    const SimTime end =
        std::max(iteration_end, iter_start + slowest_compute);
    if (recovery_started_at >= 0) {
      // Recovery latency: failure detection to the degraded barrier.
      const SimTime window = end - recovery_started_at;
      report.recovery_time += window;
      recovery_ms.Observe(ToMillis(window));
      if (spans) {
        spans->Add(0, kTraceLaneRecovery,
                   StrFormat("recovery (%zu node(s) failed)",
                             engine.failed_nodes().size()),
                   recovery_started_at, end);
      }
    }
    // Model-state step: every member that survived this iteration applies
    // the same (seed, iteration)-derived delta, so live replicas stay
    // bit-identical and a resynced joiner lands on the churn-free sum.
    // Ordinals start at kStateFloats to stay disjoint from the init draws.
    invalidate_crashed(end);
    for (const int node : current_members) {
      if (!state_valid[node] || engine.node_failed(node)) {
        continue;
      }
      for (size_t j = 0; j < kStateFloats; ++j) {
        const uint64_t ordinal =
            static_cast<uint64_t>(iteration + 1) * kStateFloats + j;
        model_state[node][j] += static_cast<float>(
            FaultUniform(state_seed, ordinal) - 0.5);
      }
    }
    // Critical-path attribution of this iteration's window, over every
    // graph that executed (recovery rebuilds included). The per-category
    // milliseconds sum to the iteration time by construction.
    {
      std::vector<const TaskGraph*> views;
      views.reserve(graphs.size());
      for (const auto& graph : graphs) {
        views.push_back(graph.get());
      }
      const IterationAttribution attrib =
          AttributeIteration(views, iter_start, end);
      StepRecord step;
      step.iteration = iteration;
      step.iteration_ms = ToMillis(end - iter_start);
      step.compute_ms = ToMillis(attrib.attribution[CpCategory::kCompute]);
      step.encode_ms = ToMillis(attrib.attribution[CpCategory::kEncode]);
      step.merge_ms = ToMillis(attrib.attribution[CpCategory::kMerge]);
      step.send_ms = ToMillis(attrib.attribution[CpCategory::kSend]);
      step.recv_ms = ToMillis(attrib.attribution[CpCategory::kRecv]);
      step.decode_ms = ToMillis(attrib.attribution[CpCategory::kDecode]);
      step.wait_ms = ToMillis(attrib.attribution[CpCategory::kWait]);
      step.path_tasks = static_cast<int>(attrib.path.steps.size());
      step.degraded = recovery_started_at >= 0;
      // Straggler skew: per-node offset of the last sync-task completion,
      // max minus median across the nodes that synchronized.
      std::vector<SimTime> last_end(static_cast<size_t>(config.num_nodes),
                                    kTaskNeverRan);
      for (const auto& graph : graphs) {
        for (const TaskRecord& task : graph->tasks()) {
          if (task.node < 0 || task.end_time == kTaskNeverRan) {
            continue;
          }
          last_end[task.node] = std::max(last_end[task.node], task.end_time);
        }
      }
      std::vector<SimTime> offsets;
      for (const SimTime t : last_end) {
        if (t != kTaskNeverRan) {
          offsets.push_back(t - iter_start);
        }
      }
      if (offsets.size() >= 2) {
        std::sort(offsets.begin(), offsets.end());
        const size_t n = offsets.size();
        const SimTime median =
            n % 2 == 1 ? offsets[n / 2]
                       : (offsets[n / 2 - 1] + offsets[n / 2]) / 2;
        step.straggler_skew_ms = ToMillis(offsets.back() - median);
      }
      straggler_skew.Set(step.straggler_skew_ms);
      report.steps.push_back(step);
      if (measured) {
        report.cp_attribution = attrib.attribution;
        if (spans) {
          AddCriticalPathSpans(attrib.path, iter_start, /*compute_node=*/0,
                               spans.get());
        }
      }
      // Adaptive decision boundary: the engine is idle (sim.Run drained),
      // so refreshed plans and a codec swap cannot touch in-flight graphs
      // or pooled wire buffers. The next iteration's graphs are built from
      // the refreshed units[i].plan.
      if (adaptive) {
        const AdaptiveDecision decision =
            adaptive->Observe(iteration, attrib.attribution,
                              engine.auditor());
        metrics->gauge("adaptive.send_share").Set(decision.send_share);
        metrics->gauge("adaptive.observed_gbps").Set(decision.observed_gbps);
        metrics->gauge("adaptive.planned_gbps").Set(decision.planned_gbps);
        metrics->gauge("adaptive.compressed_units")
            .Set(static_cast<double>(decision.compressed_units));
        if (decision.replanned) {
          metrics->counter("adaptive.replans").Increment();
          metrics->counter("adaptive.replanned_units")
              .Increment(static_cast<uint64_t>(decision.replanned_units));
          for (size_t i = 0; i < units.size(); ++i) {
            units[i].plan = adaptive->plans()[i];
          }
          if (decision.codec_switched) {
            metrics->counter("adaptive.codec_switches").Increment();
            const AdaptiveCodecOption& codec = adaptive->active_codec();
            engine.ApplyCodec(codec.algorithm, codec.impl, codec.speed);
          }
          if (spans) {
            spans->Add(0, kTraceLaneAdaptive,
                       StrFormat("adaptive:%s", decision.algorithm.c_str()),
                       iter_start, end);
          }
        }
      }
      // Feed the windowed series and run the watchdog at the boundary. The
      // send-bandwidth signal is the auditor's per-iteration sample delta —
      // the same windowed estimate the adaptive controller plans from.
      if (watchdog) {
        hub.Series("train.iteration_ms")
            .Observe(end, ToMillis(end - iter_start));
        const CostSampleStats send_now =
            engine.auditor().Snapshot(CostPrimitive::kSend);
        const CostSampleStats send_delta = send_now.Since(send_stats_prev);
        send_stats_prev = send_now;
        if (send_delta.count > 0) {
          hub.Series("net.send_gbps")
              .Observe(end, send_delta.MeanThroughput() * 8.0 / 1e9);
        }
        metrics->gauge("sim.queue_depth")
            .Set(static_cast<double>(sim.queue_depth()));
        metrics->gauge("cp.share.send")
            .Set(attrib.attribution.Share(CpCategory::kSend));
        hub.SampleAll(end);
        watchdog->Evaluate(end);
      }
      if (flight) {
        flight->Record(0, ev_iter_end, end, static_cast<uint64_t>(iteration),
                       static_cast<uint64_t>(end - iter_start));
        if (recovery_started_at >= 0) {
          flight->Record(0, ev_recovery, end,
                         static_cast<uint64_t>(iteration),
                         static_cast<uint64_t>(end - recovery_started_at));
        }
      }
    }
    iterations_counter.Increment();
    iteration_ms.Observe(ToMillis(end - iter_start));
    sync_tail_ms.Observe(ToMillis(
        std::max<SimTime>(0, end - (iter_start + compute_time))));
    step_wire_pool_misses.Set(static_cast<double>(
        net.wire_pool()->stats().misses - wire_misses_before));
    if (measured) {
      measured_iter_time = end - iter_start;
      measured_uplink_busy = net.uplink_busy(0) - uplink_busy_before;
      measured_downlink_busy = net.downlink_busy(0) - downlink_busy_before;
      if (spans && end > iter_start) {
        // Busy-occupancy bars for node 0's two link sides: bar length is
        // the serialization time accrued this iteration, so it reads
        // directly against the iteration span above it.
        const double iter_span = static_cast<double>(end - iter_start);
        spans->Add(
            0, kTraceLaneLinkBusy,
            StrFormat("uplink-busy %.1f%%",
                      100.0 * static_cast<double>(measured_uplink_busy) /
                          iter_span),
            iter_start, iter_start + measured_uplink_busy);
        spans->Add(
            0, kTraceLaneLinkBusy,
            StrFormat("downlink-busy %.1f%%",
                      100.0 * static_cast<double>(measured_downlink_busy) /
                          iter_span),
            iter_start, iter_start + measured_downlink_busy);
      }
      measured_sync_tail =
          std::max<SimTime>(0, end - (iter_start + compute_time));
      // Synchronization span: from the first gradient's sync launch to the
      // last gradient's completion (the paper's communication-time metric
      // counts the whole synchronization window, overlapped or not).
      SimTime first_launch = forward + units[0].ready_offset;
      for (const SyncUnit& unit : units) {
        first_launch = std::min(first_launch, forward + unit.ready_offset);
      }
      const SimTime sync_end = iteration_end > 0 ? iteration_end : end;
      measured_sync_span =
          std::max<SimTime>(0, sync_end - (iter_start + first_launch));
      EngineStats delta = engine.stats();
      delta.encode_tasks -= stats_before.encode_tasks;
      delta.decode_tasks -= stats_before.decode_tasks;
      delta.merge_tasks -= stats_before.merge_tasks;
      delta.send_tasks -= stats_before.send_tasks;
      delta.encode_time -= stats_before.encode_time;
      delta.decode_time -= stats_before.decode_time;
      delta.merge_time -= stats_before.merge_time;
      delta.wire_bytes -= stats_before.wire_bytes;
      report.engine_stats = delta;
    }
    iter_start = end;
  }

  report.iteration_time = measured_iter_time;
  report.sync_tail = measured_sync_tail;
  if (adaptive) {
    report.adaptive = adaptive->Report();
  }
  report.failed_nodes = engine.failed_nodes();
  report.degraded = !report.failed_nodes.empty();
  report.surviving_nodes =
      config.num_nodes - static_cast<int>(report.failed_nodes.size());
  if (report.degraded) {
    // Only the survivors still contribute samples.
    report.total_gpus = report.surviving_nodes * config.gpus_per_node;
  }
  // Quiesce the membership view: crashes detected during the final
  // iteration become evictions so the report's view matches the epoch log.
  invalidate_crashed(sim.now());
  for (const int node : engine.failed_nodes()) {
    if (membership.is_member(node) && membership.size() > 1) {
      membership.Remove(node, MembershipChange::kCrash, sim.now());
    }
  }
  mreport.final_epoch = membership.epoch();
  mreport.final_members = membership.members();
  mreport.joins = membership.joins();
  mreport.leaves = membership.leaves();
  mreport.crashes = membership.crashes();
  mreport.rejoins = membership.rejoins();
  mreport.rejoined_contributions = rejoined_contrib_counter.value();
  mreport.event_log = membership.LogString();
  // The chaos-soak gate: every final member holds valid model state,
  // bit-identical across members, fingerprinted for cross-run comparison.
  mreport.state_consistent = !mreport.final_members.empty();
  const std::vector<float>& canon = model_state[mreport.final_members[0]];
  for (const int node : mreport.final_members) {
    if (!state_valid[node] ||
        std::memcmp(model_state[node].data(), canon.data(), kStateBytes) !=
            0) {
      mreport.state_consistent = false;
      break;
    }
  }
  uint64_t fingerprint = 14695981039346656037ULL;  // FNV-1a offset basis
  const uint8_t* canon_bytes =
      reinterpret_cast<const uint8_t*>(canon.data());
  for (size_t b = 0; b < kStateBytes; ++b) {
    fingerprint ^= canon_bytes[b];
    fingerprint *= 1099511628211ULL;
  }
  mreport.model_fingerprint = fingerprint;
  metrics->gauge("membership.state_consistent")
      .Set(mreport.state_consistent ? 1.0 : 0.0);
  metrics->gauge("membership.final_members")
      .Set(static_cast<double>(mreport.final_members.size()));
  report.membership = mreport;
  if (membership_active) {
    // Joins/leaves make crash-count arithmetic wrong; the view is the
    // authority on who still contributes samples.
    report.surviving_nodes = membership.size();
    report.total_gpus = membership.size() * config.gpus_per_node;
  }
  const double iter_seconds = ToSeconds(measured_iter_time);
  if (iter_seconds > 0) {
    report.throughput = static_cast<double>(report.total_gpus) *
                        model.batch_per_gpu / iter_seconds;
    report.scaling_efficiency =
        static_cast<double>(compute_time) /
        static_cast<double>(measured_iter_time);
    report.comm_ratio =
        std::min(1.0, static_cast<double>(measured_sync_span) /
                          static_cast<double>(measured_iter_time));
    report.network_busy_ratio =
        std::min(1.0, static_cast<double>(measured_uplink_busy) /
                          static_cast<double>(measured_iter_time));
    report.rx_busy_ratio =
        std::min(1.0, static_cast<double>(measured_downlink_busy) /
                          static_cast<double>(measured_iter_time));
  }
  if (options.record_timeline) {
    report.timeline = gpus[0]->timeline();
  }
  if (watchdog) {
    report.health = watchdog->Finalize();
  }
  finalize_observability();
  return report;
}

}  // namespace hipress
