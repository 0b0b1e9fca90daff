#include "src/train/trainer.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "src/common/string_util.h"
#include "src/net/membership.h"
#include "src/train/job_plan.h"

namespace hipress {
namespace {

// Straggler skew: per-node offset of the last sync-task completion after
// `start`, max minus median across the nodes that synchronized (0 on a
// balanced cluster; rises under stragglers and degraded links).
double StragglerSkewMs(const std::vector<std::unique_ptr<TaskGraph>>& graphs,
                       int num_nodes, SimTime start) {
  std::vector<SimTime> last_end(static_cast<size_t>(num_nodes),
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
      offsets.push_back(t - start);
    }
  }
  if (offsets.size() < 2) {
    return 0.0;
  }
  std::sort(offsets.begin(), offsets.end());
  const size_t n = offsets.size();
  const SimTime median = n % 2 == 1
                             ? offsets[n / 2]
                             : (offsets[n / 2 - 1] + offsets[n / 2]) / 2;
  return ToMillis(offsets.back() - median);
}

}  // namespace

StatusOr<TrainReport> SimulateTraining(const ModelProfile& model,
                                       const SyncConfig& config,
                                       const TrainOptions& options) {
  RETURN_IF_ERROR(ValidateJob(model, config,
                              {.staleness = options.staleness,
                               .adaptive = options.adaptive.enabled}));
  const FaultConfig& faults = config.net.faults;
  const bool membership_active =
      !faults.membership.empty() || !faults.standby_nodes.empty();

  ASSIGN_OR_RETURN(JobPlan plan, PlanJob(model, config, options.adaptive));
  const SimTime compute_time = plan.compute_time;
  std::vector<SyncUnit>& units = plan.units;
  AdaptiveController* const adaptive = plan.adaptive.get();

  Fabric fabric(config.num_nodes, config.net, options.record_timeline,
                options.observability);
  Simulator& sim = fabric.sim;
  Network& net = fabric.net;
  const std::vector<GpuDevice*>& gpus = fabric.gpus;
  const std::shared_ptr<MetricsRegistry>& metrics = fabric.metrics;
  const std::shared_ptr<SpanCollector>& spans = fabric.spans;
  const std::shared_ptr<FlightRecorder>& flight = fabric.flight;
  CaSyncEngine engine(&sim, &net, gpus, config, metrics.get(), spans.get());
  auto intern = [&flight](const char* name) -> uint16_t {
    return flight ? flight->Intern(name) : 0;
  };
  const uint16_t ev_iter_start = intern("iter.start");
  const uint16_t ev_iter_end = intern("iter.end");
  const uint16_t ev_recovery = intern("train.recovery");
  const uint16_t ev_member = intern("member.change");
  if (flight && engine.reliable_channel() != nullptr) {
    engine.reliable_channel()->set_flight_recorder(flight.get());
  }
  // Straggler: its shard gates every gradient's aggregation, so sync
  // launches follow the slow node's timeline and the barrier waits for its
  // compute.
  JobSync sync(&fabric, &engine, config, &plan,
               {.launch_overhead = options.launch_overhead,
                .straggler_node = options.straggler_node,
                .straggler_factor = options.straggler_factor});

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
  // StragglerSkewMs of the latest iteration.
  Gauge& straggler_skew = metrics->gauge("train.straggler_skew_ms");
  // Wire-pool misses during the latest iteration (delta of the cumulative
  // net.pool_misses counter): 0 in steady state once every link has
  // flushed a batch — the mem.step_pool_misses invariant, applied to the
  // wire path (batch frames, retransmit payloads, staging copies).
  Gauge& step_wire_pool_misses = metrics->gauge("net.step_pool_misses");
  // Fault summary, on every path: the nodes the transport declared failed
  // and the unit graphs rebuilt over the survivors.
  auto report_faults = [&] {
    report.recoveries = sync.recoveries();
    recoveries_counter.Increment(report.recoveries);
    report.failed_nodes = engine.failed_nodes();
    report.degraded = !report.failed_nodes.empty();
    report.surviving_nodes =
        config.num_nodes - static_cast<int>(report.failed_nodes.size());
    if (report.degraded) {
      // Only the survivors still contribute samples.
      report.total_gpus = report.surviving_nodes * config.gpus_per_node;
    }
  };
  // Recovery latency: failure detection to the degraded barrier.
  auto add_recovery_window = [&](SimTime started_at, SimTime end) {
    report.recovery_time += end - started_at;
    recovery_ms.Observe(ToMillis(end - started_at));
  };
  // Throughput and scaling efficiency of report.iteration_time over the
  // contributing GPUs, then the run's gauges.
  auto finalize_observability = [&] {
    const double seconds = ToSeconds(report.iteration_time);
    if (seconds > 0) {
      report.throughput = static_cast<double>(report.total_gpus) *
                          model.batch_per_gpu / seconds;
      report.scaling_efficiency = static_cast<double>(compute_time) /
                                  static_cast<double>(report.iteration_time);
    }
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
    fabric.Finish();
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
    std::vector<SimTime> sync_end(total_iterations, -1);  // -1: in flight
    std::vector<int> nodes(static_cast<size_t>(config.num_nodes));
    std::iota(nodes.begin(), nodes.end(), 0);
    int started = 0;
    std::function<void()> start_ready_iterations = [&] {
      while (started < total_iterations) {
        const int k = started;
        const int gate = k - 1 - options.staleness;
        if (gate >= 0 && sync_end[gate] < 0) {
          return;
        }
        ++started;
        sync.Start(nodes, [&, k](const JobSync::Round& round) {
          sync_end[k] = round.sync_end;
          if (round.recovery_started_at >= 0) {
            add_recovery_window(round.recovery_started_at, round.sync_end);
          }
          start_ready_iterations();
        });
      }
    };
    sim.Schedule(0, start_ready_iterations);
    sim.Run();
    report_faults();

    // Steady-state average over the pipelined window (skip iteration 0).
    report.iteration_time =
        (sync_end[total_iterations - 1] - sync_end[0]) / (total_iterations - 1);
    for (int k = 1; k < total_iterations; ++k) {
      iterations_counter.Increment();
      iteration_ms.Observe(ToMillis(sync_end[k] - sync_end[k - 1]));
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
    const SeCoPaPlanner live_planner(elastic_config, plan.rate);
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
        plan.AdoptAdaptivePlans();
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
    watchdog = fabric.MakeWatchdog(&hub);
    for (HealthRule& rule : HealthMonitor::DefaultTrainerRules()) {
      watchdog->AddRule(std::move(rule));
    }
  }

  SimTime iter_start = 0;

  for (int iteration = 0; iteration < options.iterations; ++iteration) {
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

    // One starter event at the iteration boundary submits compute and arms
    // the per-gradient sync launches, so all offsets are iteration-relative.
    // The participants are the current view minus any node the transport
    // declared failed since the boundary.
    JobSync::Round* round = nullptr;
    sim.ScheduleAt(iter_start, [&] {
      round = sync.Start(current_members, nullptr);
      for (const int node : round->nodes) {
        if (rejoined[node]) {
          // A node that crashed, re-synced and rejoined is computing again.
          rejoined_contrib_counter.Increment();
        }
      }
    });

    sim.Run();
    const SimTime sync_end = round->sync_end;
    const SimTime end = round->end;
    const SimTime recovery_started_at = round->recovery_started_at;
    if (recovery_started_at >= 0) {
      add_recovery_window(recovery_started_at, end);
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
    {
      StepRecord step;
      step.straggler_skew_ms =
          StragglerSkewMs(round->graphs, config.num_nodes, iter_start);
      // Critical-path attribution of this iteration's window, over every
      // graph that executed (recovery rebuilds included); the per-category
      // milliseconds sum to the iteration time by construction. Then the
      // adaptive decision boundary (sim.Run drained, so the engine is
      // idle), and the graphs are released.
      AdaptiveDecision decision;
      const IterationAttribution attrib =
          sync.Finish(round, iteration, &decision);
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
      straggler_skew.Set(step.straggler_skew_ms);
      report.steps.push_back(step);
      if (measured) {
        report.cp_attribution = attrib.attribution;
        if (spans) {
          AddCriticalPathSpans(attrib.path, iter_start, /*compute_node=*/0,
                               spans.get());
        }
      }
      if (adaptive) {
        metrics->gauge("adaptive.send_share").Set(decision.send_share);
        metrics->gauge("adaptive.observed_gbps").Set(decision.observed_gbps);
        metrics->gauge("adaptive.planned_gbps").Set(decision.planned_gbps);
        metrics->gauge("adaptive.compressed_units")
            .Set(static_cast<double>(decision.compressed_units));
        if (decision.replanned) {
          metrics->counter("adaptive.replans").Increment();
          metrics->counter("adaptive.replanned_units")
              .Increment(static_cast<uint64_t>(decision.replanned_units));
          if (decision.codec_switched) {
            metrics->counter("adaptive.codec_switches").Increment();
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
      const SimTime iter_time = end - iter_start;
      const SimTime uplink_busy = net.uplink_busy(0) - uplink_busy_before;
      const SimTime downlink_busy =
          net.downlink_busy(0) - downlink_busy_before;
      if (spans && iter_time > 0) {
        // Busy-occupancy bars for node 0's two link sides: bar length is
        // the serialization time accrued this iteration, so it reads
        // directly against the iteration span above it.
        const double iter_span = static_cast<double>(iter_time);
        spans->Add(
            0, kTraceLaneLinkBusy,
            StrFormat("uplink-busy %.1f%%",
                      100.0 * static_cast<double>(uplink_busy) / iter_span),
            iter_start, iter_start + uplink_busy);
        spans->Add(
            0, kTraceLaneLinkBusy,
            StrFormat("downlink-busy %.1f%%",
                      100.0 * static_cast<double>(downlink_busy) / iter_span),
            iter_start, iter_start + downlink_busy);
      }
      // Synchronization span: from the first gradient's sync launch to the
      // last gradient's completion (the paper's communication-time metric
      // counts the whole synchronization window, overlapped or not).
      const SimTime first_launch =
          plan.forward +
          std::ranges::min(units, {}, &SyncUnit::ready_offset).ready_offset;
      const SimTime sync_span =
          std::max<SimTime>(0, sync_end - (iter_start + first_launch));
      auto share = [iter_time](SimTime part) {
        return iter_time > 0 ? std::min(1.0, static_cast<double>(part) /
                                                 static_cast<double>(iter_time))
                             : 0.0;
      };
      report.iteration_time = iter_time;
      report.sync_tail =
          std::max<SimTime>(0, end - (iter_start + compute_time));
      report.comm_ratio = share(sync_span);
      report.network_busy_ratio = share(uplink_busy);
      report.rx_busy_ratio = share(downlink_busy);
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

  if (adaptive) {
    report.adaptive = adaptive->Report();
  }
  report_faults();
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
  mreport.model_fingerprint = Fnv1a(canon.data(), kStateBytes);
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
