#include "src/train/trainer.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <optional>

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

// Elastic membership for the BSP loop (docs/FAULT_TOLERANCE.md). The
// manager keeps an epoch-numbered view of the live worker set; scheduled
// joins/leaves and crash rejoins apply at iteration boundaries (the engine
// is idle, so plans rebuild and the channel epoch advances without touching
// in-flight graphs). Each node carries a small replicated model state whose
// per-iteration delta is a pure function of (seed, iteration): live
// replicas stay bit-identical, a crashed replica is invalidated until a
// donor re-sync restores it, and a churned run must finish with exactly
// the churn-free run's state — the chaos-soak gate.
class ElasticMembership {
 public:
  // Callbacks hold `this`.
  ElasticMembership(const ElasticMembership&) = delete;
  ElasticMembership& operator=(const ElasticMembership&) = delete;
  ElasticMembership(const ModelProfile& model, const SyncConfig& config,
                    JobPlan* plan, Fabric* fabric, CaSyncEngine* engine)
      : config_(config),
        faults_(config.net.faults),
        plan_(plan),
        fabric_(*fabric),
        sim_(fabric->sim),
        engine_(*engine),
        channel_(engine->reliable_channel()),
        membership_(config.num_nodes, faults_.standby_nodes,
                    fabric->metrics.get()),
        state_seed_(faults_.seed ^ 0x6d6f64656cULL),  // "model"
        model_state_(static_cast<size_t>(config.num_nodes),
                     std::vector<float>(kStateFloats)),
        state_valid_(static_cast<size_t>(config.num_nodes), false),
        crash_processed_(faults_.crashes.size(), false),
        rejoined_(static_cast<size_t>(config.num_nodes), false),
        model_bytes_(std::accumulate(model.gradient_bytes.begin(),
                                     model.gradient_bytes.end(), uint64_t{0})),
        schedule_(faults_.membership),
        ev_member_(fabric->flight ? fabric->flight->Intern("member.change")
                                  : 0) {
    for (std::vector<float>& state : model_state_) {
      for (size_t j = 0; j < kStateFloats; ++j) {
        state[j] = static_cast<float>(FaultUniform(state_seed_, j));
      }
    }
    for (const int node : membership_.members()) {
      state_valid_[node] = true;
    }
    std::ranges::sort(schedule_, {}, [](const MembershipEvent& event) {
      return std::pair(event.at, event.node);
    });
  }

  // The view the next iteration starts over; its address is stable.
  const std::vector<int>& members() const { return membership_.members(); }

  // Applies crash evictions and every membership event due by now at an
  // iteration boundary, then calls `then`. Drains and donor re-syncs run
  // as events: each continues from its own completion.
  void Boundary(std::function<void()> then) {
    then_ = std::move(then);
    epoch_before_ = membership_.epoch();
    size_before_ = membership_.size();
    EvictCrashed();
    ApplyDue(sim_.now());
  }

  // Closes `round` for the replicas: counts rejoined nodes that computed,
  // then every surviving member applies the same (seed, iteration)-derived
  // delta, so live replicas stay bit-identical and a resynced joiner lands
  // on the churn-free sum. Ordinals start at kStateFloats (init draws).
  void StepReplicas(const JobSync::Round& round) {
    for (const int node : round.nodes) {
      if (rejoined_[node]) {
        rejoined_contrib_.Increment();
      }
    }
    InvalidateCrashed(round.end);
    for (const int node : membership_.members()) {
      if (!state_valid_[node] || engine_.node_failed(node)) {
        continue;
      }
      for (size_t j = 0; j < kStateFloats; ++j) {
        const uint64_t ordinal =
            static_cast<uint64_t>(round.iteration + 1) * kStateFloats + j;
        model_state_[node][j] +=
            static_cast<float>(FaultUniform(state_seed_, ordinal) - 0.5);
      }
    }
  }

  // Quiesces the view (crashes detected during the final iteration become
  // evictions, so it matches the epoch log) and reports it.
  MembershipReport Finish() {
    EvictCrashed();
    report_.enabled =
        !faults_.membership.empty() || !faults_.standby_nodes.empty();
    report_.final_epoch = membership_.epoch();
    report_.final_members = membership_.members();
    report_.joins = membership_.joins();
    report_.leaves = membership_.leaves();
    report_.crashes = membership_.crashes();
    report_.rejoins = membership_.rejoins();
    report_.rejoined_contributions = rejoined_contrib_.value();
    report_.event_log = membership_.LogString();
    // The chaos-soak gate: every final member holds valid model state,
    // bit-identical across members, fingerprinted for cross-run comparison.
    const std::vector<float>& canon = model_state_[report_.final_members[0]];
    report_.state_consistent =
        std::ranges::all_of(report_.final_members, [&](int node) {
          return state_valid_[node] &&
                 std::memcmp(model_state_[node].data(), canon.data(),
                             kStateBytes) == 0;
        });
    report_.model_fingerprint = Fnv1a(canon.data(), kStateBytes);
    metrics_.gauge("membership.state_consistent")
        .Set(report_.state_consistent ? 1.0 : 0.0);
    metrics_.gauge("membership.final_members")
        .Set(static_cast<double>(report_.final_members.size()));
    return report_;
  }

 private:
  static constexpr size_t kStateFloats = 32;
  static constexpr size_t kStateBytes = kStateFloats * sizeof(float);

  // Applies the events due by `due`, the boundary's time, from the next
  // one on; a drain or re-sync resumes here once its transfer completes.
  void ApplyDue(SimTime due) {
    while (next_event_ < schedule_.size() &&
           schedule_[next_event_].at <= due) {
      const MembershipEvent event = schedule_[next_event_++];
      if (event.kind == MembershipEventKind::kLeave) {
        if (!membership_.is_member(event.node) || membership_.size() <= 1) {
          continue;  // crashed before its planned leave; nothing to drain
        }
        // Planned drain: in-flight units already completed (the engine is
        // idle at a boundary); the leaver ships its partition share to the
        // lowest-id remaining member, then exits cleanly.
        const int successor =
            *std::ranges::find_if(membership_.members(),
                                  [&](int node) { return node != event.node; });
        const uint64_t share =
            model_bytes_ / static_cast<uint64_t>(membership_.size());
        const auto drained = [this, event, due](SimTime took) {
          membership_.Remove(event.node, MembershipChange::kLeave, sim_.now());
          state_valid_[event.node] = false;
          drains_.Increment();
          drain_ms_.Observe(ToMillis(took));
          report_.resync_time += took;
          if (fabric_.spans) {
            fabric_.spans->Add(event.node, kTraceLaneMembership,
                               StrFormat("leave node %d (drain)", event.node),
                               sim_.now() - took, sim_.now());
          }
          ApplyDue(due);
        };
        Transfer(event.node, successor, share, false, drained);
        return;
      }
      const bool is_rejoin = event.kind == MembershipEventKind::kRejoin;
      if (is_rejoin && membership_.is_member(event.node)) {
        // The crash this rejoin answers was never detected (no traffic
        // touched the corpse); evict it first so the epoch history
        // reflects the full crash->rejoin cycle.
        membership_.Remove(event.node, MembershipChange::kCrash, sim_.now());
      }
      if (membership_.is_member(event.node)) {
        continue;  // duplicate admit; validation rejects hand-written ones
      }
      if (is_rejoin) {
        engine_.ReviveNode(event.node);
      }
      // Donor re-sync: the lowest-id member streams current model state to
      // the (re)joining node over the pooled wire path.
      const int donor = membership_.members().front();
      const auto resynced = [this, event, is_rejoin, donor, due](SimTime took) {
        membership_.Admit(event.node,
                          is_rejoin ? MembershipChange::kRejoin
                                    : MembershipChange::kJoin,
                          sim_.now());
        resyncs_.Increment();
        resync_bytes_.Increment(model_bytes_);
        ++report_.resyncs;
        report_.resync_bytes += model_bytes_;
        report_.resync_time += took;
        resync_ms_.Observe(ToMillis(took));
        if (is_rejoin) {
          rejoined_[event.node] = true;
        }
        if (fabric_.spans) {
          fabric_.spans->Add(event.node, kTraceLaneMembership,
                             StrFormat("%s node %d (resync from %d)",
                                       is_rejoin ? "rejoin" : "join",
                                       event.node, donor),
                             sim_.now() - took, sim_.now());
        }
        ApplyDue(due);
      };
      Transfer(donor, event.node, model_bytes_, true, resynced);
      return;
    }
    if (membership_.epoch() != epoch_before_) {
      ViewChanged();
    }
    std::exchange(then_, nullptr)();
  }

  // Ships `bytes` of state from src to dst over the ReliableChannel (always
  // there: membership is fault injection) and calls `done` with the time
  // from send to the sender seeing the ack, or the send failing. The
  // payload carries src's replicated model state; `copy_state` installs it
  // on dst at delivery (donor re-sync); drains only account wire time.
  void Transfer(int src, int dst, uint64_t bytes, bool copy_state,
                std::function<void(SimTime)> done) {
    NetMessage message;
    message.src = src;
    message.dst = dst;
    message.bytes = std::max<uint64_t>(1, bytes);
    message.tag = 0xe1a0000 + static_cast<uint64_t>(membership_.epoch());
    message.payload = MakePooledPayload(
        {reinterpret_cast<const uint8_t*>(model_state_[src].data()),
         kStateBytes},
        fabric_.net.wire_pool());
    channel_->Send(
        std::move(message),
        [this, dst, copy_state](const NetMessage& delivered) {
          if (!copy_state) {
            return;
          }
          auto payload =
              std::static_pointer_cast<PooledBytes>(delivered.payload);
          std::memcpy(model_state_[dst].data(), payload->data(),
                      std::min<size_t>(payload->size(), kStateBytes));
          state_valid_[dst] = true;
        },
        [this, started = sim_.now(), done = std::move(done)](const Status&) {
          done(sim_.now() - started);
        });
  }

  // Invalidates the replicas crashed by now, and crash detections from the
  // reliable transport become membership evictions.
  void EvictCrashed() {
    InvalidateCrashed(sim_.now());
    for (const int node : engine_.failed_nodes()) {
      if (membership_.is_member(node) && membership_.size() > 1) {
        membership_.Remove(node, MembershipChange::kCrash, sim_.now());
        if (fabric_.spans) {
          fabric_.spans->Add(node, kTraceLaneMembership,
                             StrFormat("crash node %d", node), sim_.now(),
                             sim_.now());
        }
      }
    }
  }

  // Ground-truth crash bookkeeping: a replica inside a crash window loses
  // its state (until re-synced) whether or not the transport has blamed
  // the node yet.
  void InvalidateCrashed(SimTime upto) {
    for (size_t c = 0; c < faults_.crashes.size(); ++c) {
      if (!crash_processed_[c] && faults_.crashes[c].at <= upto) {
        crash_processed_[c] = true;
        state_valid_[faults_.crashes[c].node] = false;
      }
    }
  }

  // After the view changed: re-plans over it, advances the channel epoch,
  // and trims the wire pool when the view shrank.
  void ViewChanged() {
    const int new_size = membership_.size();
    if (fabric_.flight) {
      fabric_.flight->Record(0, ev_member_, sim_.now(), membership_.epoch(),
                             static_cast<uint64_t>(new_size));
    }
    // Messages stamped under the old view are now stale on delivery.
    channel_->set_epoch(membership_.epoch());
    if (plan_->adaptive) {
      if (plan_->adaptive->OnMembershipChange(new_size)) {
        plan_->AdoptAdaptivePlans();
      }
    } else if (new_size != size_before_ && config_.compression &&
               config_.secopa) {
      // Re-price every unit's <compress?, K> over the live view (the
      // SeCoPa cost terms and 2N partition cap depend on its size).
      SyncConfig live = config_;
      live.num_nodes = new_size;
      const SeCoPaPlanner planner(live, plan_->rate);
      for (SyncUnit& unit : plan_->units) {
        const SyncPlan priced = planner.Plan(unit.bytes);
        unit.plan.compress = priced.compress;
        unit.plan.partitions = priced.partitions;
      }
    }
    if (new_size < size_before_) {
      // Shrunken view: release the wire pool's peak-size buckets but keep
      // the proportional warm share so the smaller cluster stays miss-free
      // (watermark Trim, docs/MEMORY.md).
      const BufferPool::Stats wire = fabric_.net.wire_pool()->stats();
      const size_t keep = static_cast<size_t>(wire.free_bytes) *
                          static_cast<size_t>(new_size) /
                          static_cast<size_t>(size_before_);
      pool_trimmed_.Increment(fabric_.net.wire_pool()->Trim(keep));
    }
  }

  const SyncConfig& config_;
  const FaultConfig& faults_;
  JobPlan* plan_;
  Fabric& fabric_;
  Simulator& sim_;
  CaSyncEngine& engine_;
  ReliableChannel* channel_;
  MembershipManager membership_;
  const uint64_t state_seed_;
  std::vector<std::vector<float>> model_state_;
  std::vector<bool> state_valid_;
  std::vector<bool> crash_processed_;
  std::vector<bool> rejoined_;
  uint64_t model_bytes_ = 0;
  std::vector<MembershipEvent> schedule_;
  size_t next_event_ = 0;
  // The boundary in progress: the view before it, and what runs after.
  uint64_t epoch_before_ = 0;
  int size_before_ = 0;
  std::function<void()> then_;
  MembershipReport report_;
  const uint16_t ev_member_;
  MetricsRegistry& metrics_ = *fabric_.metrics;
  Counter& resyncs_ = metrics_.counter("membership.resyncs");
  Counter& resync_bytes_ = metrics_.counter("membership.resync_bytes");
  Counter& drains_ = metrics_.counter("membership.drains");
  Counter& rejoined_contrib_ =
      metrics_.counter("membership.rejoined_contributions");
  Counter& pool_trimmed_ = metrics_.counter("membership.pool_trimmed_bytes");
  Histogram& resync_ms_ = metrics_.histogram(
      "membership.resync_ms", HistogramBuckets::Exponential(0.125, 2.0, 16));
  Histogram& drain_ms_ = metrics_.histogram(
      "membership.drain_ms", HistogramBuckets::Exponential(0.125, 2.0, 16));
};

}  // namespace

StatusOr<TrainReport> SimulateTraining(const ModelProfile& model,
                                       const SyncConfig& config,
                                       const TrainOptions& options) {
  RETURN_IF_ERROR(ValidateJob(model, config,
                              {.staleness = options.staleness,
                               .adaptive = options.adaptive.enabled}));
  ASSIGN_OR_RETURN(JobPlan plan, PlanJob(model, config, options.adaptive));
  const SimTime compute_time = plan.compute_time;
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
  const uint16_t ev_iter_start = flight ? flight->Intern("iter.start") : 0;
  const uint16_t ev_iter_end = flight ? flight->Intern("iter.end") : 0;
  const uint16_t ev_recovery = flight ? flight->Intern("train.recovery") : 0;
  // Straggler: its shard gates every gradient's aggregation, so sync
  // launches follow the slow node's timeline and the barrier waits for its
  // compute.
  JobSync sync(&fabric, &engine, config, &plan,
               {.straggler_node = options.straggler_node,
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
  Histogram& recovery_ms = metrics->histogram(
      "train.recovery_ms", HistogramBuckets::Exponential(0.125, 2.0, 16));
  // StragglerSkewMs of the latest iteration.
  Gauge& straggler_skew = metrics->gauge("train.straggler_skew_ms");
  // Wire-pool misses during the latest iteration (delta of the cumulative
  // net.pool_misses counter): 0 in steady state once every link has
  // flushed a batch — the mem.step_pool_misses invariant, applied to the
  // wire path (batch frames, retransmit payloads, staging copies).
  Gauge& step_wire_pool_misses = metrics->gauge("net.step_pool_misses");
  // Recovery latency: failure detection to the degraded barrier.
  auto add_recovery_window = [&](SimTime started_at, SimTime end) {
    report.recovery_time += end - started_at;
    recovery_ms.Observe(ToMillis(end - started_at));
  };

  // SSP: iterations pipeline under the staleness bound; the compute stream
  // still serializes them, so the win is hiding the sync tail.
  const bool ssp = options.staleness > 0;
  const int ssp_iterations =
      ssp ? std::max(options.iterations, options.staleness + 3) : 0;
  std::vector<SimTime> ssp_sync_end(static_cast<size_t>(ssp_iterations));
  std::vector<int> all_nodes(static_cast<size_t>(config.num_nodes));
  std::iota(all_nodes.begin(), all_nodes.end(), 0);

  // BSP: iteration k starts at iteration k-1's barrier, once the
  // membership boundary has applied evictions, drains and re-syncs.
  std::optional<ElasticMembership> elastic;
  // Windowed telemetry + health watchdog (docs/OBSERVABILITY.md): series
  // are fed once per iteration boundary — the trainer-observed signals
  // directly, the attached registry metrics via SampleAll — and the rules
  // compare each iteration's newest window against the run's own rolling
  // history, so trips replay deterministically for a fixed seed.
  TimeSeriesHub hub;
  std::unique_ptr<HealthMonitor> watchdog;
  CostSampleStats send_stats_prev;
  // Bases of the measured iteration's deltas, taken before its boundary.
  SimTime uplink_busy_before = 0;
  SimTime downlink_busy_before = 0;
  EngineStats stats_before;
  uint64_t wire_misses_before = 0;

  // Runs iteration `iteration`'s membership boundary now, then `start`s it.
  auto begin_iteration = [&](int iteration, std::function<void()> start) {
    uplink_busy_before = net.uplink_busy(0);
    downlink_busy_before = net.downlink_busy(0);
    stats_before = engine.stats();
    wire_misses_before = net.wire_pool()->stats().misses;
    elastic->Boundary([&, iteration, start = std::move(start)] {
      if (flight) {
        flight->Record(0, ev_iter_start, sim.now(),
                       static_cast<uint64_t>(iteration));
      }
      start();
    });
  };

  // Closes a BSP iteration at its barrier, then begins the next one.
  auto close_iteration = [&](JobSync::Round& round,
                             std::function<void()> next) {
    const int iteration = round.iteration;
    const SimTime iter_start = round.compute_start;
    const SimTime end = round.end;
    const SimTime recovery_started_at = round.recovery_started_at;
    const bool measured = iteration == options.iterations - 1;
    if (recovery_started_at >= 0) {
      add_recovery_window(recovery_started_at, end);
      if (spans) {
        spans->Add(0, kTraceLaneRecovery,
                   StrFormat("recovery (%zu node(s) failed)",
                             engine.failed_nodes().size()),
                   recovery_started_at, end);
      }
    }
    elastic->StepReplicas(round);
    const SimTime sync_end = round.sync_end;
    StepRecord step;
    step.straggler_skew_ms =
        StragglerSkewMs(round.graphs, config.num_nodes, iter_start);
    // Critical-path attribution of this iteration's window, over every
    // graph that executed (recovery rebuilds included); the per-category
    // milliseconds sum to the iteration time by construction. Then the
    // adaptive decision boundary (the engine is idle), and the round is
    // released.
    AdaptiveDecision decision;
    const IterationAttribution attrib = sync.Finish(&round, &decision);
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
      report.timeline_origin = iter_start;
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
    // the same windowed estimate the adaptive controller plans from. The
    // attached registry counters read what the components published.
    if (watchdog) {
      hub.Series("train.iteration_ms").Observe(end, ToMillis(end - iter_start));
      const CostSampleStats send_now =
          engine.auditor().Snapshot(CostPrimitive::kSend);
      const CostSampleStats send_delta = send_now.Since(send_stats_prev);
      send_stats_prev = send_now;
      if (send_delta.count > 0) {
        hub.Series("net.send_gbps")
            .Observe(end, send_delta.MeanThroughput() * 8.0 / 1e9);
      }
      metrics->gauge("cp.share.send")
          .Set(attrib.attribution.Share(CpCategory::kSend));
      sim.RunPublishHooks();
      hub.SampleAll(end);
      watchdog->Evaluate(end);
    }
    if (flight) {
      flight->Record(0, ev_iter_end, end, static_cast<uint64_t>(iteration),
                     static_cast<uint64_t>(end - iter_start));
      if (recovery_started_at >= 0) {
        flight->Record(0, ev_recovery, end, static_cast<uint64_t>(iteration),
                       static_cast<uint64_t>(end - recovery_started_at));
      }
    }
    iterations_counter.Increment();
    iteration_ms.Observe(ToMillis(end - iter_start));
    sync_tail_ms.Observe(
        ToMillis(std::max<SimTime>(0, end - (iter_start + compute_time))));
    step_wire_pool_misses.Set(static_cast<double>(
        net.wire_pool()->stats().misses - wire_misses_before));
    if (!measured) {
      begin_iteration(iteration + 1, std::move(next));
      return;
    }
    const SimTime iter_time = end - iter_start;
    const SimTime uplink_busy = net.uplink_busy(0) - uplink_busy_before;
    const SimTime downlink_busy = net.downlink_busy(0) - downlink_busy_before;
    if (spans && iter_time > 0) {
      // Busy-occupancy bars for node 0's two link sides: bar length is the
      // serialization time accrued this iteration, so it reads directly
      // against the iteration span above it.
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
        std::ranges::min(plan.units, {}, &SyncUnit::ready_offset)
            .ready_offset;
    const SimTime sync_span =
        std::max<SimTime>(0, sync_end - (iter_start + first_launch));
    auto share = [iter_time](SimTime part) {
      return iter_time > 0 ? std::min(1.0, static_cast<double>(part) /
                                               static_cast<double>(iter_time))
                           : 0.0;
    };
    report.iteration_time = iter_time;
    report.sync_tail = std::max<SimTime>(0, end - (iter_start + compute_time));
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
  };

  if (ssp) {
    sync.Drive(&all_nodes, ssp_iterations, options.staleness,
               [&](JobSync::Round& round, std::function<void()> next) {
                 ssp_sync_end[round.iteration] = round.sync_end;
                 if (round.recovery_started_at >= 0) {
                   add_recovery_window(round.recovery_started_at,
                                       round.sync_end);
                 }
                 next();
               });
  } else {
    elastic.emplace(model, config, &plan, &fabric, &engine);
    if (options.observability.watchdog) {
      hub.AttachCounter(metrics.get(), "net.retries");
      hub.AttachCounter(metrics.get(), "net.pool_misses");
      hub.AttachGauge(metrics.get(), "cp.share.send");
      if (adaptive) {
        hub.AttachGauge(metrics.get(), "adaptive.observed_gbps");
      }
      watchdog = fabric.MakeWatchdog(&hub);
      for (HealthRule& rule : HealthMonitor::DefaultTrainerRules()) {
        watchdog->AddRule(std::move(rule));
      }
    }
    begin_iteration(0, [&] {
      sync.Drive(&elastic->members(), options.iterations, 0, close_iteration);
    });
  }
  sim.Run();
  // Fault summary, on every path: the nodes the transport declared failed
  // and the unit graphs rebuilt over the survivors.
  report.recoveries = sync.recoveries();
  metrics->counter("train.recoveries").Increment(report.recoveries);
  report.failed_nodes = engine.failed_nodes();
  report.degraded = !report.failed_nodes.empty();
  report.surviving_nodes =
      config.num_nodes - static_cast<int>(report.failed_nodes.size());
  if (report.degraded) {
    // Only the survivors still contribute samples.
    report.total_gpus = report.surviving_nodes * config.gpus_per_node;
  }
  if (ssp) {
    // Steady-state average over the pipelined window (skip iteration 0).
    report.iteration_time =
        (ssp_sync_end.back() - ssp_sync_end[0]) / (ssp_iterations - 1);
    for (int k = 1; k < ssp_iterations; ++k) {
      iterations_counter.Increment();
      iteration_ms.Observe(ToMillis(ssp_sync_end[k] - ssp_sync_end[k - 1]));
    }
    report.engine_stats = engine.stats();
  } else {
    if (adaptive) {
      report.adaptive = adaptive->Report();
    }
    report.membership = elastic->Finish();
    if (report.membership.enabled) {
      // Joins/leaves make crash-count arithmetic wrong; the view is the
      // authority on who still contributes samples.
      report.surviving_nodes =
          static_cast<int>(report.membership.final_members.size());
      report.total_gpus = report.surviving_nodes * config.gpus_per_node;
    }
    if (options.record_timeline) {
      report.timeline = gpus[0]->timeline();
    }
    if (watchdog) {
      report.health = watchdog->Finalize();
    }
  }

  // Throughput and scaling efficiency of report.iteration_time over the
  // contributing GPUs, then the run's gauges.
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
  return report;
}

}  // namespace hipress
