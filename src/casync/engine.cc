#include "src/casync/engine.h"

#include <functional>
#include <span>
#include <utility>

#include "src/common/logging.h"
#include "src/common/string_util.h"

namespace hipress {
namespace {

// Bulk coordinator flush triggers (§3.2, whichever is met first): queued
// bytes reach the size threshold, or the timeout passes after the first
// enqueue into an empty queue.
constexpr uint64_t kBulkSizeThreshold = 8 * kMiB;
constexpr SimTime kBulkTimeout = FromMicros(150.0);

// The network message for a send task. A real-data send (non-null `data`)
// hands over its payload, and the returned hook (empty for timing-only
// sends) fires the task's receiver-side deliver hook with the delivered
// payload bytes.
NetMessage SendMessage(const TaskRecord& send, TaskData* data,
                       std::function<void(const NetMessage&)>* on_deliver) {
  NetMessage message;
  message.src = send.node;
  message.dst = send.peer;
  message.bytes = send.bytes;
  message.tag = send.gradient_id;
  if (data != nullptr) {
    message.payload = std::move(data->payload);
    if (data->deliver) {
      *on_deliver = [on_payload = data->deliver](const NetMessage& delivered) {
        auto bytes = std::static_pointer_cast<PooledBytes>(delivered.payload);
        on_payload(bytes != nullptr ? bytes->span()
                                    : std::span<const uint8_t>());
      };
    }
  }
  return message;
}

}  // namespace

const char* StrategyKindName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kPs:
      return "ps";
    case StrategyKind::kRing:
      return "ring";
    case StrategyKind::kTree:
      return "tree";
  }
  return "unknown";
}

CaSyncEngine::CaSyncEngine(Simulator* sim, Network* net,
                           std::vector<GpuDevice*> gpus,
                           const SyncConfig& config, MetricsRegistry* metrics,
                           SpanCollector* spans)
    : sim_(sim),
      net_(net),
      gpus_(std::move(gpus)),
      config_(config),
      publish_hook_(sim, [this] { PublishMetrics(); }) {
  CHECK_EQ(static_cast<int>(gpus_.size()), config_.num_nodes);
  codec_speed_ =
      GetCodecSpeed(config_.algorithm, config_.codec_impl, config_.platform);
  merge_cost_ = GetMergeCost(config_.platform);
  // The lines the planner prices with become the audit baselines; every
  // executed task then lands a measured sample next to them.
  auditor_.SetPrediction(CostPrimitive::kEncode, codec_speed_.encode);
  auditor_.SetPrediction(CostPrimitive::kDecode, codec_speed_.decode);
  auditor_.SetPrediction(CostPrimitive::kMerge, merge_cost_);
  auditor_.SetPrediction(
      CostPrimitive::kSend,
      KernelCost{config_.net.path_latency() + config_.net.per_message_overhead,
                 config_.net.effective_bandwidth().bytes_per_second()});
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  auto bind = [metrics](PrimitiveTally* tally, const char* name) {
    tally->tasks_metric = CounterPublisher(
        &metrics->counter(StrFormat("engine.%s_tasks", name)));
    tally->time_metric = CounterPublisher(
        &metrics->counter(StrFormat("engine.%s_time_ns", name)));
    tally->duration_us = LocalHistogram(
        &metrics->histogram(StrFormat("engine.%s_us", name)));
  };
  bind(&encode_, "encode");
  bind(&decode_, "decode");
  bind(&merge_, "merge");
  send_tasks_metric_ =
      CounterPublisher(&metrics_->counter("engine.send_tasks"));
  wire_bytes_metric_ =
      CounterPublisher(&metrics_->counter("engine.wire_bytes"));
  send_bytes_ = LocalHistogram(&metrics_->histogram(
      "engine.send_bytes", HistogramBuckets::DefaultBytes()));
  if (config_.bulk) {
    coordinator_ = std::make_unique<BulkCoordinator>(
        sim_, net_, kBulkSizeThreshold, kBulkTimeout, metrics_, spans);
  }
  graphs_cancelled_ = &metrics_->counter("engine.graphs_cancelled");
  if (config_.net.faults.any()) {
    reliable_ = std::make_unique<ReliableChannel>(sim_, net_, config_.reliable,
                                                  metrics_, spans);
    reliable_->set_on_peer_failure([this](int peer) { OnPeerFailure(peer); });
    if (coordinator_ != nullptr) {
      coordinator_->set_channel(reliable_.get());
    }
  }
  serial_.reserve(gpus_.size());
  for (size_t node = 0; node < gpus_.size(); ++node) {
    serial_.push_back(std::make_unique<SimResource>(
        sim_, StrFormat("serial/%zu", node)));
  }
}

CaSyncEngine::~CaSyncEngine() { PublishMetrics(); }

void CaSyncEngine::PublishMetrics() {
  for (PrimitiveTally* tally : {&encode_, &decode_, &merge_}) {
    tally->tasks_metric.Publish(tally->tasks);
    tally->time_metric.Publish(static_cast<uint64_t>(tally->time));
    tally->duration_us.Publish();
  }
  send_tasks_metric_.Publish(send_tasks_);
  wire_bytes_metric_.Publish(wire_bytes_);
  send_bytes_.Publish();
}

SimTime CaSyncEngine::compute_busy(int node) const {
  return gpus_[node]->busy_time(GpuDevice::kKernelStream);
}

size_t CaSyncEngine::graph_records_in_use() const {
  size_t in_use = 0;
  for (const RunningGraph* running = active_head_; running != nullptr;
       running = running->next) {
    ++in_use;
  }
  return in_use;
}

bool CaSyncEngine::Idle() const {
  for (const RunningGraph* running = active_head_; running != nullptr;
       running = running->next) {
    if (!running->done_fired) {
      return false;
    }
  }
  return coordinator_ == nullptr || coordinator_->Idle();
}

void CaSyncEngine::ApplyCodec(const std::string& algorithm, CodecImpl impl,
                              const CodecSpeed& speed) {
  CHECK(Idle()) << "codec swap with task graphs in flight: plans already "
                   "executing were priced under the previous codec";
  config_.algorithm = algorithm;
  config_.codec_impl = impl;
  codec_speed_ = speed;
  auditor_.SetPrediction(CostPrimitive::kEncode, codec_speed_.encode);
  auditor_.SetPrediction(CostPrimitive::kDecode, codec_speed_.decode);
}

void CaSyncEngine::ReviveNode(int node) {
  CHECK(Idle()) << "rejoin with task graphs in flight: active graphs were "
                   "built over the pre-rejoin membership";
  CHECK_GE(node, 0);
  CHECK_LT(node, static_cast<int>(gpus_.size()));
  if (reliable_ != nullptr) {
    reliable_->ReinstatePeer(node);
  }
}

const std::vector<int>& CaSyncEngine::failed_nodes() const {
  static const std::vector<int> kNone;
  return reliable_ != nullptr ? reliable_->failed_peers() : kNone;
}

EngineStats CaSyncEngine::stats() const {
  EngineStats stats;
  stats.encode_tasks = encode_.tasks;
  stats.decode_tasks = decode_.tasks;
  stats.merge_tasks = merge_.tasks;
  stats.send_tasks = send_tasks_;
  stats.encode_time = encode_.time;
  stats.decode_time = decode_.time;
  stats.merge_time = merge_.time;
  stats.wire_bytes = wire_bytes_;
  return stats;
}

void CaSyncEngine::Execute(TaskGraph* graph, std::function<void()> on_done) {
  Execute(graph, [on_done = std::move(on_done)](const Status&) {
    if (on_done) {
      on_done();
    }
  });
}

void CaSyncEngine::Execute(TaskGraph* graph,
                           std::function<void(const Status&)> on_done) {
  if (graph->size() == 0) {
    if (on_done) {
      on_done(OkStatus());
    }
    return;
  }
  // A graph that talks to an already-failed node can never complete; fail
  // it up front so the caller rebuilds over the survivors immediately.
  if (!failed_nodes().empty()) {
    for (const TaskRecord& task : graph->tasks()) {
      const bool dead_node = task.node >= 0 && node_failed(task.node);
      const bool dead_peer = task.peer >= 0 && node_failed(task.peer);
      if (dead_node || dead_peer) {
        graphs_cancelled_->Increment();
        if (on_done) {
          on_done(UnavailableError(
              StrFormat("graph involves failed node %d",
                        dead_node ? task.node : task.peer)));
        }
        return;
      }
    }
  }
  RunningGraph* running = AcquireGraph();
  running->graph = graph;
  running->remaining = graph->size();
  running->on_done = std::move(on_done);
  // Snapshot the roots before dispatching: barriers complete synchronously
  // and may drop another task's dependency count to zero mid-scan, which
  // dispatches it from Complete(); re-dispatching it here would run it
  // twice. The snapshot borrows the engine's buffer, so a warm engine
  // allocates nothing here; an Execute nested in an on_done fired
  // mid-dispatch finds the buffer moved out and starts an empty one.
  std::vector<TaskId> roots = std::move(roots_buffer_);
  roots.clear();
  for (TaskId id = 0; id < graph->size(); ++id) {
    if (graph->task(id).pending_deps == 0) {
      roots.push_back(id);
    }
  }
  // Hold the record while the roots dispatch: the graph may finish
  // synchronously (all-barrier graphs) before the loop ends.
  ++running->outstanding;
  for (const TaskId id : roots) {
    Dispatch(running, id);
  }
  roots_buffer_ = std::move(roots);
  --running->outstanding;
  MaybeRelease(running);
}

CaSyncEngine::RunningGraph* CaSyncEngine::AcquireGraph() {
  RunningGraph* running = free_graphs_;
  if (running != nullptr) {
    free_graphs_ = running->next;
  } else {
    graph_records_.push_back(std::make_unique<RunningGraph>());
    running = graph_records_.back().get();
    running->engine = this;
  }
  running->done_fired = false;
  running->outstanding = 0;
  running->prev = active_tail_;
  running->next = nullptr;
  if (active_tail_ != nullptr) {
    active_tail_->next = running;
  } else {
    active_head_ = running;
  }
  active_tail_ = running;
  return running;
}

void CaSyncEngine::MaybeRelease(RunningGraph* running) {
  if (!running->done_fired || running->outstanding > 0) {
    return;
  }
  if (running->prev != nullptr) {
    running->prev->next = running->next;
  } else {
    active_head_ = running->next;
  }
  if (running->next != nullptr) {
    running->next->prev = running->prev;
  } else {
    active_tail_ = running->prev;
  }
  running->graph = nullptr;
  running->prev = nullptr;
  running->next = free_graphs_;
  free_graphs_ = running;
}

SimTime CaSyncEngine::ComputeDuration(const TaskRecord& task) const {
  switch (task.type) {
    case PrimitiveType::kEncode:
      return codec_speed_.encode.Time(task.bytes);
    case PrimitiveType::kDecode:
      return codec_speed_.decode.Time(task.bytes);
    case PrimitiveType::kMerge:
      return merge_cost_.Time(task.bytes);
    default:
      return 0;
  }
}

void CaSyncEngine::Dispatch(RunningGraph* running, TaskId id) {
  if (running->done_fired) {
    return;  // cancelled graph: nothing new leaves the task manager
  }
  TaskRecord& task = running->graph->task(id);
  task.ready_time = sim_->now();
  switch (task.type) {
    case PrimitiveType::kEncode:
    case PrimitiveType::kDecode:
    case PrimitiveType::kMerge: {
      const SimTime duration = ComputeDuration(task);
      ++running->outstanding;
      auto done = [running, id] { running->engine->KernelDone(running, id); };
      GpuTaskKind kind = GpuTaskKind::kMerge;
      CostPrimitive primitive = CostPrimitive::kMerge;
      PrimitiveTally* tally = &merge_;
      if (task.type == PrimitiveType::kEncode) {
        kind = GpuTaskKind::kEncode;
        primitive = CostPrimitive::kEncode;
        tally = &encode_;
      } else if (task.type == PrimitiveType::kDecode) {
        kind = GpuTaskKind::kDecode;
        primitive = CostPrimitive::kDecode;
        tally = &decode_;
      }
      ++tally->tasks;
      tally->time += duration;
      tally->duration_us.Observe(static_cast<double>(duration) /
                                 kMicrosecond);
      auditor_.AddSample(primitive, task.bytes, duration);
      if (config_.pipelining) {
        // CaSync: a dedicated kernel queue (the paper adds a task queue and
        // scheduling thread to each DNN system) overlaps compression with
        // both DNN compute and communication.
        task.start_time = gpus_[task.node]->SubmitKernel(kind, duration, done);
      } else if (config_.codec_on_compute_stream) {
        // OSS engine integrations (BytePS/MXNet) push codec ops through the
        // framework's single execution queue: they contend with backward
        // computation on the device and cannot hide behind it.
        task.start_time = gpus_[task.node]->Submit(GpuDevice::kComputeStream,
                                                   kind, duration, done);
      } else {
        // OSS allreduce-path integrations (TF Ring-DGC): codec ops overlap
        // backward but serialize against the node's communication.
        task.start_time = serial_[task.node]->Submit(duration, done);
      }
      return;
    }
    case PrimitiveType::kSend: {
      // Comm tasks leave the task manager immediately; queueing, batching
      // and the wire all live between start and completion, so the whole
      // span is the send's service time (and the auditor's drift signal).
      task.start_time = task.ready_time;
      ++send_tasks_;
      wire_bytes_ += task.bytes;
      send_bytes_.Observe(static_cast<double>(task.bytes));
      ++running->outstanding;
      if (config_.extra_copy_overhead > 0) {
        // Extra staging copies before the transfer (BytePS OSS path).
        sim_->Schedule(config_.extra_copy_overhead, [running, id] {
          running->engine->StartSend(running, id);
        });
      } else {
        StartSend(running, id);
      }
      return;
    }
    case PrimitiveType::kRecv:
    case PrimitiveType::kBarrier: {
      // Zero-cost join points: complete immediately (the paying work — the
      // matching send, or upstream kernels — is in the dependencies).
      task.start_time = task.ready_time;
      Complete(running, id);
      return;
    }
  }
}

void CaSyncEngine::KernelDone(RunningGraph* running, TaskId id) {
  --running->outstanding;
  Complete(running, id);
  MaybeRelease(running);
}

void CaSyncEngine::SendDone(RunningGraph* running, TaskId id,
                            const Status& status) {
  --running->outstanding;
  if (status.ok()) {
    Complete(running, id);
  } else {
    Fail(running, status);
  }
  MaybeRelease(running);
}

void CaSyncEngine::StartSend(RunningGraph* running, TaskId id) {
  if (running->done_fired) {
    --running->outstanding;
    MaybeRelease(running);
    return;
  }
  const TaskRecord& send = running->graph->task(id);
  if (!config_.pipelining) {
    // Non-pipelined: the send waits for the node's sync path to drain,
    // then blocks it for the transfer's duration (the OSS path's
    // synchronous send). The wire transfer starts only once the node owns
    // the slot, and endpoint contention still applies on the shared
    // network.
    serial_[send.node]->Submit(0, [running, id] {
      CaSyncEngine* engine = running->engine;
      if (running->done_fired) {
        // Cancelled while queued for the slot: like any other send of a
        // cancelled graph it never reaches the wire, and the graph (which
        // its owner may free once on_done returned) is not touched.
        --running->outstanding;
        engine->MaybeRelease(running);
        return;
      }
      const TaskRecord& inner = running->graph->task(id);
      engine->serial_[inner.node]->Submit(
          engine->net_->UncontendedSendTime(inner.bytes), [] {});
      engine->Transmit(running, id);
    });
    return;
  }
  if (coordinator_ == nullptr) {
    Transmit(running, id);
    return;
  }
  auto on_complete = [running, id](const Status& status) {
    running->engine->SendDone(running, id, status);
  };
  TaskData* data = running->graph->data(id);
  if (data != nullptr && data->payload != nullptr) {
    // Pooled real-data path: the payload rides the batch frame by
    // reference; the graph's ref drops here so the block recycles as soon
    // as the frame is assembled.
    coordinator_->EnqueueTransfer(send.node, send.peer, send.gradient_id,
                                  std::move(data->payload), data->deliver,
                                  on_complete);
    return;
  }
  coordinator_->EnqueueWithStatus(send.node, send.peer, send.bytes,
                                  on_complete);
}

void CaSyncEngine::Transmit(RunningGraph* running, TaskId id) {
  // Raw network or reliable transport, depending on configuration. The
  // payload hook fires at the destination's delivery time with the payload
  // bytes; the reliable path latches it to the first delivered copy under
  // retransmits.
  std::function<void(const NetMessage&)> on_deliver;
  NetMessage message = SendMessage(running->graph->task(id),
                                   running->graph->data(id), &on_deliver);
  if (reliable_ != nullptr) {
    reliable_->Send(std::move(message), std::move(on_deliver),
                    [running, id](const Status& status) {
                      running->engine->SendDone(running, id, status);
                    });
    return;
  }
  if (on_deliver) {
    net_->Send(std::move(message),
               [on_deliver = std::move(on_deliver), running,
                id](const NetMessage& delivered) {
                 on_deliver(delivered);
                 running->engine->SendDone(running, id, OkStatus());
               });
    return;
  }
  net_->Send(std::move(message), [running, id](const NetMessage&) {
    running->engine->SendDone(running, id, OkStatus());
  });
}

void CaSyncEngine::Complete(RunningGraph* running, TaskId id) {
  if (running->done_fired) {
    return;  // straggler completion on a cancelled graph
  }
  TaskGraph& graph = *running->graph;
  TaskRecord& task = graph.task(id);
  task.end_time = sim_->now();
  if (task.type == PrimitiveType::kSend && task.ready_time != kTaskNeverRan) {
    // Measured end-to-end latency vs the uncontended send model: endpoint
    // contention, coordinator batching, jitter and retries all surface as
    // relative error here.
    auditor_.AddSample(CostPrimitive::kSend, task.bytes,
                       task.end_time - task.ready_time);
  }
  if (TaskData* data = graph.data(id); data != nullptr && data->action) {
    data->action();
  }
  for (const TaskId dependent : graph.dependents(id)) {
    if (--graph.task(dependent).pending_deps == 0) {
      Dispatch(running, dependent);
    }
  }
  if (--running->remaining == 0) {
    FireDone(running, OkStatus());
  }
}

void CaSyncEngine::Fail(RunningGraph* running, const Status& status) {
  if (running->done_fired) {
    return;
  }
  graphs_cancelled_->Increment();
  FireDone(running, status);
}

void CaSyncEngine::FireDone(RunningGraph* running, const Status& status) {
  running->done_fired = true;
  // Moved out before the call, so the captures die with this call rather
  // than lingering in the record until it is recycled.
  std::function<void(const Status&)> on_done =
      std::exchange(running->on_done, nullptr);
  if (on_done) {
    on_done(status);
  }
}

void CaSyncEngine::OnPeerFailure(int peer) {
  LOG(Warning) << "peer " << peer
               << " declared failed; cancelling its in-flight task graphs";
  // Cancel every running graph that communicates with the dead node; the
  // caller rebuilds those synchronization topologies over the survivors.
  const Status status =
      UnavailableError(StrFormat("node %d failed", peer));
  std::vector<RunningGraph*> doomed;
  for (RunningGraph* running = active_head_; running != nullptr;
       running = running->next) {
    if (running->done_fired) {
      continue;
    }
    for (const TaskRecord& task : running->graph->tasks()) {
      if (task.node == peer || task.peer == peer) {
        doomed.push_back(running);
        break;
      }
    }
  }
  for (RunningGraph* running : doomed) {
    Fail(running, status);
  }
  for (RunningGraph* running : doomed) {
    MaybeRelease(running);
  }
}

}  // namespace hipress
