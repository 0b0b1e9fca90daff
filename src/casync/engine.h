// CaSync execution engine.
//
// Realizes the architecture of Figure 2 on the simulated cluster: each
// node's task manager maintains computing and communication queues; ready
// tasks dispatch to the node's GPU kernel stream (computing primitives) or
// to the network / bulk coordinator (communication primitives); completions
// clear dependency edges and promote newly-ready tasks. Multiple task
// graphs — typically one per gradient — execute concurrently, which is what
// produces the compression/communication pipelining the paper relies on.
//
// With `pipelining` disabled the engine routes every sync-path task through
// a per-node serial resource, reproducing the OSS co-designs where
// compression kernels and transfers block one another.
#ifndef HIPRESS_SRC_CASYNC_ENGINE_H_
#define HIPRESS_SRC_CASYNC_ENGINE_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/casync/config.h"
#include "src/casync/coordinator.h"
#include "src/casync/task.h"
#include "src/common/metrics.h"
#include "src/common/profiler.h"
#include "src/common/status.h"
#include "src/net/network.h"
#include "src/net/reliable_channel.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"
#include "src/simgpu/gpu.h"

namespace hipress {

// Aggregate execution statistics, for latency breakdowns (Figure 11) and
// the ablation benches. Snapshot of the engine's own tallies at one
// instant; the "engine.*" counters of its registry carry the same totals
// as of the simulator's last Run()/RunUntil() return.
struct EngineStats {
  uint64_t encode_tasks = 0;
  uint64_t decode_tasks = 0;
  uint64_t merge_tasks = 0;
  uint64_t send_tasks = 0;
  SimTime encode_time = 0;  // modelled kernel time summed over all nodes
  SimTime decode_time = 0;
  SimTime merge_time = 0;
  uint64_t wire_bytes = 0;  // bytes handed to the network / coordinator
};

class CaSyncEngine {
 public:
  // `gpus` holds one device per node (the node's sync GPU; local
  // aggregation across a node's other GPUs is modelled upstream by the
  // trainer). All pointers must outlive the engine.
  //
  // Per-primitive task counts, modelled durations and wire bytes are
  // recorded into `metrics` ("engine.encode_tasks", "engine.encode_us",
  // "engine.wire_bytes", ...); when null the engine keeps a private
  // registry. Dispatch only bumps the engine's own tallies; they are
  // published into the registry each time the simulator's
  // Run()/RunUntil() returns and when the engine is destroyed
  // (Simulator::PublishHook). `spans` is forwarded to the bulk
  // coordinator for the merged trace.
  CaSyncEngine(Simulator* sim, Network* net, std::vector<GpuDevice*> gpus,
               const SyncConfig& config, MetricsRegistry* metrics = nullptr,
               SpanCollector* spans = nullptr);
  ~CaSyncEngine();

  // Begins executing `graph` now; `on_done` fires at the simulated time the
  // last task completes — or when the graph is cancelled, which this form
  // cannot tell apart (the Status form below can). The graph must outlive
  // execution: the engine may touch it until `on_done` has returned, and
  // never after. Multiple graphs may be in flight concurrently.
  void Execute(TaskGraph* graph, std::function<void()> on_done);

  // Status-aware variant: `on_done` fires with OkStatus() on completion, or
  // exactly once with an UNAVAILABLE error when the graph is cancelled
  // because a peer it communicates with was declared failed (reliable
  // transport's retry budget exhausted). A graph that touches an
  // already-failed node fails immediately. After a failure the caller is
  // expected to rebuild the synchronization topology over the survivors
  // (AppendSyncTasksOver) and re-execute.
  void Execute(TaskGraph* graph, std::function<void(const Status&)> on_done);

  const SyncConfig& config() const { return config_; }
  BulkCoordinator* coordinator() { return coordinator_.get(); }
  // Non-null when fault injection or reliable transport is configured.
  ReliableChannel* reliable_channel() { return reliable_.get(); }

  // Nodes declared failed by the reliable transport, in detection order;
  // none without a transport. Read from the channel, which owns the marks.
  const std::vector<int>& failed_nodes() const;
  bool node_failed(int node) const {
    return reliable_ != nullptr && reliable_->peer_failed(node);
  }

  // Clears the failed mark on `node` — the crash-rejoin path: the
  // membership layer re-admits the node at an iteration boundary after its
  // model state has been re-synced from a donor, and subsequent task
  // graphs may include it again. CHECK-fails unless Idle() (in-flight
  // graphs were built over the old membership); idempotent for a node
  // that was never marked failed.
  void ReviveNode(int node);

  // Total simulated time the node's sync path spent on compression-related
  // kernels (for latency breakdowns).
  SimTime compute_busy(int node) const;

  // Snapshot of the engine's execution tallies, current at any instant
  // (subtract two snapshots for a per-iteration delta).
  EngineStats stats() const;

  // The registry this engine records into (the injected one, or the
  // engine-owned fallback).
  MetricsRegistry& metrics() { return *metrics_; }

  // True when no task graph is in flight (and, under bulk coordination, no
  // batch is queued awaiting flush) — the only state in which the engine's
  // codec may be swapped.
  bool Idle() const;

  // Graph records not yet recycled: graphs still executing, plus finished
  // or cancelled graphs whose dispatched kernels or sends have not all
  // returned. Zero once the simulator has drained.
  size_t graph_records_in_use() const;

  // Repoints the engine at a different compression codec between
  // iterations (the adaptive controller's switch path, docs/ADAPTIVE.md):
  // updates the kernel-cost lines Dispatch prices encode/decode with and
  // the auditor's prediction baselines. CHECK-fails unless Idle() — tasks
  // already dispatched were costed under the old codec, and pooled wire
  // buffers handed to the network must drain before their sizing
  // assumptions change.
  void ApplyCodec(const std::string& algorithm, CodecImpl impl,
                  const CodecSpeed& speed);

  // Cost-model drift audit: every executed task contributes a measured
  // sample next to the KernelCost line the planner prices with — kernel
  // service times for encode/decode/merge, ready-to-delivery latency for
  // sends (so contention, batching and retransmits register as drift
  // against the uncontended send model). Publish into a registry with
  // auditor().Publish(&metrics()).
  const CostModelAuditor& auditor() const { return auditor_; }
  CostModelAuditor& auditor() { return auditor_; }

 private:
  // One executing graph. The engine owns these records and recycles them
  // through a free list: a record is released once its graph has finished
  // or failed and no dispatched kernel or send still refers to it.
  // Callbacks capture (RunningGraph*, TaskId) — 16 trivially copyable
  // bytes, which std::function stores inline — and reach the engine
  // through `engine`.
  struct RunningGraph {
    CaSyncEngine* engine = nullptr;
    TaskGraph* graph = nullptr;
    size_t remaining = 0;
    std::function<void(const Status&)> on_done;
    // Kernel and send callbacks dispatched but not yet returned, including
    // stragglers of a cancelled graph.
    uint32_t outstanding = 0;
    // Once set, no further tasks dispatch and on_done has fired; straggler
    // completions from kernels/transfers already in flight are ignored.
    bool done_fired = false;
    // In-use records form a list in Execute order (OnPeerFailure cancels
    // in that order); `next` also chains the free list.
    RunningGraph* prev = nullptr;
    RunningGraph* next = nullptr;
  };

  RunningGraph* AcquireGraph();
  // Returns `running` to the free list once it is done and nothing
  // dispatched still refers to it.
  void MaybeRelease(RunningGraph* running);
  void Dispatch(RunningGraph* running, TaskId id);
  void Complete(RunningGraph* running, TaskId id);
  // Fails the graph once: fires on_done with `status` and freezes dispatch.
  void Fail(RunningGraph* running, const Status& status);
  // Fires on_done once; the callable moves out of the record first.
  void FireDone(RunningGraph* running, const Status& status);
  // Callback targets for a dispatched kernel and a dispatched send.
  void KernelDone(RunningGraph* running, TaskId id);
  void SendDone(RunningGraph* running, TaskId id, const Status& status);
  void StartSend(RunningGraph* running, TaskId id);
  void Transmit(RunningGraph* running, TaskId id);
  void OnPeerFailure(int peer);
  SimTime ComputeDuration(const TaskRecord& task) const;
  void PublishMetrics();

  // One kernel primitive's tallies and the registry metrics they publish
  // into ("engine.<name>_tasks", "engine.<name>_time_ns",
  // "engine.<name>_us").
  struct PrimitiveTally {
    uint64_t tasks = 0;
    SimTime time = 0;
    LocalHistogram duration_us;
    CounterPublisher tasks_metric;
    CounterPublisher time_metric;
  };

  Simulator* sim_;
  Network* net_;
  std::vector<GpuDevice*> gpus_;
  SyncConfig config_;
  CodecSpeed codec_speed_;
  KernelCost merge_cost_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;  // when none injected
  MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<BulkCoordinator> coordinator_;
  std::unique_ptr<ReliableChannel> reliable_;
  // Per-node serializer used when pipelining is off.
  std::vector<std::unique_ptr<SimResource>> serial_;
  // Every RunningGraph record ever allocated (stable addresses), the free
  // list, and the in-use list in Execute order, so a peer failure can
  // cancel every graph that talks to the dead node.
  std::vector<std::unique_ptr<RunningGraph>> graph_records_;
  RunningGraph* free_graphs_ = nullptr;
  RunningGraph* active_head_ = nullptr;
  RunningGraph* active_tail_ = nullptr;
  // Execute's root snapshot, kept between calls so it stops allocating.
  std::vector<TaskId> roots_buffer_;
  CostModelAuditor auditor_;
  Counter* graphs_cancelled_ = nullptr;
  PrimitiveTally encode_;
  PrimitiveTally decode_;
  PrimitiveTally merge_;
  uint64_t send_tasks_ = 0;
  uint64_t wire_bytes_ = 0;
  LocalHistogram send_bytes_;
  CounterPublisher send_tasks_metric_;
  CounterPublisher wire_bytes_metric_;
  Simulator::PublishHook publish_hook_;
};

}  // namespace hipress

#endif  // HIPRESS_SRC_CASYNC_ENGINE_H_
