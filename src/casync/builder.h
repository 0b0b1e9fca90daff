// Task-graph builders for the CaSync synchronization strategies.
//
// Given a gradient and its <compress?, K> plan, these construct the
// dependency graph of encode/decode/merge/send/recv primitives for either
// topology (Section 3.1):
//
//  * PS (bipartite, aggregators co-located with workers): each partition is
//    owned by one aggregator; workers encode and push their shard, the
//    aggregator decodes+merges arrivals as they land (pipelining), encodes
//    the aggregate once, and pushes it back; workers decode.
//  * Ring: each partition travels the ring; every aggregation hop is
//    decode+merge+encode (data dependency, Section 3.3's beta/gamma
//    analysis), dissemination forwards the final encoded buffer with decodes
//    overlapping the forwarding sends.
//
// Decode-into-aggregate is modelled fused (Section 5's decode/merge fusion):
// compressed arrivals emit a single decode-cost task; explicit merge tasks
// appear only on the raw path.
//
// Given a SyncData binding, the same builders also move real bytes: every
// task they emit carries an action doing its share of the work, so the
// engine that times a graph also computes its result. Without one, the
// graph holds timing records only.
#ifndef HIPRESS_SRC_CASYNC_BUILDER_H_
#define HIPRESS_SRC_CASYNC_BUILDER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "src/casync/config.h"
#include "src/casync/task.h"
#include "src/common/buffer_pool.h"
#include "src/common/status.h"
#include "src/compress/compressor.h"
#include "src/tensor/tensor.h"

namespace hipress {

struct GradientSync {
  uint32_t id = 0;
  uint64_t bytes = 0;
  bool compress = false;
  int partitions = 1;
  // Compression rate r for wire sizing (ignored when !compress).
  double rate = 1.0;
};

// Minimum bytes on the wire for a compressed partition (codec headers).
inline constexpr uint64_t kMinWireBytes = 16;

// Buffers the actions of data-bound graphs work in: encoded wire payloads
// and the partial aggregates of inner tree nodes, drawn from the global
// pool and returned to it when the workspace goes. It must outlive every
// graph bound to it.
class SyncWorkspace {
 public:
  ByteBuffer* Wire() { return &wires_.emplace_back(); }
  std::span<float> Floats(size_t count) {
    return floats_.emplace_back(nullptr, count).span();
  }
  // Keeps the first failed codec call.
  void Check(const Status& status) {
    if (status_.ok()) {
      status_ = status;
    }
  }
  const Status& status() const { return status_; }

 private:
  std::deque<ByteBuffer> wires_;
  std::deque<PooledFloats> floats_;
  Status status_;
};

// Real data bound to one gradient's sync graph. Partition p of k covers the
// p-th of k element ranges, the remainder going to the leading ones; a
// partition with no elements does nothing. The binding, its buffers and
// the codec must outlive the graph's execution.
struct SyncData {
  // One gradient per node, each the size of `result`.
  std::span<const std::span<const float>> inputs;
  // Receives the element-wise sum of the inputs, or, compressed, each
  // partition's decode(encode(sum)).
  std::span<float> result;
  // Non-null exactly when GradientSync::compress is set.
  const Compressor* codec = nullptr;
  SyncWorkspace* workspace = nullptr;
};

// Exact sizes of the DAG AppendSyncTasks builds for `gradient`: tasks, and
// overflow edges (out-edges after each task's first, TaskGraph's second
// array). Each builder reserves them before appending.
struct SyncTaskCounts {
  size_t tasks = 0;
  size_t overflow_edges = 0;
};
SyncTaskCounts CountSyncTasks(const SyncConfig& config,
                              const GradientSync& gradient);

// Appends the synchronization task DAG for `gradient` to `graph`,
// dispatching on config.strategy. Tasks become runnable when the engine
// executes the graph, so callers launch the graph at the moment the
// gradient is ready. With `data`, the tasks also carry the actions that
// synchronize it; the records and edges are the same either way.
void AppendSyncTasks(const SyncConfig& config, const GradientSync& gradient,
                     TaskGraph* graph, const SyncData* data = nullptr);

// Builds the same strategy topology over only the physical nodes listed in
// `nodes`, in order: a job's participants, or the survivors after a node
// failure. The builder runs with num_nodes = nodes.size() and the logical
// node/peer ids are then remapped through `nodes`, so any strategy composes
// with any node set. The plan's partition count is kept as it is; over
// every node in id order the graph equals AppendSyncTasks'.
void AppendSyncTasksOver(const SyncConfig& config, const GradientSync& gradient,
                         const std::vector<int>& nodes, TaskGraph* graph);

void AppendPsSyncTasks(const SyncConfig& config, const GradientSync& gradient,
                       TaskGraph* graph, const SyncData* data = nullptr);
void AppendRingSyncTasks(const SyncConfig& config,
                         const GradientSync& gradient, TaskGraph* graph,
                         const SyncData* data = nullptr);
// Binomial-tree reduce + broadcast: ceil(log2 N) rounds each way, root
// rotated per partition. Demonstrates that CaSync's primitives compose
// into topologies beyond the paper's two (Section 3.1's generality claim).
void AppendTreeSyncTasks(const SyncConfig& config,
                         const GradientSync& gradient, TaskGraph* graph,
                         const SyncData* data = nullptr);

}  // namespace hipress

#endif  // HIPRESS_SRC_CASYNC_BUILDER_H_
