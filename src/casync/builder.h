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
#ifndef HIPRESS_SRC_CASYNC_BUILDER_H_
#define HIPRESS_SRC_CASYNC_BUILDER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/casync/config.h"
#include "src/casync/task.h"

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
// gradient is ready.
void AppendSyncTasks(const SyncConfig& config, const GradientSync& gradient,
                     TaskGraph* graph);

// Degraded-mode variant: builds the same strategy topology over only the
// physical nodes listed in `nodes` (the survivors after a node failure),
// in order. The builder runs with num_nodes = nodes.size() and the logical
// node/peer ids are then remapped through `nodes`, so any strategy composes
// with any survivor set. Partition counts are clamped to the survivor count.
void AppendSyncTasksOver(const SyncConfig& config, const GradientSync& gradient,
                         const std::vector<int>& nodes, TaskGraph* graph);

void AppendPsSyncTasks(const SyncConfig& config, const GradientSync& gradient,
                       TaskGraph* graph);
void AppendRingSyncTasks(const SyncConfig& config,
                         const GradientSync& gradient, TaskGraph* graph);
// Binomial-tree reduce + broadcast: ceil(log2 N) rounds each way, root
// rotated per partition. Demonstrates that CaSync's primitives compose
// into topologies beyond the paper's two (Section 3.1's generality claim).
void AppendTreeSyncTasks(const SyncConfig& config,
                         const GradientSync& gradient, TaskGraph* graph);

}  // namespace hipress

#endif  // HIPRESS_SRC_CASYNC_BUILDER_H_
