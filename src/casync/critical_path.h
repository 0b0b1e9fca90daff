// Critical-path profiler for synchronization rounds.
//
// The paper's Figure 11 argues from a per-primitive latency breakdown; this
// module explains *which chain* of encode/merge/send/recv/decode tasks
// bounds an iteration. Given a TaskGraph executed with the engine's task
// timing recording (TaskRecord::{ready,start,end}_time), AnalyzeCriticalPath
// walks the dependency DAG backwards from the last-finishing task, always
// following the predecessor whose completion gated the successor's
// readiness, and attributes every nanosecond of the chain to a category:
// the primitive's service time (encode/merge/send+wire/recv/decode) or
// resource queueing (wait).
//
// AttributeIteration lifts this to a whole training iteration: the graph
// finishing last bounds the BSP barrier; time before its chain starts is
// DNN compute (backward gates gradient readiness), time after it is the
// barrier waiting on the slowest node's compute. The attribution therefore
// sums exactly to the iteration's wall time — the invariant the step
// report (`train_cluster --step-report`) and the `cp.*` gauges rest on.
#ifndef HIPRESS_SRC_CASYNC_CRITICAL_PATH_H_
#define HIPRESS_SRC_CASYNC_CRITICAL_PATH_H_

#include <array>
#include <vector>

#include "src/casync/task.h"
#include "src/common/metrics.h"
#include "src/common/units.h"

namespace hipress {

// Wall-time categories along an iteration's critical path.
enum class CpCategory {
  kCompute,  // DNN forward/backward gating gradient readiness
  kEncode,
  kMerge,
  kSend,  // send + wire: queueing through delivery
  kRecv,
  kDecode,
  kWait,  // resource queueing (kernel-stream / serial-slot backlog)
};
inline constexpr int kNumCpCategories = 7;

const char* CpCategoryName(CpCategory category);

// Per-category nanosecond totals.
struct CpAttribution {
  std::array<SimTime, kNumCpCategories> time{};

  SimTime& operator[](CpCategory category) {
    return time[static_cast<size_t>(category)];
  }
  SimTime operator[](CpCategory category) const {
    return time[static_cast<size_t>(category)];
  }
  SimTime total() const;
  void Add(const CpAttribution& other);
  // Fraction of total() in `category`; 0 when empty.
  double Share(CpCategory category) const;
};

// One element of the critical path, in execution order.
struct CpStep {
  TaskId task = kInvalidTask;
  PrimitiveType type = PrimitiveType::kBarrier;
  int node = -1;
  SimTime ready = 0;
  SimTime start = 0;
  SimTime end = 0;
};

struct CriticalPath {
  std::vector<CpStep> steps;  // chain in execution order; empty if none ran
  SimTime path_start = 0;     // first step's ready time
  SimTime path_end = 0;       // last step's end time
  // Service + wait along the chain; sums to path_end - path_start.
  CpAttribution attribution;

  bool empty() const { return steps.empty(); }
};

// Extracts the longest weighted dependency chain from an executed graph.
// Tasks that never completed (cancelled graphs, in-flight stragglers) are
// skipped; a graph where nothing completed yields an empty path. Safe on
// degraded and partially-executed graphs.
CriticalPath AnalyzeCriticalPath(const TaskGraph& graph);

// Attributes the window [window_start, window_end) across `graphs`: picks
// the graph whose critical path ends last, charges the window before its
// chain (and after it, the BSP barrier's compute wait) to kCompute, and
// folds in the chain's own attribution. `bounding_graph` is the index into
// `graphs` (-1 when no graph executed — then the whole window is compute).
struct IterationAttribution {
  CpAttribution attribution;  // sums exactly to window_end - window_start
  CriticalPath path;          // the bounding graph's chain
  int bounding_graph = -1;
};

IterationAttribution AttributeIteration(
    const std::vector<const TaskGraph*>& graphs, SimTime window_start,
    SimTime window_end);

// Emits one span per chain element on the `critical-path` lane (16) of the
// unified Perfetto trace, named "cp:<primitive>", on the executing node's
// track — plus a leading "cp:compute" span on node `compute_node` covering
// [window_start, path_start). No-op when `spans` is null.
void AddCriticalPathSpans(const CriticalPath& path, SimTime window_start,
                          int compute_node, SpanCollector* spans);

}  // namespace hipress

#endif  // HIPRESS_SRC_CASYNC_CRITICAL_PATH_H_
