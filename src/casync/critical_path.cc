#include "src/casync/critical_path.h"

#include <algorithm>

#include "src/common/string_util.h"

namespace hipress {

const char* CpCategoryName(CpCategory category) {
  switch (category) {
    case CpCategory::kCompute:
      return "compute";
    case CpCategory::kEncode:
      return "encode";
    case CpCategory::kMerge:
      return "merge";
    case CpCategory::kSend:
      return "send";
    case CpCategory::kRecv:
      return "recv";
    case CpCategory::kDecode:
      return "decode";
    case CpCategory::kWait:
      return "wait";
  }
  return "unknown";
}

SimTime CpAttribution::total() const {
  SimTime sum = 0;
  for (const SimTime t : time) {
    sum += t;
  }
  return sum;
}

void CpAttribution::Add(const CpAttribution& other) {
  for (size_t i = 0; i < time.size(); ++i) {
    time[i] += other.time[i];
  }
}

double CpAttribution::Share(CpCategory category) const {
  const SimTime sum = total();
  if (sum <= 0) {
    return 0.0;
  }
  return static_cast<double>((*this)[category]) / static_cast<double>(sum);
}

namespace {

CpCategory CategoryOf(PrimitiveType type) {
  switch (type) {
    case PrimitiveType::kEncode:
      return CpCategory::kEncode;
    case PrimitiveType::kMerge:
      return CpCategory::kMerge;
    case PrimitiveType::kSend:
      return CpCategory::kSend;
    case PrimitiveType::kRecv:
      return CpCategory::kRecv;
    case PrimitiveType::kDecode:
      return CpCategory::kDecode;
    case PrimitiveType::kBarrier:
      // Barriers are zero-cost joins; any recorded width is queueing.
      return CpCategory::kWait;
  }
  return CpCategory::kWait;
}

bool Completed(const TaskRecord& task) {
  return task.end_time != kTaskNeverRan;
}

// The completed task finishing last (first one on ties, so the extracted
// chain is deterministic), or kInvalidTask when nothing completed.
TaskId FindTerminal(const TaskGraph& graph) {
  TaskId terminal = kInvalidTask;
  SimTime terminal_end = 0;
  for (TaskId id = 0; id < graph.size(); ++id) {
    const TaskRecord& task = graph.task(id);
    if (Completed(task) &&
        (terminal == kInvalidTask || task.end_time > terminal_end)) {
      terminal = id;
      terminal_end = task.end_time;
    }
  }
  return terminal;
}

// A completed task as a chain element, with unrecorded ready/start times
// collapsed onto the neighbouring stage.
CpStep MakeStep(const TaskGraph& graph, TaskId id) {
  const TaskRecord& task = graph.task(id);
  CpStep step;
  step.task = id;
  step.type = task.type;
  step.node = task.node;
  step.ready =
      task.ready_time != kTaskNeverRan ? task.ready_time : task.end_time;
  step.start =
      task.start_time != kTaskNeverRan ? task.start_time : step.ready;
  step.start = std::max(step.start, step.ready);
  step.end = std::max(task.end_time, step.start);
  return step;
}

}  // namespace

CriticalPath AnalyzeCriticalPath(const TaskGraph& graph) {
  CriticalPath path;
  const TaskId terminal = FindTerminal(graph);
  if (terminal == kInvalidTask) {
    return path;  // nothing executed (e.g. cancelled before any dispatch)
  }
  // Reverse adjacency in one array: task t's predecessors, in ascending id
  // order, are preds[pred_begin[t] .. pred_begin[t + 1]).
  const size_t n = graph.size();
  std::vector<uint32_t> pred_begin(n + 1, 0);
  for (TaskId id = 0; id < n; ++id) {
    for (const TaskId dependent : graph.dependents(id)) {
      ++pred_begin[dependent];
    }
  }
  // Prefix sums leave each entry at the end of its task's run (and
  // pred_begin[n] at the edge count); filling back to front walks each
  // entry down to its run's start.
  for (size_t t = 1; t <= n; ++t) {
    pred_begin[t] += pred_begin[t - 1];
  }
  std::vector<TaskId> preds(pred_begin[n]);
  for (TaskId id = static_cast<TaskId>(n); id-- > 0;) {
    for (const TaskId dependent : graph.dependents(id)) {
      preds[--pred_begin[dependent]] = id;
    }
  }
  // Walk back through the predecessor whose completion gated each task's
  // readiness (the max-end predecessor: pending_deps hits zero exactly
  // when it completes).
  std::vector<TaskId> chain;
  TaskId cursor = terminal;
  for (;;) {
    chain.push_back(cursor);
    TaskId gate = kInvalidTask;
    for (uint32_t e = pred_begin[cursor]; e < pred_begin[cursor + 1]; ++e) {
      const TaskId pred = preds[e];
      const TaskRecord& task = graph.task(pred);
      if (!Completed(task)) {
        continue;
      }
      if (gate == kInvalidTask ||
          task.end_time > graph.task(gate).end_time) {
        gate = pred;
      }
    }
    if (gate == kInvalidTask) {
      break;
    }
    cursor = gate;
  }
  std::reverse(chain.begin(), chain.end());

  path.steps.reserve(chain.size());
  SimTime prev_end = kTaskNeverRan;
  for (const TaskId id : chain) {
    const CpStep step = MakeStep(graph, id);
    // Queueing between readiness and resource start.
    path.attribution[CpCategory::kWait] += step.start - step.ready;
    // Service time to the primitive's category.
    path.attribution[CategoryOf(step.type)] += step.end - step.start;
    // Defensive: any gap between the gating predecessor's end and this
    // task's recorded readiness is queueing too, so the attribution keeps
    // summing to the chain's extent even on imperfect timings.
    if (prev_end != kTaskNeverRan && step.ready > prev_end) {
      path.attribution[CpCategory::kWait] += step.ready - prev_end;
    }
    prev_end = step.end;
    path.steps.push_back(step);
  }
  path.path_start = path.steps.front().ready;
  path.path_end = path.steps.back().end;
  return path;
}

IterationAttribution AttributeIteration(
    const std::vector<const TaskGraph*>& graphs, SimTime window_start,
    SimTime window_end) {
  IterationAttribution result;
  // A chain ends at its terminal task, so each graph's path end needs only
  // that task; only the bounding graph's chain is walked.
  SimTime bound_end = 0;
  for (size_t i = 0; i < graphs.size(); ++i) {
    if (graphs[i] == nullptr) {
      continue;
    }
    const TaskId terminal = FindTerminal(*graphs[i]);
    if (terminal == kInvalidTask) {
      continue;
    }
    const SimTime path_end = MakeStep(*graphs[i], terminal).end;
    if (result.bounding_graph < 0 || path_end > bound_end) {
      result.bounding_graph = static_cast<int>(i);
      bound_end = path_end;
    }
  }
  if (result.bounding_graph < 0) {
    // No synchronization ran; the whole window is compute.
    result.attribution[CpCategory::kCompute] =
        std::max<SimTime>(0, window_end - window_start);
    return result;
  }
  result.path = AnalyzeCriticalPath(*graphs[result.bounding_graph]);
  result.attribution = result.path.attribution;
  // Backward compute (plus launch bookkeeping) gates the chain's first
  // task; the BSP barrier tail past the chain waits on the slowest node's
  // compute. Both are compute from the iteration's point of view.
  result.attribution[CpCategory::kCompute] +=
      std::max<SimTime>(0, result.path.path_start - window_start);
  result.attribution[CpCategory::kCompute] +=
      std::max<SimTime>(0, window_end - result.path.path_end);
  return result;
}

void AddCriticalPathSpans(const CriticalPath& path, SimTime window_start,
                          int compute_node, SpanCollector* spans) {
  if (spans == nullptr || path.empty()) {
    return;
  }
  if (path.path_start > window_start) {
    spans->Add(compute_node, kTraceLaneCriticalPath, "cp:compute",
               window_start, path.path_start);
  }
  for (const CpStep& step : path.steps) {
    const int node = step.node >= 0 ? step.node : compute_node;
    if (step.start > step.ready) {
      spans->Add(node, kTraceLaneCriticalPath, "cp:wait", step.ready,
                 step.start);
    }
    if (step.end > step.start) {
      spans->Add(node, kTraceLaneCriticalPath,
                 StrFormat("cp:%s", CpCategoryName(CategoryOf(step.type))),
                 step.start, step.end);
    }
  }
}

}  // namespace hipress
