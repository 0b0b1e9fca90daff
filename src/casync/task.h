// CaSync task graph.
//
// Section 3.1 decouples gradient synchronization into five primitives —
// encode, decode, merge, send, recv — and coordinates them through a
// dependency graph (Figure 2). A TaskGraph is one synchronization round's
// worth of primitives with data-dependency edges; the engine drains it over
// the simulated cluster, dispatching computing tasks to per-node GPU kernel
// streams and communication tasks to the network (optionally through the
// bulk coordinator).
#ifndef HIPRESS_SRC_CASYNC_TASK_H_
#define HIPRESS_SRC_CASYNC_TASK_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/buffer_pool.h"
#include "src/common/units.h"

namespace hipress {

enum class PrimitiveType : uint8_t {
  kEncode,
  kDecode,
  kMerge,
  kSend,
  kRecv,
  // Synthetic no-op used as a join point (e.g. "gradient fully synced").
  kBarrier,
};

const char* PrimitiveTypeName(PrimitiveType type);

using TaskId = uint32_t;
inline constexpr TaskId kInvalidTask = std::numeric_limits<TaskId>::max();

// Sentinel for the recorded task times below: the task never reached that
// execution stage (e.g. its graph was cancelled by a peer failure).
inline constexpr SimTime kTaskNeverRan = -1;

// Edge index meaning "no edge" (end of a task's overflow edge list).
inline constexpr uint32_t kNoEdge = std::numeric_limits<uint32_t>::max();

// Real-data fields of a task. Pure timing runs leave all three empty, and
// the graph then stores none of them (TaskGraph::data).
struct TaskData {
  // Action executed when the task completes: the task's real work when a
  // builder binds the graph to data (SyncData, src/casync/builder.h).
  std::function<void()> action;
  // Pooled wire payload for kSend: the engine moves it into the outgoing
  // NetMessage (or the coordinator's batch frame), so the block travels by
  // refcount through batching and retransmits — never by copy. For payload
  // sends through the bulk coordinator, wire accounting uses
  // payload->size() (plus framing).
  std::shared_ptr<PooledBytes> payload;
  // Receiver-side hook for kSend, fired at the *destination's* delivery
  // time with bytes aliasing the delivered frame/payload (valid only for
  // the duration of the call — copy out or decode in place). Exactly once
  // per delivered send, even when the reliable channel retransmits.
  std::function<void(std::span<const uint8_t>)> deliver;

  bool empty() const { return !action && payload == nullptr && !deliver; }
};

// One primitive as a builder describes it: the argument of TaskGraph::Add,
// which splits it into the graph's hot record and, when any real-data
// field is set, its side table.
struct SyncTask : TaskData {
  PrimitiveType type = PrimitiveType::kBarrier;
  int node = -1;  // executing node
  int peer = -1;  // destination node for kSend (unused otherwise)
  // Bytes of *input* processed for compute tasks (cost-model argument), or
  // wire bytes for kSend.
  uint64_t bytes = 0;
  // Gradient this task belongs to (for tracing and bulk batching).
  uint32_t gradient_id = 0;
  // Initial execution times; the engine overwrites them as the task runs
  // (hand-built graphs for the critical-path analyzer preset them).
  SimTime ready_time = kTaskNeverRan;
  SimTime start_time = kTaskNeverRan;
  SimTime end_time = kTaskNeverRan;
};

// A task as the graph stores it: everything the engine touches per
// dispatch and completion, in one cache line.
struct TaskRecord {
  uint64_t bytes = 0;
  // Execution timestamps recorded by the engine (kTaskNeverRan until the
  // task reaches each stage): ready = last dependency cleared, start =
  // began occupying its resource (GPU stream / serial slot; equals ready
  // for communication tasks, whose queueing is part of the wire span),
  // end = completed. start - ready is queueing; end - start is service.
  // The critical-path profiler (src/casync/critical_path.h) consumes them.
  SimTime ready_time = kTaskNeverRan;
  SimTime start_time = kTaskNeverRan;
  SimTime end_time = kTaskNeverRan;
  int32_t node = -1;
  int32_t peer = -1;
  uint32_t gradient_id = 0;
  // Dependencies not yet completed; the engine counts it down at run time.
  int32_t pending_deps = 0;
  // Out-edges in AddDep order: the first dependent inline (most tasks have
  // at most one), the rest as a list through the graph's overflow edge
  // array, from head to tail (kNoEdge when there are none). Completing a
  // task with one dependent then touches no memory beyond the two records.
  TaskId first_dependent = kInvalidTask;
  uint32_t overflow_head = kNoEdge;
  uint32_t overflow_tail = kNoEdge;
  PrimitiveType type = PrimitiveType::kBarrier;
};
static_assert(sizeof(TaskRecord) <= 64, "a task record must fit a cache line");

// One synchronization round's tasks and dependency edges. A graph holds
// three arrays: the task records, the overflow edges (every out-edge after
// its source's first), and the real-data side table (empty in timing-only
// runs). Dependents are visited in the order AddDep declared them.
class TaskGraph {
 public:
  struct Edge {
    TaskId to = kInvalidTask;
    uint32_t next = kNoEdge;  // the source's next overflow edge
  };

  // The dependents of one task, in AddDep order. Invalidated by AddDep.
  class Dependents {
   public:
    class Iterator {
     public:
      Iterator(const Edge* edges, TaskId current, uint32_t next)
          : edges_(edges), current_(current), next_(next) {}
      TaskId operator*() const { return current_; }
      Iterator& operator++() {
        if (next_ == kNoEdge) {
          current_ = kInvalidTask;
        } else {
          current_ = edges_[next_].to;
          next_ = edges_[next_].next;
        }
        return *this;
      }
      bool operator!=(const Iterator& other) const {
        return current_ != other.current_;
      }

     private:
      const Edge* edges_;
      TaskId current_;  // kInvalidTask past the end
      uint32_t next_;
    };

    Dependents(const Edge* edges, const TaskRecord& task)
        : edges_(edges),
          first_(task.first_dependent),
          overflow_(task.overflow_head) {}
    Iterator begin() const { return Iterator(edges_, first_, overflow_); }
    Iterator end() const { return Iterator(edges_, kInvalidTask, kNoEdge); }

   private:
    const Edge* edges_;
    TaskId first_;
    uint32_t overflow_;
  };

  TaskId Add(SyncTask task);

  // Declares that `to` cannot start until `from` completes.
  void AddDep(TaskId from, TaskId to) {
    TaskRecord& source = tasks_[from];
    if (source.first_dependent == kInvalidTask) {
      source.first_dependent = to;
    } else {
      const auto edge = static_cast<uint32_t>(edges_.size());
      edges_.push_back(Edge{to, kNoEdge});
      if (source.overflow_head == kNoEdge) {
        source.overflow_head = edge;
      } else {
        edges_[source.overflow_tail].next = edge;
      }
      source.overflow_tail = edge;
    }
    ++tasks_[to].pending_deps;
  }

  // Makes room for `tasks` tasks and `overflow_edges` overflow edges in
  // total. Growing a non-empty graph at least doubles each array, so
  // repeated appends stay amortized linear.
  void Reserve(size_t tasks, size_t overflow_edges);

  TaskRecord& task(TaskId id) { return tasks_[id]; }
  const TaskRecord& task(TaskId id) const { return tasks_[id]; }
  Dependents dependents(TaskId id) const {
    return Dependents(edges_.data(), tasks_[id]);
  }
  // The task's real-data fields, or null past the last task added with
  // any (entries before that may be empty).
  TaskData* data(TaskId id) { return id < data_.size() ? &data_[id] : nullptr; }

  size_t size() const { return tasks_.size(); }
  bool empty() const { return tasks_.empty(); }
  size_t overflow_edges() const { return edges_.size(); }
  const std::vector<TaskRecord>& tasks() const { return tasks_; }

  // Heap bytes held by the three arrays, by capacity.
  size_t MemoryBytes() const;

  // Simple cycle check (Kahn); true when every task is reachable by
  // repeatedly removing zero-dependency tasks.
  bool IsAcyclic() const;

 private:
  std::vector<TaskRecord> tasks_;
  std::vector<Edge> edges_;
  // Indexed by TaskId; only as long as the last task added with real data.
  std::vector<TaskData> data_;
};

}  // namespace hipress

#endif  // HIPRESS_SRC_CASYNC_TASK_H_
