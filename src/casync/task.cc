#include "src/casync/task.h"

#include <algorithm>
#include <queue>
#include <utility>

namespace hipress {

const char* PrimitiveTypeName(PrimitiveType type) {
  switch (type) {
    case PrimitiveType::kEncode:
      return "encode";
    case PrimitiveType::kDecode:
      return "decode";
    case PrimitiveType::kMerge:
      return "merge";
    case PrimitiveType::kSend:
      return "send";
    case PrimitiveType::kRecv:
      return "recv";
    case PrimitiveType::kBarrier:
      return "barrier";
  }
  return "unknown";
}

TaskId TaskGraph::Add(SyncTask task) {
  const auto id = static_cast<TaskId>(tasks_.size());
  TaskRecord& record = tasks_.emplace_back();
  record.bytes = task.bytes;
  record.ready_time = task.ready_time;
  record.start_time = task.start_time;
  record.end_time = task.end_time;
  record.node = task.node;
  record.peer = task.peer;
  record.gradient_id = task.gradient_id;
  record.type = task.type;
  if (!task.empty()) {
    if (data_.size() <= id) {
      data_.resize(id + 1);
    }
    data_[id] = std::move(static_cast<TaskData&>(task));
  }
  return id;
}

namespace {

template <typename T>
void Grow(std::vector<T>* array, size_t count) {
  if (count > array->capacity()) {
    array->reserve(array->empty() ? count
                                  : std::max(count, 2 * array->capacity()));
  }
}

}  // namespace

void TaskGraph::Reserve(size_t tasks, size_t overflow_edges) {
  Grow(&tasks_, tasks);
  Grow(&edges_, overflow_edges);
}

size_t TaskGraph::MemoryBytes() const {
  return tasks_.capacity() * sizeof(TaskRecord) +
         edges_.capacity() * sizeof(Edge) +
         data_.capacity() * sizeof(TaskData);
}

bool TaskGraph::IsAcyclic() const {
  std::vector<int> pending(tasks_.size());
  std::queue<TaskId> ready;
  for (size_t i = 0; i < tasks_.size(); ++i) {
    pending[i] = tasks_[i].pending_deps;
    if (pending[i] == 0) {
      ready.push(static_cast<TaskId>(i));
    }
  }
  size_t visited = 0;
  while (!ready.empty()) {
    const TaskId id = ready.front();
    ready.pop();
    ++visited;
    for (const TaskId dependent : dependents(id)) {
      if (--pending[dependent] == 0) {
        ready.push(dependent);
      }
    }
  }
  return visited == tasks_.size();
}

}  // namespace hipress
