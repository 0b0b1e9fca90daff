// Task actions on the simulated engine: a task's action runs only after
// every task it depends on has completed, whatever the resource it waits
// for. The builders' real-data actions (tests/real_sync_test.cc) rely on
// this ordering.
#include <gtest/gtest.h>

#include <memory>

#include "src/casync/engine.h"
#include "src/common/rng.h"

namespace hipress {
namespace {

TEST(EngineDataflowTest, ActionsNeverRunBeforeDependencies) {
  // Randomized DAG property: record completion order; every edge must be
  // respected, across many random graphs and seeds.
  Rng rng(1234);
  for (int trial = 0; trial < 25; ++trial) {
    SyncConfig config;
    config.num_nodes = 4;
    config.bulk = (trial % 2) == 0;
    config.pipelining = (trial % 3) != 0;

    Simulator sim;
    Network net(&sim, 4, config.net);
    std::vector<std::unique_ptr<GpuDevice>> storage;
    std::vector<GpuDevice*> gpus;
    for (int node = 0; node < 4; ++node) {
      storage.push_back(std::make_unique<GpuDevice>(&sim, node));
      gpus.push_back(storage.back().get());
    }
    CaSyncEngine engine(&sim, &net, gpus, config);

    TaskGraph graph;
    std::vector<int> completion_order;
    const int num_tasks = 30;
    for (int t = 0; t < num_tasks; ++t) {
      SyncTask task;
      const int kind = static_cast<int>(rng.NextBounded(4));
      task.node = static_cast<int>(rng.NextBounded(4));
      switch (kind) {
        case 0:
          task.type = PrimitiveType::kEncode;
          task.bytes = rng.NextBounded(1 << 20);
          break;
        case 1:
          task.type = PrimitiveType::kDecode;
          task.bytes = rng.NextBounded(1 << 20);
          break;
        case 2:
          task.type = PrimitiveType::kSend;
          task.peer = (task.node + 1 + static_cast<int>(rng.NextBounded(3))) % 4;
          task.bytes = rng.NextBounded(1 << 16) + 1;
          break;
        default:
          task.type = PrimitiveType::kBarrier;
          break;
      }
      task.action = [&completion_order, t] { completion_order.push_back(t); };
      graph.Add(task);
    }
    // Random forward edges (i -> j with i < j keeps it acyclic).
    std::vector<std::pair<int, int>> edges;
    for (int e = 0; e < 40; ++e) {
      const int a = static_cast<int>(rng.NextBounded(num_tasks - 1));
      const int b =
          a + 1 + static_cast<int>(rng.NextBounded(num_tasks - a - 1));
      graph.AddDep(static_cast<TaskId>(a), static_cast<TaskId>(b));
      edges.emplace_back(a, b);
    }
    ASSERT_TRUE(graph.IsAcyclic());

    bool done = false;
    engine.Execute(&graph, [&] { done = true; });
    sim.Run();
    ASSERT_TRUE(done) << "trial " << trial;
    ASSERT_EQ(completion_order.size(), static_cast<size_t>(num_tasks));

    std::vector<int> position(num_tasks);
    for (int i = 0; i < num_tasks; ++i) {
      position[completion_order[i]] = i;
    }
    for (const auto& [from, to] : edges) {
      EXPECT_LT(position[from], position[to])
          << "trial " << trial << " edge " << from << "->" << to;
    }
  }
}

}  // namespace
}  // namespace hipress
