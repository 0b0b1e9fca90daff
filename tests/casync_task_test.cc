// Task graph structure and the PS/Ring builders: primitive counts must
// match the paper's alpha/beta/gamma analysis (Section 3.3, Table 3).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/casync/builder.h"
#include "src/casync/task.h"
#include "src/casync/workflow.h"

namespace hipress {
namespace {

std::map<PrimitiveType, int> CountByType(const TaskGraph& graph) {
  std::map<PrimitiveType, int> counts;
  for (const TaskRecord& task : graph.tasks()) {
    ++counts[task.type];
  }
  return counts;
}

SyncConfig BaseConfig(StrategyKind strategy, int nodes) {
  SyncConfig config;
  config.strategy = strategy;
  config.num_nodes = nodes;
  return config;
}

GradientSync CompressedGradient(uint64_t bytes, int partitions) {
  GradientSync gradient;
  gradient.id = 0;
  gradient.bytes = bytes;
  gradient.compress = true;
  gradient.partitions = partitions;
  gradient.rate = 1.0 / 32;
  return gradient;
}

std::vector<TaskId> Dependents(const TaskGraph& graph, TaskId id) {
  std::vector<TaskId> out;
  for (const TaskId dependent : graph.dependents(id)) {
    out.push_back(dependent);
  }
  return out;
}

TEST(TaskGraphTest, AddAndDependencies) {
  TaskGraph graph;
  const TaskId a = graph.Add(SyncTask{});
  const TaskId b = graph.Add(SyncTask{});
  graph.AddDep(a, b);
  EXPECT_EQ(graph.task(b).pending_deps, 1);
  EXPECT_EQ(Dependents(graph, a), std::vector<TaskId>{b});
  EXPECT_TRUE(Dependents(graph, b).empty());
  EXPECT_EQ(graph.overflow_edges(), 0u);  // a first dependent is inline
}

TEST(TaskGraphTest, DependentsKeepDeclarationOrderAcrossInterleavedEdges) {
  // Edges of different sources interleave in the shared edge array; each
  // task still sees its dependents in AddDep order (the engine dispatches
  // in that order).
  TaskGraph graph;
  for (int i = 0; i < 6; ++i) {
    graph.Add(SyncTask{});
  }
  graph.AddDep(0, 4);
  graph.AddDep(1, 2);
  graph.AddDep(0, 2);
  graph.AddDep(1, 5);
  graph.AddDep(0, 3);
  EXPECT_EQ(Dependents(graph, 0), (std::vector<TaskId>{4, 2, 3}));
  EXPECT_EQ(Dependents(graph, 1), (std::vector<TaskId>{2, 5}));
  EXPECT_EQ(graph.overflow_edges(), 3u);
  EXPECT_EQ(graph.task(2).pending_deps, 2);
  EXPECT_TRUE(graph.IsAcyclic());
}

TEST(TaskGraphTest, AddSplitsRealDataIntoSideTable) {
  TaskGraph graph;
  SyncTask timed;
  timed.type = PrimitiveType::kSend;
  timed.node = 1;
  timed.peer = 2;
  timed.bytes = 77;
  timed.gradient_id = 9;
  const TaskId plain = graph.Add(timed);
  EXPECT_EQ(graph.data(plain), nullptr);  // timing-only: no side table
  const size_t timing_only_bytes = graph.MemoryBytes();
  EXPECT_EQ(timing_only_bytes, graph.tasks().capacity() * sizeof(TaskRecord));

  int fired = 0;
  SyncTask real = timed;
  real.action = [&fired] { ++fired; };
  real.payload = std::make_shared<PooledBytes>(nullptr, 5);
  const TaskId with_data = graph.Add(std::move(real));
  ASSERT_NE(graph.data(with_data), nullptr);
  graph.data(with_data)->action();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(graph.data(with_data)->payload->size(), 5u);
  EXPECT_FALSE(graph.data(with_data)->deliver);
  // Earlier tasks get empty slots; the hot records are unchanged.
  ASSERT_NE(graph.data(plain), nullptr);
  EXPECT_TRUE(graph.data(plain)->empty());
  const TaskRecord& record = graph.task(with_data);
  EXPECT_EQ(record.type, PrimitiveType::kSend);
  EXPECT_EQ(record.node, 1);
  EXPECT_EQ(record.peer, 2);
  EXPECT_EQ(record.bytes, 77u);
  EXPECT_EQ(record.gradient_id, 9u);
  EXPECT_EQ(record.end_time, kTaskNeverRan);
  // A later timing-only task does not grow the side table.
  const TaskId after = graph.Add(timed);
  EXPECT_EQ(graph.data(after), nullptr);
}

TEST(TaskGraphTest, AcyclicityCheck) {
  TaskGraph graph;
  const TaskId a = graph.Add(SyncTask{});
  const TaskId b = graph.Add(SyncTask{});
  const TaskId c = graph.Add(SyncTask{});
  graph.AddDep(a, b);
  graph.AddDep(b, c);
  EXPECT_TRUE(graph.IsAcyclic());
  graph.AddDep(c, a);
  EXPECT_FALSE(graph.IsAcyclic());
}

// ------------------------------------------------------- graph memory

TEST(TaskGraphMemoryTest, BuildersReserveExactCounts) {
  for (const StrategyKind strategy :
       {StrategyKind::kPs, StrategyKind::kRing, StrategyKind::kTree}) {
    for (const int nodes : {1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 31, 64, 100}) {
      for (const int partitions : {0, 1, 3, 8}) {
        for (const bool compress : {false, true}) {
          const SyncConfig config = BaseConfig(strategy, nodes);
          GradientSync gradient = CompressedGradient(1 << 20, partitions);
          gradient.compress = compress;
          const SyncTaskCounts counts = CountSyncTasks(config, gradient);
          TaskGraph graph;
          AppendSyncTasks(config, gradient, &graph);
          SCOPED_TRACE(testing::Message()
                       << StrategyKindName(strategy) << " n=" << nodes
                       << " k=" << partitions << " compress=" << compress);
          EXPECT_EQ(graph.size(), counts.tasks);
          EXPECT_EQ(graph.overflow_edges(), counts.overflow_edges);
          // Reserved once, exactly: no regrowth slack, no side table.
          EXPECT_EQ(graph.MemoryBytes(),
                    counts.tasks * sizeof(TaskRecord) +
                        counts.overflow_edges * sizeof(TaskGraph::Edge));
        }
      }
    }
  }
}

TEST(TaskGraphMemoryTest, AppendingToOneGraphKeepsCountsExact) {
  // Several gradients in one graph (the engine tests do this): the
  // reservation grows the arrays, and the counts still add up.
  const SyncConfig config = BaseConfig(StrategyKind::kRing, 8);
  TaskGraph graph;
  SyncTaskCounts total;
  for (int i = 0; i < 5; ++i) {
    const GradientSync gradient = CompressedGradient(4096, 1 + i % 3);
    const SyncTaskCounts counts = CountSyncTasks(config, gradient);
    total.tasks += counts.tasks;
    total.overflow_edges += counts.overflow_edges;
    AppendSyncTasks(config, gradient, &graph);
  }
  EXPECT_EQ(graph.size(), total.tasks);
  EXPECT_EQ(graph.overflow_edges(), total.overflow_edges);
  EXPECT_TRUE(graph.IsAcyclic());
}

TEST(TaskGraphMemoryTest, CompressedPsGraphFitsEightyBytesPerTask) {
  // Records, overflow edges and side table together, by capacity.
  const SyncConfig config = BaseConfig(StrategyKind::kPs, 64);
  TaskGraph graph;
  AppendSyncTasks(config, CompressedGradient(64 << 20, 8), &graph);
  ASSERT_GT(graph.size(), 3000u);
  EXPECT_LE(graph.MemoryBytes(), 80 * graph.size());
}

// ------------------------------------------------------------- PS builder

TEST(PsBuilderTest, CompressedPrimitiveCounts) {
  // N=4 workers, 1 partition, compressed:
  //   push: (N-1) worker encodes, (N-1) sends/recvs, (N-1) decodes
  //   + 1 local merge + 1 aggregate barrier + 1 encode-back
  //   pull: (N-1) sends/recvs/decodes.
  const SyncConfig config = BaseConfig(StrategyKind::kPs, 4);
  TaskGraph graph;
  AppendPsSyncTasks(config, CompressedGradient(1024, 1), &graph);
  const auto counts = CountByType(graph);
  EXPECT_EQ(counts.at(PrimitiveType::kEncode), 3 + 1);
  EXPECT_EQ(counts.at(PrimitiveType::kDecode), 3 + 3);
  EXPECT_EQ(counts.at(PrimitiveType::kSend), 6);
  EXPECT_EQ(counts.at(PrimitiveType::kRecv), 6);
  EXPECT_EQ(counts.at(PrimitiveType::kMerge), 1);  // co-located shard
  EXPECT_TRUE(graph.IsAcyclic());
}

TEST(PsBuilderTest, RawGradientHasNoCodecTasks) {
  const SyncConfig config = BaseConfig(StrategyKind::kPs, 4);
  GradientSync gradient;
  gradient.bytes = 4096;
  gradient.compress = false;
  gradient.partitions = 2;
  TaskGraph graph;
  AppendPsSyncTasks(config, gradient, &graph);
  const auto counts = CountByType(graph);
  EXPECT_EQ(counts.count(PrimitiveType::kEncode), 0u);
  EXPECT_EQ(counts.count(PrimitiveType::kDecode), 0u);
  EXPECT_GT(counts.at(PrimitiveType::kMerge), 0);
  EXPECT_TRUE(graph.IsAcyclic());
}

TEST(PsBuilderTest, PartitionsSpreadAcrossAggregators) {
  const SyncConfig config = BaseConfig(StrategyKind::kPs, 4);
  TaskGraph graph;
  AppendPsSyncTasks(config, CompressedGradient(4096, 4), &graph);
  // Each partition's barrier lands on a distinct node.
  std::set<int> aggregators;
  for (const TaskRecord& task : graph.tasks()) {
    if (task.type == PrimitiveType::kBarrier) {
      aggregators.insert(task.node);
    }
  }
  EXPECT_EQ(aggregators.size(), 4u);
}

TEST(PsBuilderTest, WireBytesUseCompressionRate) {
  const SyncConfig config = BaseConfig(StrategyKind::kPs, 2);
  GradientSync gradient = CompressedGradient(32000, 1);
  TaskGraph graph;
  AppendPsSyncTasks(config, gradient, &graph);
  for (const TaskRecord& task : graph.tasks()) {
    if (task.type == PrimitiveType::kSend) {
      EXPECT_EQ(task.bytes, 1000u);  // 32000 / 32
    }
    if (task.type == PrimitiveType::kEncode) {
      EXPECT_EQ(task.bytes, 32000u);  // cost model sees original bytes
    }
  }
}

TEST(PsBuilderTest, TinyCompressedSendsKeepHeaderFloor) {
  const SyncConfig config = BaseConfig(StrategyKind::kPs, 2);
  GradientSync gradient = CompressedGradient(64, 1);
  TaskGraph graph;
  AppendPsSyncTasks(config, gradient, &graph);
  for (const TaskRecord& task : graph.tasks()) {
    if (task.type == PrimitiveType::kSend) {
      EXPECT_EQ(task.bytes, kMinWireBytes);
    }
  }
}

// ------------------------------------------------------------ Ring builder

TEST(RingBuilderTest, CompressedPrimitiveCountsMatchBetaGamma) {
  // One chunk over N=4: aggregation needs N-1 encodes and N-1 decodes;
  // dissemination adds 1 encode and N-1 decodes (Section 3.3's
  // beta = (N-1)+1 = N, gamma analysis).
  const SyncConfig config = BaseConfig(StrategyKind::kRing, 4);
  TaskGraph graph;
  AppendRingSyncTasks(config, CompressedGradient(1024, 1), &graph);
  const auto counts = CountByType(graph);
  EXPECT_EQ(counts.at(PrimitiveType::kEncode), 4);   // beta = N
  EXPECT_EQ(counts.at(PrimitiveType::kDecode), 6);   // 2(N-1)
  EXPECT_EQ(counts.at(PrimitiveType::kSend), 6);     // 2(N-1) steps
  EXPECT_EQ(counts.at(PrimitiveType::kRecv), 6);
  EXPECT_TRUE(graph.IsAcyclic());
}

TEST(RingBuilderTest, ChunksScaleTaskCounts) {
  const SyncConfig config = BaseConfig(StrategyKind::kRing, 4);
  TaskGraph one;
  AppendRingSyncTasks(config, CompressedGradient(4096, 1), &one);
  TaskGraph four;
  AppendRingSyncTasks(config, CompressedGradient(4096, 4), &four);
  EXPECT_EQ(four.size(), 4 * one.size());
}

TEST(RingBuilderTest, AggregationHopsAreChained) {
  // The h-th encode must transitively depend on the (h-1)-th decode: walk
  // the graph and confirm no encode (other than the first) has zero deps.
  const SyncConfig config = BaseConfig(StrategyKind::kRing, 4);
  TaskGraph graph;
  AppendRingSyncTasks(config, CompressedGradient(1024, 1), &graph);
  int roots = 0;
  for (const TaskRecord& task : graph.tasks()) {
    if (task.pending_deps == 0) {
      ++roots;
      // Only the very first aggregation-phase encode+send can be rootless.
      EXPECT_TRUE(task.type == PrimitiveType::kEncode ||
                  task.type == PrimitiveType::kSend);
    }
  }
  EXPECT_EQ(roots, 1);
}

TEST(RingBuilderTest, SingleNodeDegeneratesToBarrier) {
  const SyncConfig config = BaseConfig(StrategyKind::kRing, 1);
  TaskGraph graph;
  AppendRingSyncTasks(config, CompressedGradient(1024, 1), &graph);
  EXPECT_EQ(graph.size(), 1u);
  EXPECT_EQ(graph.task(0).type, PrimitiveType::kBarrier);
}

TEST(RingBuilderTest, RawRingUsesMerges) {
  const SyncConfig config = BaseConfig(StrategyKind::kRing, 4);
  GradientSync gradient;
  gradient.bytes = 4096;
  gradient.compress = false;
  gradient.partitions = 4;
  TaskGraph graph;
  AppendRingSyncTasks(config, gradient, &graph);
  const auto counts = CountByType(graph);
  EXPECT_EQ(counts.count(PrimitiveType::kEncode), 0u);
  EXPECT_EQ(counts.at(PrimitiveType::kMerge), 4 * 3);  // K chunks x (N-1)
}

// ----------------------------------------------------------- Tree builder

TEST(TreeBuilderTest, CompressedPrimitiveCounts) {
  // N=8: reduce has N-1 = 7 sends (one per non-root subtree edge), each
  // with an encode and a decode+merge; broadcast re-encodes once and
  // forwards over the same 7 edges with a decode at each receiver.
  const SyncConfig config = BaseConfig(StrategyKind::kTree, 8);
  TaskGraph graph;
  AppendTreeSyncTasks(config, CompressedGradient(1024, 1), &graph);
  const auto counts = CountByType(graph);
  EXPECT_EQ(counts.at(PrimitiveType::kEncode), 7 + 1);
  EXPECT_EQ(counts.at(PrimitiveType::kDecode), 7 + 7);
  EXPECT_EQ(counts.at(PrimitiveType::kSend), 14);
  EXPECT_EQ(counts.at(PrimitiveType::kRecv), 14);
  EXPECT_TRUE(graph.IsAcyclic());
}

TEST(TreeBuilderTest, NonPowerOfTwoNodeCounts) {
  for (int nodes : {2, 3, 5, 6, 7, 9, 16}) {
    const SyncConfig config = BaseConfig(StrategyKind::kTree, nodes);
    TaskGraph graph;
    AppendTreeSyncTasks(config, CompressedGradient(4096, 2), &graph);
    EXPECT_TRUE(graph.IsAcyclic()) << nodes;
    const auto counts = CountByType(graph);
    // One send per tree edge per direction per partition.
    EXPECT_EQ(counts.at(PrimitiveType::kSend), 2 * (nodes - 1) * 2) << nodes;
  }
}

TEST(TreeBuilderTest, SingleNodeDegeneratesToBarrier) {
  const SyncConfig config = BaseConfig(StrategyKind::kTree, 1);
  TaskGraph graph;
  AppendTreeSyncTasks(config, CompressedGradient(1024, 1), &graph);
  EXPECT_EQ(graph.size(), 1u);
}

TEST(TreeBuilderTest, RawTreeUsesMerges) {
  const SyncConfig config = BaseConfig(StrategyKind::kTree, 8);
  GradientSync gradient;
  gradient.bytes = 4096;
  gradient.compress = false;
  gradient.partitions = 1;
  TaskGraph graph;
  AppendTreeSyncTasks(config, gradient, &graph);
  const auto counts = CountByType(graph);
  EXPECT_EQ(counts.count(PrimitiveType::kEncode), 0u);
  EXPECT_EQ(counts.at(PrimitiveType::kMerge), 7);
}

TEST(BuilderDispatchTest, AppendSyncTasksRoutesByStrategy) {
  TaskGraph ps_graph;
  AppendSyncTasks(BaseConfig(StrategyKind::kPs, 4),
                  CompressedGradient(1024, 1), &ps_graph);
  TaskGraph ring_graph;
  AppendSyncTasks(BaseConfig(StrategyKind::kRing, 4),
                  CompressedGradient(1024, 1), &ring_graph);
  EXPECT_NE(ps_graph.size(), ring_graph.size());
}

TEST(WorkflowTest, DescribesEachStrategy) {
  for (StrategyKind strategy :
       {StrategyKind::kPs, StrategyKind::kRing, StrategyKind::kTree}) {
    SyncConfig config = BaseConfig(strategy, 8);
    const std::string description = DescribeStrategy(config, true);
    EXPECT_NE(description.find(StrategyKindName(strategy)),
              std::string::npos);
    EXPECT_NE(description.find("encode"), std::string::npos) << description;
  }
}

TEST(WorkflowTest, CompressedWorkflowsMentionCodecSteps) {
  SyncConfig config = BaseConfig(StrategyKind::kPs, 4);
  const std::string compressed =
      DescribeWorkflow(config, NodeRole::kWorker, true);
  EXPECT_NE(compressed.find("encode"), std::string::npos);
  const std::string raw = DescribeWorkflow(config, NodeRole::kWorker, false);
  EXPECT_EQ(raw.find("encode"), std::string::npos);
}

TEST(WorkflowTest, AggregatorWorkflowCountsPeers) {
  SyncConfig config = BaseConfig(StrategyKind::kPs, 16);
  const std::string description =
      DescribeWorkflow(config, NodeRole::kAggregator, true);
  EXPECT_NE(description.find("x15"), std::string::npos);
}

}  // namespace
}  // namespace hipress
