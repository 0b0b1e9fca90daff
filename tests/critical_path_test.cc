// Critical-path profiler, cost-model auditor and step reports: exact chain
// extraction on hand-built graphs, window attribution invariants, safety on
// cancelled graphs, auditor fit/error math, and the end-to-end trainer
// integration (per-iteration records summing to the iteration time,
// straggler skew rising under link degradation).
#include "src/casync/critical_path.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/casync/builder.h"
#include "src/common/profiler.h"
#include "src/hipress/hipress.h"

namespace hipress {
namespace {

TaskId AddTimedTask(TaskGraph* graph, PrimitiveType type, int node,
                    SimTime ready, SimTime start, SimTime end) {
  SyncTask task;
  task.type = type;
  task.node = node;
  task.ready_time = ready;
  task.start_time = start;
  task.end_time = end;
  return graph->Add(task);
}

// encode(0..10) -> send(10..40) -> recv(40) -> decode(45..60 after a 5ns
// queue), plus a faster side encode that must NOT be picked as the gate.
TaskGraph MakeDiamondGraph() {
  TaskGraph graph;
  const TaskId encode =
      AddTimedTask(&graph, PrimitiveType::kEncode, 0, 0, 0, 10);
  const TaskId side = AddTimedTask(&graph, PrimitiveType::kEncode, 1, 0, 0, 5);
  const TaskId send =
      AddTimedTask(&graph, PrimitiveType::kSend, 0, 10, 10, 40);
  const TaskId recv =
      AddTimedTask(&graph, PrimitiveType::kRecv, 1, 40, 40, 40);
  const TaskId decode =
      AddTimedTask(&graph, PrimitiveType::kDecode, 1, 40, 45, 60);
  graph.AddDep(encode, send);
  graph.AddDep(side, send);
  graph.AddDep(send, recv);
  graph.AddDep(recv, decode);
  return graph;
}

TEST(CriticalPathTest, ExtractsGatingChainExactly) {
  const TaskGraph graph = MakeDiamondGraph();
  const CriticalPath path = AnalyzeCriticalPath(graph);
  ASSERT_EQ(path.steps.size(), 4u);
  EXPECT_EQ(path.steps[0].type, PrimitiveType::kEncode);
  EXPECT_EQ(path.steps[0].node, 0);  // the slower encode gates the send
  EXPECT_EQ(path.steps[1].type, PrimitiveType::kSend);
  EXPECT_EQ(path.steps[2].type, PrimitiveType::kRecv);
  EXPECT_EQ(path.steps[3].type, PrimitiveType::kDecode);
  EXPECT_EQ(path.path_start, 0);
  EXPECT_EQ(path.path_end, 60);
  EXPECT_EQ(path.attribution[CpCategory::kEncode], 10);
  EXPECT_EQ(path.attribution[CpCategory::kSend], 30);
  EXPECT_EQ(path.attribution[CpCategory::kRecv], 0);
  EXPECT_EQ(path.attribution[CpCategory::kDecode], 15);
  EXPECT_EQ(path.attribution[CpCategory::kWait], 5);
  // The chain's attribution covers its extent exactly.
  EXPECT_EQ(path.attribution.total(), path.path_end - path.path_start);
}

TEST(CriticalPathTest, IterationAttributionSumsToWindow) {
  const TaskGraph graph = MakeDiamondGraph();
  TaskGraph early;  // finishes before the diamond; must not bound
  const TaskId a = AddTimedTask(&early, PrimitiveType::kEncode, 0, 0, 0, 3);
  const TaskId b = AddTimedTask(&early, PrimitiveType::kSend, 0, 3, 3, 8);
  early.AddDep(a, b);
  const IterationAttribution attrib =
      AttributeIteration({&early, &graph}, -20, 100);
  EXPECT_EQ(attrib.bounding_graph, 1);
  // Pre-chain lead (20) and post-chain barrier tail (40) are compute.
  EXPECT_EQ(attrib.attribution[CpCategory::kCompute], 60);
  EXPECT_EQ(attrib.attribution.total(), 120);  // == window, exactly
}

TEST(CriticalPathTest, EmptyWindowIsAllCompute) {
  const IterationAttribution attrib = AttributeIteration({}, 0, 50);
  EXPECT_EQ(attrib.bounding_graph, -1);
  EXPECT_EQ(attrib.attribution[CpCategory::kCompute], 50);
  EXPECT_TRUE(attrib.path.empty());
}

TEST(CriticalPathTest, CancelledGraphDoesNotCrash) {
  // Nothing ran: all timestamps stay kTaskNeverRan.
  TaskGraph graph;
  const TaskId a = graph.Add(SyncTask{});
  const TaskId b = graph.Add(SyncTask{});
  graph.AddDep(a, b);
  EXPECT_TRUE(AnalyzeCriticalPath(graph).empty());
  const IterationAttribution attrib = AttributeIteration({&graph}, 0, 10);
  EXPECT_EQ(attrib.bounding_graph, -1);
  EXPECT_EQ(attrib.attribution[CpCategory::kCompute], 10);
}

TEST(CriticalPathTest, PartiallyExecutedGraphUsesCompletedPrefix) {
  TaskGraph graph;
  const TaskId done =
      AddTimedTask(&graph, PrimitiveType::kEncode, 0, 0, 0, 10);
  SyncTask pending;  // dispatched but cancelled mid-flight
  pending.type = PrimitiveType::kSend;
  pending.node = 0;
  pending.ready_time = 10;
  pending.start_time = 10;
  const TaskId cancelled = graph.Add(pending);
  graph.AddDep(done, cancelled);
  const CriticalPath path = AnalyzeCriticalPath(graph);
  ASSERT_EQ(path.steps.size(), 1u);
  EXPECT_EQ(path.steps[0].task, done);
  EXPECT_EQ(path.path_end, 10);
}

TEST(CriticalPathTest, SpansLandOnCriticalPathLane) {
  const TaskGraph graph = MakeDiamondGraph();
  const CriticalPath path = AnalyzeCriticalPath(graph);
  SpanCollector spans;
  AddCriticalPathSpans(path, -20, /*compute_node=*/0, &spans);
  const std::vector<TraceSpan> recorded = spans.spans();
  ASSERT_FALSE(recorded.empty());
  EXPECT_EQ(recorded[0].name, "cp:compute");
  EXPECT_EQ(recorded[0].start, -20);
  EXPECT_EQ(recorded[0].end, 0);
  for (const TraceSpan& span : recorded) {
    EXPECT_EQ(span.lane, kTraceLaneCriticalPath);
    EXPECT_EQ(span.name.rfind("cp:", 0), 0u);
  }
  // encode + send + recv(zero-width, skipped) + decode + its queue + lead.
  EXPECT_EQ(recorded.size(), 5u);
}

// ----------------------------------------------------------- golden schedule
//
// Two FNV-1a fingerprints per scenario: every task's (type, node, peer,
// bytes, ready, start, end) in id order, and every graph's critical path
// (steps and attribution) plus the window attribution over all graphs.
// The values pin the schedules the engine produced when they were
// recorded: a change to dispatch order, tie-breaks or recorded times
// moves them, a change to how graphs are stored must not.

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;

uint64_t Fnv(uint64_t hash, uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    hash ^= (value >> (8 * b)) & 0xffULL;
    hash *= 1099511628211ULL;
  }
  return hash;
}

uint64_t FnvTime(uint64_t hash, SimTime t) {
  return Fnv(hash, static_cast<uint64_t>(t));
}

struct GoldenPrints {
  uint64_t schedule = kFnvOffset;
  uint64_t path = kFnvOffset;
  uint64_t cancelled = 0;  // graphs failed by a peer crash
  uint64_t retries = 0;    // reliable-channel retransmissions
};

void FoldPath(const CriticalPath& path, uint64_t* hash) {
  *hash = Fnv(*hash, path.steps.size());
  for (const CpStep& step : path.steps) {
    *hash = Fnv(*hash, step.task);
    *hash = Fnv(*hash, static_cast<uint64_t>(step.type));
    *hash = Fnv(*hash, static_cast<uint64_t>(step.node));
    *hash = FnvTime(*hash, step.ready);
    *hash = FnvTime(*hash, step.start);
    *hash = FnvTime(*hash, step.end);
  }
  *hash = FnvTime(*hash, path.path_start);
  *hash = FnvTime(*hash, path.path_end);
  for (const SimTime t : path.attribution.time) {
    *hash = FnvTime(*hash, t);
  }
}

struct GoldenScenario {
  StrategyKind strategy = StrategyKind::kPs;
  bool compress = true;
  bool bulk = false;
  bool pipelining = true;
  double drop_prob = 0.0;
  int crash_node = -1;  // crashes at kGoldenCrashAt when >= 0
};

constexpr SimTime kGoldenCrashAt = FromMicros(150.0);

// Three gradients of different sizes launched 40us apart on one engine, so
// graphs overlap and contend; a cancelled graph is rebuilt over the
// survivors and re-executed, as the trainer does.
GoldenPrints RunGolden(const GoldenScenario& scenario, int nodes,
                       int partitions) {
  SyncConfig config;
  config.strategy = scenario.strategy;
  config.num_nodes = nodes;
  config.compression = scenario.compress;
  config.algorithm = "onebit";
  config.bulk = scenario.bulk;
  config.pipelining = scenario.pipelining;
  config.net.link_bandwidth = Bandwidth::Gbps(80.0);
  config.net.latency = FromMicros(10.0);
  config.net.per_message_overhead = FromMicros(2.0);
  config.net.faults.drop_prob = scenario.drop_prob;
  if (scenario.crash_node >= 0) {
    config.net.faults.crashes.push_back({scenario.crash_node, kGoldenCrashAt});
  }
  Simulator sim;
  Network net(&sim, nodes, config.net);
  std::vector<std::unique_ptr<GpuDevice>> gpu_storage;
  std::vector<GpuDevice*> gpus;
  for (int node = 0; node < nodes; ++node) {
    gpu_storage.push_back(std::make_unique<GpuDevice>(&sim, node));
    gpus.push_back(gpu_storage.back().get());
  }
  CaSyncEngine engine(&sim, &net, gpus, config);

  const uint64_t sizes[] = {4 * kMiB, 300 * 1024, 48 * 1024};
  std::vector<GradientSync> plans;
  for (uint32_t i = 0; i < 3; ++i) {
    GradientSync gradient;
    gradient.id = i;
    gradient.bytes = sizes[i];
    gradient.compress = scenario.compress;
    gradient.partitions = partitions;
    gradient.rate = 1.0 / 32;
    plans.push_back(gradient);
  }
  std::vector<std::unique_ptr<TaskGraph>> graphs;
  std::vector<std::pair<uint64_t, SimTime>> outcomes;
  std::function<void(size_t, TaskGraph*)> execute = [&](size_t i,
                                                        TaskGraph* graph) {
    engine.Execute(graph, [&, i](const Status& status) {
      outcomes.emplace_back(status.ok() ? i : 100 + i, sim.now());
      if (status.ok()) {
        return;
      }
      std::vector<int> survivors;
      for (int node = 0; node < nodes; ++node) {
        if (!engine.node_failed(node)) {
          survivors.push_back(node);
        }
      }
      graphs.push_back(std::make_unique<TaskGraph>());
      AppendSyncTasksOver(config, plans[i], survivors, graphs.back().get());
      execute(i, graphs.back().get());
    });
  };
  for (size_t i = 0; i < plans.size(); ++i) {
    graphs.push_back(std::make_unique<TaskGraph>());
    AppendSyncTasks(config, plans[i], graphs.back().get());
    TaskGraph* graph = graphs.back().get();
    sim.Schedule(FromMicros(40.0 * static_cast<double>(i)),
                 [&execute, i, graph] { execute(i, graph); });
  }
  sim.Run();

  GoldenPrints prints;
  prints.cancelled = engine.metrics().counter_value("engine.graphs_cancelled");
  prints.retries = engine.metrics().counter_value("net.retries");
  for (const auto& [id, at] : outcomes) {
    prints.schedule = Fnv(prints.schedule, id);
    prints.schedule = FnvTime(prints.schedule, at);
  }
  std::vector<const TaskGraph*> views;
  for (const auto& graph : graphs) {
    views.push_back(graph.get());
    for (TaskId id = 0; id < graph->size(); ++id) {
      const auto& task = graph->task(id);
      prints.schedule = Fnv(prints.schedule, static_cast<uint64_t>(task.type));
      prints.schedule = Fnv(prints.schedule, static_cast<uint64_t>(task.node));
      prints.schedule = Fnv(prints.schedule, static_cast<uint64_t>(task.peer));
      prints.schedule = Fnv(prints.schedule, task.bytes);
      prints.schedule = FnvTime(prints.schedule, task.ready_time);
      prints.schedule = FnvTime(prints.schedule, task.start_time);
      prints.schedule = FnvTime(prints.schedule, task.end_time);
    }
    FoldPath(AnalyzeCriticalPath(*graph), &prints.path);
  }
  const IterationAttribution attrib =
      AttributeIteration(views, -FromMicros(25.0), sim.now() + 7);
  prints.path = Fnv(prints.path, static_cast<uint64_t>(attrib.bounding_graph));
  FoldPath(attrib.path, &prints.path);
  for (const SimTime t : attrib.attribution.time) {
    prints.path = FnvTime(prints.path, t);
  }
  return prints;
}

struct GoldenCase {
  const char* name;
  GoldenScenario scenario;
  uint64_t schedule;
  uint64_t path;
};

TEST(GoldenScheduleTest, FingerprintsMatchRecordedSchedules) {
  const GoldenCase cases[] = {
      {"ps", {StrategyKind::kPs, true, false},
       0xfd1aa6a03dbcfc80ULL, 0x67a65c8ce235049bULL},
      {"ps/bulk", {StrategyKind::kPs, true, true},
       0x21d14a45faee3ae9ULL, 0x49b44acb7bf75cecULL},
      {"ps/raw", {StrategyKind::kPs, false, false},
       0x2a78ce0bca9cb633ULL, 0xe595c49629ef26dfULL},
      {"ps/raw/bulk", {StrategyKind::kPs, false, true},
       0x6ad3eb4cef26d219ULL, 0x76c21889f8e485daULL},
      {"ring", {StrategyKind::kRing, true, false},
       0x5d9a71e5a425c073ULL, 0xe143c24c5eca23e3ULL},
      {"ring/bulk", {StrategyKind::kRing, true, true},
       0x8a24417f2948c4fdULL, 0x3f48629f648b80c5ULL},
      {"ring/raw", {StrategyKind::kRing, false, false},
       0x4fdd13815710ea42ULL, 0x79fdb1f4640004c0ULL},
      {"ring/raw/bulk", {StrategyKind::kRing, false, true},
       0xda009a355711236cULL, 0x8773577b8b9c900bULL},
      {"tree", {StrategyKind::kTree, true, false},
       0x1b00f2838b2ef2b5ULL, 0xe722675fe767f0ccULL},
      {"tree/bulk", {StrategyKind::kTree, true, true},
       0xb4c1951e314ad82fULL, 0x71ecd62360028ad4ULL},
      {"tree/raw", {StrategyKind::kTree, false, false},
       0x11f82a1ddf089b28ULL, 0xdec14e4b10460163ULL},
      {"tree/raw/bulk", {StrategyKind::kTree, false, true},
       0x9aee659a0f057b54ULL, 0x1054eb8f965129c2ULL},
      {"ps/serial", {StrategyKind::kPs, true, false, false},
       0x267b41c299f9da3fULL, 0x2a56ead5ceb1580fULL},
  };
  for (const GoldenCase& c : cases) {
    GoldenPrints prints;
    for (const int nodes : {1, 2, 3, 8, 64}) {
      for (const int partitions : {1, 3}) {
        const GoldenPrints run = RunGolden(c.scenario, nodes, partitions);
        prints.schedule = Fnv(prints.schedule, run.schedule);
        prints.path = Fnv(prints.path, run.path);
      }
    }
    EXPECT_EQ(prints.schedule, c.schedule)
        << c.name << std::hex << " schedule 0x" << prints.schedule;
    EXPECT_EQ(prints.path, c.path)
        << c.name << std::hex << " path 0x" << prints.path;
  }
}

TEST(GoldenScheduleTest, LossyAndCrashRunsMatchRecordedSchedules) {
  GoldenScenario lossy;
  lossy.bulk = true;
  lossy.drop_prob = 0.01;
  const GoldenPrints lossy_prints = RunGolden(lossy, 8, 3);
  EXPECT_GT(lossy_prints.retries, 0u);
  EXPECT_EQ(lossy_prints.schedule, 0x974ccc69116c6382ULL)
      << std::hex << "0x" << lossy_prints.schedule;
  EXPECT_EQ(lossy_prints.path, 0xe18890eb4b0f8b0fULL)
      << std::hex << "0x" << lossy_prints.path;

  GoldenScenario crash;
  crash.crash_node = 2;
  const GoldenPrints crash_prints = RunGolden(crash, 8, 3);
  EXPECT_GT(crash_prints.cancelled, 0u);
  EXPECT_EQ(crash_prints.schedule, 0x3e2d54cfcb163cc5ULL)
      << std::hex << "0x" << crash_prints.schedule;
  EXPECT_EQ(crash_prints.path, 0x27adfd29a3b582acULL)
      << std::hex << "0x" << crash_prints.path;
}

// ------------------------------------------------------------------ auditor

TEST(CostModelAuditorTest, ZeroErrorWhenSamplesMatchPrediction) {
  CostModelAuditor auditor;
  const KernelCost line{FromMicros(20.0), 1e9};
  auditor.SetPrediction(CostPrimitive::kEncode, line);
  for (uint64_t bytes : {1000u, 50000u, 1000000u}) {
    auditor.AddSample(CostPrimitive::kEncode, bytes, line.Time(bytes));
  }
  EXPECT_EQ(auditor.samples(CostPrimitive::kEncode), 3u);
  EXPECT_NEAR(auditor.MeanRelativeError(CostPrimitive::kEncode), 0.0, 1e-9);
}

TEST(CostModelAuditorTest, DriftRegistersAsRelativeError) {
  CostModelAuditor auditor;
  const KernelCost line{FromMicros(20.0), 1e9};
  auditor.SetPrediction(CostPrimitive::kSend, line);
  for (uint64_t bytes : {1000u, 50000u, 1000000u}) {
    auditor.AddSample(CostPrimitive::kSend, bytes, 2 * line.Time(bytes));
  }
  EXPECT_NEAR(auditor.MeanRelativeError(CostPrimitive::kSend), 1.0, 1e-6);
}

TEST(CostModelAuditorTest, FitRecoversKnownLine) {
  CostModelAuditor auditor;
  const KernelCost truth{FromMicros(35.0), 4e9};
  for (uint64_t bytes = 1 << 10; bytes <= 1 << 24; bytes *= 4) {
    auditor.AddSample(CostPrimitive::kMerge, bytes, truth.Time(bytes));
  }
  KernelCost fitted;
  ASSERT_TRUE(auditor.Fit(CostPrimitive::kMerge, &fitted));
  EXPECT_NEAR(static_cast<double>(fitted.launch_overhead),
              static_cast<double>(truth.launch_overhead),
              static_cast<double>(FromMicros(1.0)));
  EXPECT_NEAR(fitted.bytes_per_second, truth.bytes_per_second,
              0.01 * truth.bytes_per_second);
}

TEST(CostModelAuditorTest, FitRefusesDegenerateSamples) {
  CostModelAuditor auditor;
  KernelCost fitted;
  EXPECT_FALSE(auditor.Fit(CostPrimitive::kEncode, &fitted));  // no samples
  auditor.AddSample(CostPrimitive::kEncode, 4096, 100);
  auditor.AddSample(CostPrimitive::kEncode, 4096, 120);
  // All samples at one size: slope unidentifiable.
  EXPECT_FALSE(auditor.Fit(CostPrimitive::kEncode, &fitted));
}

TEST(CostModelAuditorTest, PublishIsIdempotent) {
  CostModelAuditor auditor;
  auditor.SetPrediction(CostPrimitive::kDecode, KernelCost{0, 1e9});
  auditor.AddSample(CostPrimitive::kDecode, 1000, 500);
  MetricsRegistry registry;
  auditor.Publish(&registry);
  auditor.Publish(&registry);
  EXPECT_EQ(registry.counter_value("costmodel.samples.decode"), 1u);
}

// --------------------------------------------------------------- step report

TEST(StepReportTest, JsonShapeIsStable) {
  StepRecord record;
  record.iteration = 3;
  record.iteration_ms = 12.5;
  record.compute_ms = 10.0;
  record.send_ms = 2.5;
  record.path_tasks = 7;
  record.degraded = true;
  EXPECT_EQ(StepRecordToJson(record),
            "{\"iteration\":3,\"iteration_ms\":12.500000,"
            "\"compute_ms\":10.000000,\"encode_ms\":0.000000,"
            "\"merge_ms\":0.000000,\"send_ms\":2.500000,"
            "\"recv_ms\":0.000000,\"decode_ms\":0.000000,"
            "\"wait_ms\":0.000000,\"path_tasks\":7,"
            "\"straggler_skew_ms\":0.000000,\"degraded\":true}");
}

TEST(StepReportTest, WritesOneLinePerIteration) {
  std::vector<StepRecord> steps(3);
  for (int i = 0; i < 3; ++i) {
    steps[i].iteration = i;
  }
  const std::string path = testing::TempDir() + "/steps_test.jsonl";
  ASSERT_TRUE(WriteStepReport(path, steps).ok());
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string contents;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(file);
  std::remove(path.c_str());
  int lines = 0;
  size_t pos = 0;
  while ((pos = contents.find('\n', pos)) != std::string::npos) {
    ++lines;
    ++pos;
  }
  EXPECT_EQ(lines, 3);
  EXPECT_EQ(contents.rfind("{\"iteration\":0,", 0), 0u);
}

// ------------------------------------------------------------- end to end

TrainReport MustRun(const std::string& model, const std::string& system,
                    int nodes, FaultConfig faults = {}) {
  HiPressOptions options;
  options.model = model;
  options.system = system;
  options.cluster = ClusterSpec::Ec2(nodes);
  options.cluster.net.faults = faults;
  auto result = RunTrainingSimulation(options);
  EXPECT_TRUE(result.ok()) << result.status();
  return result->report;
}

TEST(TrainerCriticalPathTest, StepAttributionSumsToIterationTime) {
  const TrainReport report = MustRun("vgg19", "hipress-ps", 4);
  ASSERT_FALSE(report.steps.empty());
  for (const StepRecord& step : report.steps) {
    const double sum = step.compute_ms + step.encode_ms + step.merge_ms +
                       step.send_ms + step.recv_ms + step.decode_ms +
                       step.wait_ms;
    EXPECT_NEAR(sum, step.iteration_ms, 0.05 * step.iteration_ms);
    EXPECT_GT(step.path_tasks, 0);
  }
  // The measured iteration's attribution is also exported as gauges.
  EXPECT_GT(report.cp_attribution.total(), 0);
  EXPECT_NEAR(report.metrics->gauge_value("cp.compute_ms") +
                  report.metrics->gauge_value("cp.encode_ms") +
                  report.metrics->gauge_value("cp.merge_ms") +
                  report.metrics->gauge_value("cp.send_ms") +
                  report.metrics->gauge_value("cp.recv_ms") +
                  report.metrics->gauge_value("cp.decode_ms") +
                  report.metrics->gauge_value("cp.wait_ms"),
              ToMillis(report.iteration_time),
              0.05 * ToMillis(report.iteration_time));
  EXPECT_GT(report.iteration_p50_ms, 0.0);
  EXPECT_LE(report.iteration_p50_ms, report.iteration_p99_ms);
}

TEST(TrainerCriticalPathTest, AuditorPublishesEveryActivePrimitive) {
  const TrainReport report = MustRun("vgg19", "hipress-ps", 4);
  for (const char* name : {"encode", "decode", "merge", "send"}) {
    EXPECT_GT(report.metrics->counter_value(
                  std::string("costmodel.samples.") + name),
              0u)
        << name;
  }
  // Kernels execute at exactly their modelled cost; drift there means the
  // engine and the speed profile diverged.
  EXPECT_NEAR(report.metrics->gauge_value("costmodel.err.encode"), 0.0, 1e-6);
  EXPECT_NEAR(report.metrics->gauge_value("costmodel.err.merge"), 0.0, 1e-6);
  // Sends queue and batch; their audited latency must exceed the
  // uncontended model at least occasionally.
  EXPECT_GT(report.metrics->gauge_value("costmodel.err.send"), 0.0);
}

TEST(TrainerCriticalPathTest, StragglerSkewRisesUnderLinkDegradation) {
  const TrainReport balanced = MustRun("vgg19", "hipress-ps", 4);
  ASSERT_FALSE(balanced.steps.empty());
  FaultConfig faults;
  // Every transfer into node 3 at 2% bandwidth for the whole run: node 3's
  // sync tail straggles while the other nodes finish on time.
  faults.degradations.push_back(
      LinkDegradation{-1, 3, 0, FromMillis(10000.0), 0.02});
  const TrainReport skewed = MustRun("vgg19", "hipress-ps", 4, faults);
  ASSERT_FALSE(skewed.steps.empty());
  EXPECT_GT(skewed.steps.back().straggler_skew_ms,
            balanced.steps.back().straggler_skew_ms);
  EXPECT_GT(skewed.metrics->gauge_value("train.straggler_skew_ms"),
            balanced.metrics->gauge_value("train.straggler_skew_ms"));
}

TEST(TrainerCriticalPathTest, RecalibrationFeedsPlannerCodecOverride) {
  const TrainReport report = MustRun("vgg19", "hipress-ps", 4);
  // Rebuild the planner from audited fits (the refresh path): fitted
  // encode/decode lines reproduce the calibrated planning inputs, so the
  // override planner prices like the original.
  SyncConfig config;
  config.num_nodes = 4;
  SeCoPaPlanner original(config, 0.05);
  CodecSpeed refreshed = original.codec_speed();
  CostModelAuditor auditor;
  for (uint64_t bytes = 1 << 12; bytes <= 1 << 26; bytes *= 2) {
    auditor.AddSample(CostPrimitive::kEncode, bytes,
                      original.codec_speed().encode.Time(bytes));
    auditor.AddSample(CostPrimitive::kDecode, bytes,
                      original.codec_speed().decode.Time(bytes));
  }
  ASSERT_TRUE(auditor.Fit(CostPrimitive::kEncode, &refreshed.encode));
  ASSERT_TRUE(auditor.Fit(CostPrimitive::kDecode, &refreshed.decode));
  SeCoPaPlanner recalibrated(config, 0.05, refreshed);
  const uint64_t bytes = 64u << 20;
  const SimTime before = original.SyncCostCompressed(bytes, 4);
  const SimTime after = recalibrated.SyncCostCompressed(bytes, 4);
  EXPECT_NEAR(static_cast<double>(after), static_cast<double>(before),
              0.02 * static_cast<double>(before));
  (void)report;
}

}  // namespace
}  // namespace hipress
