// Engine timing semantics: dependency-driven execution, pipelining vs
// serialized sync paths, bulk coordination, and completion callbacks.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "src/casync/builder.h"
#include "src/casync/coordinator.h"
#include "src/casync/engine.h"
#include "src/common/string_util.h"

// Every global operator new in this binary is counted, so a test can bound
// the allocations of a window of engine work.
namespace {
std::atomic<uint64_t> g_new_calls{0};
}  // namespace

void* operator new(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) {
    return block;
  }
  throw std::bad_alloc();
}
// Not inlined: GCC would otherwise pair the free() with the new-expression
// it sees and warn about a mismatched deallocation.
[[gnu::noinline]] void operator delete(void* block) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept {
  std::free(block);
}

namespace hipress {
namespace {

// The counting operator new above is malloc-backed and its delete frees,
// but GCC 12 pairs the inlined malloc with a sized delete and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
struct Cluster {
  explicit Cluster(const SyncConfig& config) : net(&sim, config.num_nodes, config.net) {
    for (int node = 0; node < config.num_nodes; ++node) {
      gpu_storage.push_back(std::make_unique<GpuDevice>(&sim, node));
      gpus.push_back(gpu_storage.back().get());
    }
    engine = std::make_unique<CaSyncEngine>(&sim, &net, gpus, config);
  }

  Simulator sim;
  Network net;
  std::vector<std::unique_ptr<GpuDevice>> gpu_storage;
  std::vector<GpuDevice*> gpus;
  std::unique_ptr<CaSyncEngine> engine;
};
#pragma GCC diagnostic pop

SyncConfig TestConfig(int nodes) {
  SyncConfig config;
  config.strategy = StrategyKind::kPs;
  config.num_nodes = nodes;
  config.compression = true;
  config.algorithm = "onebit";
  config.net.link_bandwidth = Bandwidth::Gbps(80.0);
  config.net.latency = FromMicros(10.0);
  config.net.per_message_overhead = FromMicros(2.0);
  config.bulk = false;
  return config;
}

TEST(EngineTest, EmptyGraphCompletesImmediately) {
  SyncConfig config = TestConfig(2);
  Cluster cluster(config);
  TaskGraph graph;
  bool done = false;
  cluster.engine->Execute(&graph, [&] { done = true; });
  EXPECT_TRUE(done);
}

TEST(EngineTest, DependenciesGateExecution) {
  SyncConfig config = TestConfig(2);
  Cluster cluster(config);
  TaskGraph graph;
  SyncTask encode;
  encode.type = PrimitiveType::kEncode;
  encode.node = 0;
  encode.bytes = 1'000'000;
  const TaskId enc = graph.Add(encode);
  SyncTask send;
  send.type = PrimitiveType::kSend;
  send.node = 0;
  send.peer = 1;
  send.bytes = 31250;
  const TaskId snd = graph.Add(send);
  graph.AddDep(enc, snd);

  SimTime done_at = -1;
  cluster.engine->Execute(&graph, [&] { done_at = cluster.sim.now(); });
  cluster.sim.Run();
  // encode: 15us overhead + 1MB at 120 GB/s (~8.3us); send: 2us + ~3.9us
  // serialize + 10us latency. Total ~39us; assert ordering-critical lower
  // bound (send cannot start before encode completes).
  const SimTime encode_time =
      GetCodecSpeed("onebit", CodecImpl::kCompLL, GpuPlatform::kV100)
          .encode.Time(1'000'000);
  EXPECT_GE(done_at, encode_time + cluster.net.UncontendedSendTime(31250));
}

TEST(EngineTest, ActionsRunOnCompletion) {
  SyncConfig config = TestConfig(2);
  Cluster cluster(config);
  TaskGraph graph;
  std::vector<int> order;
  SyncTask first;
  first.type = PrimitiveType::kMerge;
  first.node = 0;
  first.bytes = 1000;
  first.action = [&] { order.push_back(1); };
  const TaskId a = graph.Add(first);
  SyncTask second;
  second.type = PrimitiveType::kBarrier;
  second.node = 0;
  second.action = [&] { order.push_back(2); };
  const TaskId b = graph.Add(second);
  graph.AddDep(a, b);
  cluster.engine->Execute(&graph, std::function<void()>());
  cluster.sim.Run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(EngineTest, PipeliningOverlapsKernelsAndTransfers) {
  // Several encode->send chains while the device runs backward compute.
  // With pipelining, kernels use the dedicated stream and overlap both the
  // backward block and the transfers; without it they queue behind the
  // backward computation (the OSS integration), finishing much later.
  auto run = [](bool pipelining) {
    SyncConfig config = TestConfig(2);
    config.pipelining = pipelining;
    Cluster cluster(config);
    cluster.gpus[0]->SubmitCompute(FromMillis(5.0), [] {});
    TaskGraph graph;
    for (int i = 0; i < 4; ++i) {
      SyncTask encode;
      encode.type = PrimitiveType::kEncode;
      encode.node = 0;
      encode.bytes = 8'000'000;
      const TaskId enc = graph.Add(encode);
      SyncTask send;
      send.type = PrimitiveType::kSend;
      send.node = 0;
      send.peer = 1;
      send.bytes = 250'000;
      const TaskId snd = graph.Add(send);
      graph.AddDep(enc, snd);
    }
    SimTime done_at = 0;
    cluster.engine->Execute(&graph, [&] { done_at = cluster.sim.now(); });
    cluster.sim.Run();
    return done_at;
  };
  const SimTime with_pipelining = run(true);
  const SimTime without_pipelining = run(false);
  EXPECT_LT(with_pipelining, without_pipelining);
}

TEST(EngineTest, ExtraCopyOverheadDelaysSends) {
  auto run = [](SimTime copy_overhead) {
    SyncConfig config = TestConfig(2);
    config.extra_copy_overhead = copy_overhead;
    Cluster cluster(config);
    TaskGraph graph;
    SyncTask send;
    send.type = PrimitiveType::kSend;
    send.node = 0;
    send.peer = 1;
    send.bytes = 1000;
    graph.Add(send);
    SimTime done_at = 0;
    cluster.engine->Execute(&graph, [&] { done_at = cluster.sim.now(); });
    cluster.sim.Run();
    return done_at;
  };
  EXPECT_EQ(run(FromMicros(100)) - run(0), FromMicros(100));
}

TEST(EngineTest, ConcurrentGraphsShareResources) {
  SyncConfig config = TestConfig(2);
  Cluster cluster(config);
  TaskGraph a;
  TaskGraph b;
  for (TaskGraph* graph : {&a, &b}) {
    SyncTask send;
    send.type = PrimitiveType::kSend;
    send.node = 0;
    send.peer = 1;
    send.bytes = 10'000'000;  // 1ms serialization each
    graph->Add(send);
  }
  std::vector<SimTime> done;
  cluster.engine->Execute(&a, [&] { done.push_back(cluster.sim.now()); });
  cluster.engine->Execute(&b, [&] { done.push_back(cluster.sim.now()); });
  cluster.sim.Run();
  ASSERT_EQ(done.size(), 2u);
  // Same uplink: second completes a full serialization later.
  EXPECT_GE(done[1] - done[0], FromMillis(1));
}

TEST(EngineTest, EndToEndPsGraphCompletes) {
  SyncConfig config = TestConfig(4);
  Cluster cluster(config);
  GradientSync gradient;
  gradient.id = 3;
  gradient.bytes = 4 * kMiB;
  gradient.compress = true;
  gradient.partitions = 2;
  gradient.rate = 1.0 / 32;
  TaskGraph graph;
  AppendPsSyncTasks(config, gradient, &graph);
  SimTime done_at = 0;
  cluster.engine->Execute(&graph, [&] { done_at = cluster.sim.now(); });
  cluster.sim.Run();
  EXPECT_GT(done_at, 0);
}

TEST(EngineTest, EndToEndRingGraphCompletes) {
  SyncConfig config = TestConfig(4);
  config.strategy = StrategyKind::kRing;
  Cluster cluster(config);
  GradientSync gradient;
  gradient.id = 1;
  gradient.bytes = 4 * kMiB;
  gradient.compress = true;
  gradient.partitions = 4;
  gradient.rate = 1.0 / 32;
  TaskGraph graph;
  AppendRingSyncTasks(config, gradient, &graph);
  SimTime done_at = 0;
  cluster.engine->Execute(&graph, [&] { done_at = cluster.sim.now(); });
  cluster.sim.Run();
  EXPECT_GT(done_at, 0);
}

TEST(EngineTest, CompressionReducesRingSyncTimeForLargeGradients) {
  auto run = [](bool compress) {
    SyncConfig config = TestConfig(8);
    config.strategy = StrategyKind::kRing;
    Cluster cluster(config);
    GradientSync gradient;
    gradient.bytes = 128 * kMiB;
    gradient.compress = compress;
    gradient.partitions = 8;
    gradient.rate = 1.0 / 32;
    TaskGraph graph;
    AppendRingSyncTasks(config, gradient, &graph);
    SimTime done_at = 0;
    cluster.engine->Execute(&graph, [&] { done_at = cluster.sim.now(); });
    cluster.sim.Run();
    return done_at;
  };
  // 128 MB over 10 GB/s links: compression (1/32 wire volume) must win big.
  EXPECT_LT(run(true) * 4, run(false));
}

// Global operator new calls during a warm engine's Execute + Run of
// `graphs` freshly built, metadata-only graphs, one after another (building
// them happens outside the window). Four same-shaped graphs run first, so
// the event pool, the engine's graph record and root buffer and the
// coordinator's link queues and batches are warm (recycled batch vectors
// pass between links, so their capacities settle over a few rounds).
// Reports the window's send count via `sends`.
//
// The runs stay inside the scheduler's first calendar frame (about 134 ms
// of simulated time). Past it, far-future events go to the outer calendar,
// whose per-bucket entry arrays hand back spare capacity on every carve
// and regrow (docs/TOPOLOGY.md): those are the scheduler's allocations,
// not the callback path's, so they are kept out of this window.
uint64_t CallbackPathAllocations(StrategyKind strategy, bool bulk,
                                 int partitions, int graphs, uint64_t* sends) {
  SyncConfig config = TestConfig(16);
  config.strategy = strategy;
  config.bulk = bulk;
  Cluster cluster(config);
  GradientSync gradient;
  gradient.bytes = 4 * kMiB;
  gradient.compress = true;
  gradient.partitions = partitions;
  gradient.rate = 1.0 / 32;
  for (int warm = 0; warm < 4; ++warm) {
    TaskGraph graph;
    AppendSyncTasks(config, gradient, &graph);
    cluster.engine->Execute(&graph, [](const Status&) {});
    cluster.sim.Run();
  }
  std::vector<TaskGraph> window(graphs);
  for (TaskGraph& graph : window) {
    AppendSyncTasks(config, gradient, &graph);
  }
  const uint64_t sends_before = cluster.engine->stats().send_tasks;
  int done = 0;
  const uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  for (TaskGraph& graph : window) {
    cluster.engine->Execute(&graph, [&done](const Status& status) {
      done += status.ok() ? 1 : 0;
    });
    cluster.sim.Run();
  }
  const uint64_t allocations =
      g_new_calls.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(done, graphs);
  EXPECT_EQ(cluster.engine->graph_records_in_use(), 0u);
  *sends = cluster.engine->stats().send_tasks - sends_before;
  return allocations;
}

TEST(EngineAllocationTest, CallbackPathAllocationsDoNotGrowWithSends) {
  // Kernel and send callbacks capture (graph record, task id) and fit
  // std::function's inline buffer; coordinator batches, graph records and
  // the root snapshot recycle. So a window of six graphs allocates a small
  // constant, whatever the send count: a graph record that is never
  // recycled would alone cost one allocation per graph.
  constexpr int kGraphs = 6;
  for (const StrategyKind strategy : {StrategyKind::kPs, StrategyKind::kRing}) {
    for (const bool bulk : {false, true}) {
      for (const int partitions : {40, 160}) {
        uint64_t sends = 0;
        const uint64_t allocations = CallbackPathAllocations(
            strategy, bulk, partitions, kGraphs, &sends);
        const std::string label =
            StrFormat("%s bulk=%d partitions=%d sends=%llu",
                      StrategyKindName(strategy), bulk ? 1 : 0, partitions,
                      static_cast<unsigned long long>(sends));
        EXPECT_GE(sends, 1000u * kGraphs) << label;
        EXPECT_LE(allocations, 4u) << label;
      }
    }
  }
}

TEST(EngineLifetimeTest, CancelledGraphReleasesItsRecordAfterStragglers) {
  // A node crashes halfway through a PS graph over reliable transport. The
  // retry budget runs out, the graph is cancelled, and the transfers the
  // channel fails with it return to the engine after on_done: stragglers
  // that must still release the graph's record. The clean run engages the
  // channel with a crash scheduled long after it ends.
  for (const bool bulk : {false, true}) {
    SyncConfig config = TestConfig(8);
    config.bulk = bulk;
    config.net.faults.crashes.push_back({5, FromSeconds(3600.0)});
    GradientSync gradient;
    gradient.bytes = 4 * kMiB;
    gradient.compress = true;
    gradient.partitions = 16;
    gradient.rate = 1.0 / 32;
    SimTime clean_time = 0;
    {
      Cluster cluster(config);
      TaskGraph graph;
      AppendSyncTasks(config, gradient, &graph);
      cluster.engine->Execute(&graph, [](const Status&) {});
      clean_time = cluster.sim.Run();
    }
    ASSERT_GT(clean_time, 0);
    config.net.faults.crashes[0].at = clean_time / 2;
    Cluster cluster(config);
    TaskGraph graph;
    AppendSyncTasks(config, gradient, &graph);
    Status result = OkStatus();
    cluster.engine->Execute(&graph, [&result](const Status& status) {
      result = status;
    });
    cluster.sim.Run();
    EXPECT_EQ(result.code(), StatusCode::kUnavailable) << "bulk=" << bulk;
    EXPECT_EQ(cluster.engine->graph_records_in_use(), 0u) << "bulk=" << bulk;
    EXPECT_TRUE(cluster.engine->Idle()) << "bulk=" << bulk;

    // The survivors' rebuild runs to completion and releases its record.
    TaskGraph degraded;
    AppendSyncTasksOver(config, gradient, {0, 1, 2, 3, 4, 6, 7}, &degraded);
    Status recovered = InternalError("never fired");
    cluster.engine->Execute(&degraded, [&recovered](const Status& status) {
      recovered = status;
    });
    EXPECT_EQ(cluster.engine->graph_records_in_use(), 1u) << "bulk=" << bulk;
    cluster.sim.Run();
    EXPECT_TRUE(recovered.ok()) << recovered;
    EXPECT_EQ(cluster.engine->graph_records_in_use(), 0u) << "bulk=" << bulk;
  }
}

// ------------------------------------------------------------- coordinator

// Completion callbacks for metadata-only coordinator transfers.
std::function<void(const Status&)> CountInto(int* delivered) {
  return [delivered](const Status&) { ++*delivered; };
}
void IgnoreStatus(const Status&) {}

TEST(CoordinatorTest, IdleLinkFlushesImmediately) {
  // Work-conserving rule: nothing in flight means nothing to batch
  // against, so the transfer leaves at once.
  Simulator sim;
  NetworkConfig net_config;
  Network net(&sim, 2, net_config);
  BulkCoordinator coordinator(&sim, &net, 1 * kMiB, FromMillis(10.0));
  SimTime delivered_at = -1;
  coordinator.EnqueueWithStatus(
      0, 1, 100, [&](const Status&) { delivered_at = sim.now(); });
  sim.Run();
  EXPECT_LT(delivered_at, FromMillis(1.0));
}

TEST(CoordinatorTest, BatchesSmallTransfersUnderBackpressure) {
  Simulator sim;
  NetworkConfig net_config;
  net_config.link_bandwidth = Bandwidth::Gbps(80.0);
  net_config.per_message_overhead = FromMicros(50.0);  // expensive messages
  Network net(&sim, 2, net_config);
  BulkCoordinator coordinator(&sim, &net, 1 * kMiB, FromMicros(100.0));
  int delivered = 0;
  for (int i = 0; i < 10; ++i) {
    coordinator.EnqueueWithStatus(0, 1, 1000, CountInto(&delivered));
  }
  sim.Run();
  EXPECT_EQ(delivered, 10);
  // First transfer leaves alone (idle link); the rest batch behind it.
  EXPECT_EQ(coordinator.batches_sent(), 2u);
  EXPECT_EQ(net.messages_delivered(), 2u);
}

TEST(CoordinatorTest, SizeThresholdFlushesEarly) {
  Simulator sim;
  NetworkConfig net_config;
  net_config.link_bandwidth = Bandwidth::Gbps(1.0);  // slow: keep link busy
  Network net(&sim, 2, net_config);
  BulkCoordinator coordinator(&sim, &net, 10'000, FromMillis(50.0));
  int delivered = 0;
  // The first transfer occupies the link.
  coordinator.EnqueueWithStatus(0, 1, 100'000, CountInto(&delivered));
  coordinator.EnqueueWithStatus(0, 1, 9'000, CountInto(&delivered));
  coordinator.EnqueueWithStatus(0, 1, 9'000, CountInto(&delivered));
  // The 10'000 threshold rounds up to its 16384-byte pool bucket; 18'000
  // queued bytes cross it and flush the pending batch without waiting for
  // the 50 ms timeout.
  sim.RunUntil(FromMillis(2.0));
  EXPECT_EQ(delivered, 3);
}

TEST(CoordinatorTest, ThresholdRoundsUpToBucketCapacity) {
  // Bucket-aligned sizing: a size-triggered flush should fill a whole
  // BufferPool bucket so the frame lands in a recycled block. The
  // configured threshold therefore rounds up to BucketCapacity.
  Simulator sim;
  NetworkConfig net_config;
  net_config.link_bandwidth = Bandwidth::Gbps(1.0);  // keep the link busy
  Network net(&sim, 2, net_config);
  BulkCoordinator coordinator(&sim, &net, 10'000, FromMillis(50.0));
  EXPECT_EQ(coordinator.size_threshold(), BufferPool::BucketCapacity(10'000));
  EXPECT_EQ(coordinator.size_threshold(), 16'384u);
  // An already-bucket-aligned threshold is unchanged.
  BulkCoordinator aligned(&sim, &net, 8 * kMiB, FromMillis(50.0));
  EXPECT_EQ(aligned.size_threshold(), 8 * kMiB);

  int delivered = 0;
  // The first transfer occupies the link.
  coordinator.EnqueueWithStatus(0, 1, 100'000, CountInto(&delivered));
  // 12'000 bytes crossed the configured 10'000 but not the bucket-rounded
  // threshold: the batch must keep queueing.
  coordinator.EnqueueWithStatus(0, 1, 6'000, CountInto(&delivered));
  coordinator.EnqueueWithStatus(0, 1, 6'000, CountInto(&delivered));
  sim.RunUntil(FromMillis(2.0));
  EXPECT_EQ(delivered, 1);
  // Crossing the bucket boundary (18'000 >= 16'384) flushes.
  coordinator.EnqueueWithStatus(0, 1, 6'000, CountInto(&delivered));
  sim.RunUntil(FromMillis(4.0));
  EXPECT_EQ(delivered, 4);
  sim.Run();
}

TEST(CoordinatorTest, BucketWasteAccountsFramePadding) {
  // The waste metric records the padding between each flushed batch and
  // the pool bucket it occupies.
  Simulator sim;
  NetworkConfig net_config;
  Network net(&sim, 2, net_config);
  MetricsRegistry metrics;
  BulkCoordinator coordinator(&sim, &net, 1 * kMiB, FromMicros(100.0),
                              &metrics);
  // Idle link: the metadata-only transfer flushes alone as a 6'000-byte
  // batch, occupying an 8192-byte bucket -> 2192 bytes of padding.
  coordinator.EnqueueWithStatus(0, 1, 6'000, IgnoreStatus);
  sim.Run();
  EXPECT_EQ(coordinator.bucket_waste_bytes(), 8192u - 6'000u);
  EXPECT_EQ(
      static_cast<uint64_t>(
          metrics.counter("coordinator.batch_bucket_waste_bytes").value()),
      coordinator.bucket_waste_bytes());

  // A payload batch accounts the *frame* (payload + headers): 4-byte count
  // + 12-byte entry header + 2048 payload bytes = 2064 -> 4096 bucket.
  auto payload = MakePooledPayload(std::vector<uint8_t>(2048, 0xAB));
  const uint64_t before = coordinator.bucket_waste_bytes();
  bool delivered = false;
  coordinator.EnqueueTransfer(
      1, 0, /*tag=*/7, payload,
      [&](std::span<const uint8_t> bytes) {
        delivered = true;
        EXPECT_EQ(bytes.size(), 2048u);
      },
      [](const Status& status) { EXPECT_TRUE(status.ok()); });
  sim.Run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(coordinator.bucket_waste_bytes() - before, 4096u - 2064u);
}

TEST(CoordinatorTest, BatchedPayloadsDeliverBitIdentical) {
  // Several pooled payloads batched behind a busy link arrive in one
  // frame, each dispatched to its own on_deliver with its exact bytes.
  Simulator sim;
  NetworkConfig net_config;
  net_config.link_bandwidth = Bandwidth::Gbps(1.0);  // keep the link busy
  Network net(&sim, 2, net_config);
  BulkCoordinator coordinator(&sim, &net, 64 * kKiB, FromMicros(200.0));
  // Occupies the link.
  coordinator.EnqueueWithStatus(0, 1, 100'000, IgnoreStatus);
  std::vector<std::vector<uint8_t>> sent;
  std::vector<std::vector<uint8_t>> received(3);
  int completions = 0;
  for (int i = 0; i < 3; ++i) {
    sent.emplace_back(static_cast<size_t>(100 + 37 * i),
                      static_cast<uint8_t>(0x11 * (i + 1)));
    coordinator.EnqueueTransfer(
        0, 1, /*tag=*/static_cast<uint64_t>(i),
        MakePooledPayload(sent.back(), net.wire_pool()),
        [&received, i](std::span<const uint8_t> bytes) {
          received[i].assign(bytes.begin(), bytes.end());
        },
        [&](const Status& status) {
          EXPECT_TRUE(status.ok());
          ++completions;
        });
  }
  sim.Run();
  EXPECT_EQ(completions, 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(received[i], sent[i]) << "payload " << i;
  }
  // All three payloads travelled as one batch frame.
  EXPECT_EQ(coordinator.batches_sent(), 2u);
}

TEST(BatchFrameReaderDeathTest, TruncatedFrameAborts) {
  // ReadAt-style hardening: parsing must CHECK, not read out of bounds,
  // when a frame is shorter than its own headers claim.
  // Frame declaring one entry of 100 bytes, then cut off after the entry
  // header: Next() must abort on the missing payload.
  std::vector<uint8_t> frame;
  const uint32_t count = 1;
  const uint64_t tag = 42;
  const uint32_t len = 100;
  auto append = [&frame](const void* p, size_t n) {
    const auto* bytes = static_cast<const uint8_t*>(p);
    frame.insert(frame.end(), bytes, bytes + n);
  };
  append(&count, sizeof(count));
  append(&tag, sizeof(tag));
  append(&len, sizeof(len));
  BatchFrameReader reader(frame);
  EXPECT_EQ(reader.entry_count(), 1u);
  EXPECT_DEATH(reader.Next(), "overruns frame");

  // A frame too short for even the entry count aborts at construction.
  std::vector<uint8_t> stub(2, 0);
  EXPECT_DEATH(BatchFrameReader{stub}, "overruns frame");

  // Reading past the declared entry count aborts too.
  const uint32_t zero = 0;
  frame.clear();
  append(&zero, sizeof(zero));
  BatchFrameReader empty(frame);
  EXPECT_DEATH(empty.Next(), "past the 0 entries");
}

TEST(CoordinatorTest, TimeoutFlushesSmallBatchBehindBusyLink) {
  Simulator sim;
  NetworkConfig net_config;
  net_config.link_bandwidth = Bandwidth::Gbps(1.0);
  Network net(&sim, 2, net_config);
  BulkCoordinator coordinator(&sim, &net, 1 * kMiB, FromMicros(200.0));
  SimTime delivered_at = -1;
  // Occupies the link for ~800us.
  coordinator.EnqueueWithStatus(0, 1, 100'000, IgnoreStatus);
  coordinator.EnqueueWithStatus(
      0, 1, 100, [&](const Status&) { delivered_at = sim.now(); });
  sim.Run();
  // The small transfer waited for the timeout (not the full first message).
  EXPECT_GE(delivered_at, FromMicros(200.0));
}

TEST(CoordinatorTest, StaleTimeoutIgnoredAfterSizeTriggeredFlush) {
  // The timeout-vs-threshold race: a batch timeout armed for queue
  // generation E must not flush the queue after a size-triggered flush
  // advanced it to E+1 — otherwise a later batch gets cut short by a
  // timer belonging to transfers long gone (flush_epoch guard).
  Simulator sim;
  NetworkConfig net_config;
  net_config.link_bandwidth = Bandwidth::Gbps(1.0);  // keep the link busy
  Network net(&sim, 2, net_config);
  BulkCoordinator coordinator(&sim, &net, 10'000, FromMicros(200.0));
  // Occupies the link for ~800us so everything below queues.
  coordinator.EnqueueWithStatus(0, 1, 100'000, IgnoreStatus);
  // Arms the batch timeout for t=200us (epoch E).
  coordinator.EnqueueWithStatus(0, 1, 100, IgnoreStatus);
  // t=50us: threshold reached -> size-triggered flush, epoch becomes E+1.
  sim.Schedule(FromMicros(50.0), [&] {
    coordinator.EnqueueWithStatus(0, 1, 20'000, IgnoreStatus);
  });
  // t=60us: a fresh transfer arms its own timeout for t=260us.
  sim.Schedule(FromMicros(60.0), [&] {
    coordinator.EnqueueWithStatus(0, 1, 100, IgnoreStatus);
  });
  // At t=250us the stale epoch-E timeout (t=200us) has fired; the fresh
  // transfer must still be queued.
  sim.RunUntil(FromMicros(250.0));
  EXPECT_EQ(coordinator.batches_sent(), 2u);
  // Its own timeout at t=260us flushes it.
  sim.RunUntil(FromMicros(300.0));
  EXPECT_EQ(coordinator.batches_sent(), 3u);
  sim.Run();
}

TEST(CoordinatorDeathTest, RejectsInvalidLinks) {
  // Endpoints index the dense link table: a self-link or a node outside
  // the network must abort instead of touching another link's slot.
  Simulator sim;
  NetworkConfig net_config;
  Network net(&sim, 3, net_config);
  BulkCoordinator coordinator(&sim, &net, 1000, FromMicros(100.0));
  EXPECT_DEATH(coordinator.EnqueueWithStatus(1, 1, 100, IgnoreStatus),
               "distinct nodes");
  EXPECT_DEATH(coordinator.EnqueueWithStatus(0, 3, 100, IgnoreStatus),
               "distinct nodes");
  EXPECT_DEATH(coordinator.EnqueueWithStatus(-1, 2, 100, IgnoreStatus),
               "distinct nodes");
}

TEST(CoordinatorTest, DistinctLinksBatchIndependently) {
  Simulator sim;
  NetworkConfig net_config;
  Network net(&sim, 3, net_config);
  BulkCoordinator coordinator(&sim, &net, 1000, FromMicros(100.0));
  int delivered = 0;
  coordinator.EnqueueWithStatus(0, 1, 600, CountInto(&delivered));
  coordinator.EnqueueWithStatus(0, 2, 600, CountInto(&delivered));
  sim.Run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(coordinator.batches_sent(), 2u);
}

}  // namespace
}  // namespace hipress
