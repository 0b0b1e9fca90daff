// Fault-injection and recovery layer: deterministic drop schedules, link
// degradation, node crashes, the reliable ack/retry/backoff transport, task
// graph cancellation + survivor rebuilds, and iteration-level trainer
// recovery (docs/FAULT_TOLERANCE.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/casync/builder.h"
#include "src/casync/engine.h"
#include "src/hipress/hipress.h"
#include "src/net/fault.h"
#include "src/net/network.h"
#include "src/net/reliable_channel.h"
#include "src/strategies/presets.h"
#include "src/train/cluster_job.h"
#include "src/train/trainer.h"

namespace hipress {
namespace {

// ------------------------------------------------------------ fault config

TEST(FaultSpecTest, ParsesFullSpec) {
  auto config = ParseFaultSpec("drop=0.01,seed=7,crash=3@40,"
                               "degrade=0-1@10-20@0.5");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_DOUBLE_EQ(config->drop_prob, 0.01);
  EXPECT_EQ(config->seed, 7u);
  ASSERT_EQ(config->crashes.size(), 1u);
  EXPECT_EQ(config->crashes[0].node, 3);
  EXPECT_EQ(config->crashes[0].at, FromMillis(40.0));
  ASSERT_EQ(config->degradations.size(), 1u);
  EXPECT_EQ(config->degradations[0].src, 0);
  EXPECT_EQ(config->degradations[0].dst, 1);
  EXPECT_EQ(config->degradations[0].start, FromMillis(10.0));
  EXPECT_EQ(config->degradations[0].end, FromMillis(20.0));
  EXPECT_DOUBLE_EQ(config->degradations[0].bandwidth_factor, 0.5);
  EXPECT_TRUE(config->any());
}

TEST(FaultSpecTest, ParsesWildcardEndpoints) {
  auto config = ParseFaultSpec("degrade=*-2@0-5@0.25");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->degradations[0].src, -1);
  EXPECT_EQ(config->degradations[0].dst, 2);
}

TEST(FaultSpecTest, EmptySpecHasNoFaults) {
  auto config = ParseFaultSpec("");
  ASSERT_TRUE(config.ok());
  EXPECT_FALSE(config->any());
}

TEST(FaultSpecTest, RejectsMalformedClauses) {
  for (const char* bad :
       {"drop", "drop=1.5", "drop=-0.1", "crash=3", "crash=x@40",
        "crash=3@-1", "degrade=0-1@10-20", "degrade=0-1@20-10@0.5",
        "degrade=0-1@10-20@0", "degrade=0-1@10-20@1.5", "nonsense=1"}) {
    EXPECT_FALSE(ParseFaultSpec(bad).ok()) << bad;
  }
}

TEST(FaultConfigTest, CrashTimeAndDegradationFactor) {
  FaultConfig config;
  config.crashes.push_back({2, FromMillis(5.0)});
  EXPECT_EQ(config.CrashTime(2), FromMillis(5.0));
  EXPECT_EQ(config.CrashTime(0), -1);
  config.degradations.push_back(
      {/*src=*/-1, /*dst=*/1, FromMillis(1.0), FromMillis(2.0), 0.5});
  config.degradations.push_back(
      {/*src=*/0, /*dst=*/1, FromMillis(1.0), FromMillis(3.0), 0.25});
  // Overlapping windows: the deepest cut wins.
  EXPECT_DOUBLE_EQ(config.DegradationFactor(0, 1, FromMillis(1.5)), 0.25);
  // Only the wildcard window matches 2->1.
  EXPECT_DOUBLE_EQ(config.DegradationFactor(2, 1, FromMillis(1.5)), 0.5);
  // Window end is exclusive.
  EXPECT_DOUBLE_EQ(config.DegradationFactor(2, 1, FromMillis(2.0)), 1.0);
  // Wrong direction.
  EXPECT_DOUBLE_EQ(config.DegradationFactor(1, 0, FromMillis(1.5)), 1.0);
}

TEST(FaultConfigTest, FaultUniformIsDeterministicAndRoughlyUniform) {
  double sum = 0.0;
  for (uint64_t i = 0; i < 10'000; ++i) {
    const double u = FaultUniform(42, i);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_EQ(u, FaultUniform(42, i));  // pure function of (seed, ordinal)
    sum += u;
  }
  EXPECT_NEAR(sum / 10'000.0, 0.5, 0.05);
  EXPECT_NE(FaultUniform(42, 0), FaultUniform(43, 0));
}

// ------------------------------------------------------------ network layer

NetworkConfig FastConfig() {
  NetworkConfig config;
  config.link_bandwidth = Bandwidth::Gbps(80.0);  // 10 GB/s
  config.latency = FromMicros(10.0);
  config.per_message_overhead = FromMicros(2.0);
  return config;
}

// Sends `count` one-byte-each messages 0->1 and returns the delivered
// ordinal bitmap.
std::vector<bool> DropSchedule(const NetworkConfig& config, int count) {
  Simulator sim;
  Network net(&sim, 2, config);
  std::vector<bool> delivered(count, false);
  for (int i = 0; i < count; ++i) {
    NetMessage msg;
    msg.src = 0;
    msg.dst = 1;
    msg.bytes = 1;
    msg.tag = static_cast<uint32_t>(i);
    net.Send(msg, [&delivered](const NetMessage& m) {
      delivered[m.tag] = true;
    });
  }
  sim.Run();
  return delivered;
}

TEST(NetworkFaultTest, DropsAreSeededDeterministicAndCounted) {
  NetworkConfig config = FastConfig();
  config.faults.drop_prob = 0.3;
  config.faults.seed = 7;
  const std::vector<bool> first = DropSchedule(config, 1000);
  const int survivors =
      static_cast<int>(std::count(first.begin(), first.end(), true));
  // ~70% survive; generous bounds keep the assertion schedule-independent.
  EXPECT_GT(survivors, 600);
  EXPECT_LT(survivors, 800);
  // Same seed => bit-identical schedule.
  EXPECT_EQ(DropSchedule(config, 1000), first);
  // Different seed => a different schedule.
  config.faults.seed = 8;
  EXPECT_NE(DropSchedule(config, 1000), first);
}

TEST(NetworkFaultTest, DroppedMessagesStillOccupyTheLink) {
  NetworkConfig config = FastConfig();
  config.faults.drop_prob = 0.5;
  config.faults.seed = 3;
  Simulator sim;
  Network net(&sim, 2, config);
  for (int i = 0; i < 10; ++i) {
    NetMessage msg;
    msg.src = 0;
    msg.dst = 1;
    msg.bytes = 10'000'000;  // 1 ms serialization each
    net.Send(msg, [](const NetMessage&) {});
  }
  sim.Run();
  // The bits were transmitted whether or not they arrived.
  EXPECT_EQ(net.uplink_busy(0), 10 * FromMillis(1.0));
  EXPECT_EQ(net.messages_dropped() + net.messages_delivered(), 10u);
  EXPECT_GT(net.messages_dropped(), 0u);
}

TEST(NetworkFaultTest, CrashedReceiverBlackholesLateDeliveries) {
  NetworkConfig config = FastConfig();
  config.faults.crashes.push_back({1, FromMicros(500.0)});
  Simulator sim;
  Network net(&sim, 2, config);
  int delivered = 0;
  // Small message arrives ~12.1us: before the crash.
  NetMessage early;
  early.src = 0;
  early.dst = 1;
  early.bytes = 1000;
  net.Send(early, [&](const NetMessage&) { ++delivered; });
  // 10 MB arrives ~1ms: after the crash -> blackholed at send time.
  NetMessage late;
  late.src = 0;
  late.dst = 1;
  late.bytes = 10'000'000;
  net.Send(late, [&](const NetMessage&) { ++delivered; });
  sim.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.messages_dropped(), 1u);
  EXPECT_TRUE(net.AliveAt(1, FromMicros(499.0)));
  EXPECT_FALSE(net.AliveAt(1, FromMicros(500.0)));
}

TEST(NetworkFaultTest, CrashedSenderTransmitsNothing) {
  NetworkConfig config = FastConfig();
  config.faults.crashes.push_back({0, 0});
  Simulator sim;
  Network net(&sim, 2, config);
  int delivered = 0;
  NetMessage msg;
  msg.src = 0;
  msg.dst = 1;
  msg.bytes = 10'000'000;
  net.Send(msg, [&](const NetMessage&) { ++delivered; });
  sim.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.messages_dropped(), 1u);
  // A dead sender does not even occupy its uplink.
  EXPECT_EQ(net.uplink_busy(0), 0);
}

TEST(NetworkFaultTest, DegradationWindowCutsBandwidth) {
  NetworkConfig config = FastConfig();
  config.faults.degradations.push_back(
      {/*src=*/0, /*dst=*/1, 0, FromMillis(10.0), 0.25});
  Simulator sim;
  Network net(&sim, 2, config);
  SimTime delivered_at = -1;
  NetMessage msg;
  msg.src = 0;
  msg.dst = 1;
  msg.bytes = 10'000'000;  // 1 ms clean, 4 ms at quarter bandwidth
  net.Send(msg, [&](const NetMessage&) { delivered_at = sim.now(); });
  sim.Run();
  EXPECT_EQ(delivered_at,
            FromMicros(2.0) + 4 * FromMillis(1.0) + FromMicros(10.0));
  // Outside the window the link runs at full speed again.
  Simulator sim2;
  Network net2(&sim2, 2, config);
  SimTime late_delivery = -1;
  sim2.ScheduleAt(FromMillis(10.0), [&] {
    NetMessage clean;
    clean.src = 0;
    clean.dst = 1;
    clean.bytes = 10'000'000;
    net2.Send(clean, [&](const NetMessage&) { late_delivery = sim2.now(); });
  });
  sim2.Run();
  EXPECT_EQ(late_delivery, FromMillis(10.0) + FromMicros(2.0) +
                               FromMillis(1.0) + FromMicros(10.0));
}

// ------------------------------------------------------- reliable transport

TEST(ReliableChannelTest, RetriesUntilDeliveredUnderLoss) {
  NetworkConfig net_config = FastConfig();
  net_config.faults.drop_prob = 0.3;  // data AND acks are lossy
  net_config.faults.seed = 11;
  Simulator sim;
  Network net(&sim, 2, net_config);
  ReliableTransportConfig config;
  config.max_attempts = 30;
  ReliableChannel channel(&sim, &net, config);
  int completed = 0;
  for (int i = 0; i < 20; ++i) {
    NetMessage msg;
    msg.src = 0;
    msg.dst = 1;
    msg.bytes = 100'000;
    channel.Send(std::move(msg), [&](const Status& status) {
      EXPECT_TRUE(status.ok()) << status;
      ++completed;
    });
  }
  sim.Run();
  EXPECT_EQ(completed, 20);
  EXPECT_GT(channel.retries(), 0u);
  EXPECT_EQ(channel.acks(), 20u);
  EXPECT_TRUE(channel.failed_peers().empty());
}

TEST(ReliableChannelTest, ExhaustedBudgetDeclaresDeadReceiver) {
  NetworkConfig net_config = FastConfig();
  net_config.faults.crashes.push_back({1, 0});
  Simulator sim;
  Network net(&sim, 2, net_config);
  ReliableChannel channel(&sim, &net, ReliableTransportConfig{});
  std::vector<int> failure_events;
  channel.set_on_peer_failure(
      [&](int peer) { failure_events.push_back(peer); });
  Status result = OkStatus();
  NetMessage msg;
  msg.src = 0;
  msg.dst = 1;
  msg.bytes = 1000;
  channel.Send(std::move(msg), [&](const Status& status) { result = status; });
  sim.Run();
  EXPECT_EQ(result.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(channel.peer_failed(1));
  EXPECT_FALSE(channel.peer_failed(0));
  ASSERT_EQ(failure_events.size(), 1u);
  EXPECT_EQ(failure_events[0], 1);

  // Subsequent sends to the dead peer fail fast, without a retry budget.
  const uint64_t retries_before = channel.retries();
  Status fast = OkStatus();
  NetMessage again;
  again.src = 0;
  again.dst = 1;
  again.bytes = 1000;
  channel.Send(std::move(again), [&](const Status& status) { fast = status; });
  sim.Run();
  EXPECT_EQ(fast.code(), StatusCode::kUnavailable);
  EXPECT_EQ(channel.retries(), retries_before);
  EXPECT_EQ(failure_events.size(), 1u);  // handler fires once per peer
}

TEST(ReliableChannelTest, BlamesCrashedSenderNotReceiver) {
  // The engine dispatches sends on behalf of every node; when the *sender*
  // is the corpse, its retransmits blackhole and the failure must be pinned
  // on it, not on the healthy destination.
  NetworkConfig net_config = FastConfig();
  net_config.faults.crashes.push_back({0, 0});
  Simulator sim;
  Network net(&sim, 2, net_config);
  ReliableChannel channel(&sim, &net, ReliableTransportConfig{});
  Status result = OkStatus();
  NetMessage msg;
  msg.src = 0;
  msg.dst = 1;
  msg.bytes = 1000;
  channel.Send(std::move(msg), [&](const Status& status) { result = status; });
  sim.Run();
  EXPECT_EQ(result.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(channel.peer_failed(0));
  EXPECT_FALSE(channel.peer_failed(1));
}

TEST(ReliableChannelTest, BackoffIsCappedExponential) {
  NetworkConfig net_config = FastConfig();
  net_config.faults.crashes.push_back({1, 0});
  auto metrics = std::make_shared<MetricsRegistry>();
  Simulator sim;
  Network net(&sim, 2, net_config);
  ReliableTransportConfig config;
  config.max_attempts = 12;
  config.backoff_base = FromMicros(100.0);
  config.backoff_factor = 2.0;
  config.backoff_cap = FromMicros(800.0);
  ReliableChannel channel(&sim, &net, config, metrics.get());
  NetMessage msg;
  msg.src = 0;
  msg.dst = 1;
  msg.bytes = 1000;
  channel.Send(std::move(msg), [](const Status&) {});
  sim.Run();
  const Histogram& backoff = metrics->histogram("net.backoff_us");
  EXPECT_EQ(backoff.count(), 11u);  // one wait between each pair of attempts
  EXPECT_DOUBLE_EQ(backoff.max(), 800.0);  // cap respected
  // 100 + 200 + 400 + 8 * 800 us.
  EXPECT_DOUBLE_EQ(backoff.sum(), 100.0 + 200.0 + 400.0 + 8 * 800.0);
}

// ----------------------------------------------------- engine + graph layer

struct Cluster {
  explicit Cluster(const SyncConfig& config)
      : net(&sim, config.num_nodes, config.net) {
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

SyncConfig EngineConfig(int nodes) {
  SyncConfig config;
  config.strategy = StrategyKind::kPs;
  config.num_nodes = nodes;
  config.compression = true;
  config.algorithm = "onebit";
  config.net = FastConfig();
  config.bulk = false;
  return config;
}

TEST(EngineFaultTest, PeerFailureCancelsGraphWithUnavailable) {
  SyncConfig config = EngineConfig(4);
  config.net.faults.crashes.push_back({2, 0});
  Cluster cluster(config);
  ASSERT_NE(cluster.engine->reliable_channel(), nullptr);
  GradientSync gradient;
  gradient.bytes = 1 * kMiB;
  gradient.compress = true;
  gradient.rate = 1.0 / 32;
  TaskGraph graph;
  AppendPsSyncTasks(config, gradient, &graph);
  Status result = OkStatus();
  int completions = 0;
  cluster.engine->Execute(&graph, [&](const Status& status) {
    result = status;
    ++completions;
  });
  cluster.sim.Run();
  EXPECT_EQ(completions, 1);  // fails exactly once, never hangs
  EXPECT_EQ(result.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(cluster.engine->node_failed(2));
  ASSERT_EQ(cluster.engine->failed_nodes().size(), 1u);
  EXPECT_EQ(cluster.engine->failed_nodes()[0], 2);
}

TEST(EngineFaultTest, GraphTouchingFailedNodeFailsUpFront) {
  SyncConfig config = EngineConfig(4);
  config.net.faults.crashes.push_back({2, 0});
  Cluster cluster(config);
  GradientSync gradient;
  gradient.bytes = 1 * kMiB;
  gradient.compress = true;
  gradient.rate = 1.0 / 32;
  TaskGraph first;
  AppendPsSyncTasks(config, gradient, &first);
  Status status = OkStatus();
  cluster.engine->Execute(&first, [&](const Status& s) { status = s; });
  cluster.sim.Run();
  ASSERT_EQ(status.code(), StatusCode::kUnavailable);

  // With node 2 now known-dead, a graph involving it fails synchronously.
  TaskGraph second;
  AppendPsSyncTasks(config, gradient, &second);
  Status upfront = OkStatus();
  cluster.engine->Execute(&second, [&](const Status& s) { upfront = s; });
  EXPECT_EQ(upfront.code(), StatusCode::kUnavailable);

  // A survivor-only rebuild of the same gradient completes.
  TaskGraph degraded;
  AppendSyncTasksOver(config, gradient, {0, 1, 3}, &degraded);
  Status recovered = InternalError("never fired");
  cluster.engine->Execute(&degraded, [&](const Status& s) { recovered = s; });
  cluster.sim.Run();
  EXPECT_TRUE(recovered.ok()) << recovered;
}

TEST(BuilderTest, AppendSyncTasksOverRemapsOntoSurvivors) {
  SyncConfig config = EngineConfig(4);
  GradientSync gradient;
  gradient.bytes = 1 * kMiB;
  gradient.compress = true;
  gradient.partitions = 4;  // more partitions than survivors, kept as is
  gradient.rate = 1.0 / 32;
  const std::vector<int> survivors = {0, 2, 3};
  TaskGraph graph;
  AppendSyncTasksOver(config, gradient, survivors, &graph);
  ASSERT_GT(graph.size(), 0u);
  EXPECT_TRUE(graph.IsAcyclic());
  bool uses_each[4] = {false, false, false, false};
  for (TaskId id = 0; id < graph.size(); ++id) {
    const TaskRecord& task = graph.task(id);
    ASSERT_NE(task.node, 1) << "task scheduled on the dead node";
    ASSERT_NE(task.peer, 1) << "task talks to the dead node";
    if (task.node >= 0) {
      uses_each[task.node] = true;
    }
  }
  for (const int node : survivors) {
    EXPECT_TRUE(uses_each[node]) << "survivor " << node << " unused";
  }
  // Structure matches a 3-node build of the same plan (modulo renaming).
  SyncConfig shrunk = config;
  shrunk.num_nodes = 3;
  TaskGraph reference;
  AppendSyncTasks(shrunk, gradient, &reference);
  EXPECT_EQ(graph.size(), reference.size());
}

// Raw (uncompressed) PS sum with real buffers: every worker pushes its
// vector to the aggregator, which sums and pushes back. Loss + retries must
// not change the synchronized values, only the timing.
struct SumFixture {
  explicit SumFixture(int workers, size_t elements) {
    for (int w = 0; w < workers; ++w) {
      // Integer-valued floats: addition is exact in any arrival order.
      std::vector<float> input(elements);
      for (size_t i = 0; i < elements; ++i) {
        input[i] = static_cast<float>((w + 1) * 100 + i % 7);
      }
      inputs.push_back(std::move(input));
      outputs.emplace_back(elements, 0.0f);
    }
    aggregate.assign(elements, 0.0f);
  }

  void Build(TaskGraph* graph) {
    const int workers = static_cast<int>(inputs.size());
    const size_t bytes = aggregate.size() * 4;
    SyncTask barrier;
    barrier.type = PrimitiveType::kBarrier;
    barrier.node = 0;
    barrier.action = [this] {
      for (size_t i = 0; i < aggregate.size(); ++i) {
        aggregate[i] += inputs[0][i];
      }
    };
    const TaskId barrier_id = graph->Add(barrier);
    for (int w = 1; w < workers; ++w) {
      SyncTask send;
      send.type = PrimitiveType::kSend;
      send.node = w;
      send.peer = 0;
      send.bytes = bytes;
      const TaskId send_id = graph->Add(send);
      SyncTask recv;
      recv.type = PrimitiveType::kRecv;
      recv.node = 0;
      recv.action = [this, w] {
        for (size_t i = 0; i < aggregate.size(); ++i) {
          aggregate[i] += inputs[w][i];
        }
      };
      const TaskId recv_id = graph->Add(recv);
      graph->AddDep(send_id, recv_id);
      graph->AddDep(recv_id, barrier_id);
    }
    for (int w = 0; w < workers; ++w) {
      SyncTask recv;
      recv.type = PrimitiveType::kRecv;
      recv.node = w;
      recv.action = [this, w] { outputs[w] = aggregate; };
      const TaskId recv_id = graph->Add(recv);
      if (w == 0) {
        graph->AddDep(barrier_id, recv_id);
        continue;
      }
      SyncTask send;
      send.type = PrimitiveType::kSend;
      send.node = 0;
      send.peer = w;
      send.bytes = bytes;
      const TaskId send_id = graph->Add(send);
      graph->AddDep(barrier_id, send_id);
      graph->AddDep(send_id, recv_id);
    }
  }

  std::vector<std::vector<float>> inputs;
  std::vector<std::vector<float>> outputs;
  std::vector<float> aggregate;
};

TEST(EngineFaultTest, LossyRunSynchronizesSameValuesAsClean) {
  const int workers = 4;
  const size_t elements = 256;
  auto run = [&](double drop_prob, uint64_t* retries) {
    SyncConfig config = EngineConfig(workers);
    config.compression = false;
    config.net.faults.drop_prob = drop_prob;
    config.net.faults.seed = 21;
    config.reliable.max_attempts = 20;
    SumFixture fixture(workers, elements);
    Cluster cluster(config);
    TaskGraph graph;
    fixture.Build(&graph);
    bool done = false;
    cluster.engine->Execute(&graph, [&] { done = true; });
    cluster.sim.Run();
    EXPECT_TRUE(done);
    if (retries != nullptr) {
      *retries = cluster.engine->reliable_channel() != nullptr
                     ? cluster.engine->reliable_channel()->retries()
                     : 0;
    }
    return fixture.outputs;
  };
  const auto clean = run(0.0, nullptr);
  uint64_t retries = 0;
  const auto lossy = run(0.25, &retries);
  EXPECT_GT(retries, 0u);  // loss actually happened and was repaired
  EXPECT_EQ(clean, lossy);
  // Deterministic replay: the lossy run reproduces bit-identically.
  uint64_t retries_again = 0;
  EXPECT_EQ(run(0.25, &retries_again), lossy);
  EXPECT_EQ(retries_again, retries);
}

// ------------------------------------------------- pooled wire path + faults

TEST(ReliableChannelTest, RetransmitsResendTheSamePooledBlock) {
  // The channel's ack/timeout/backoff bookkeeping holds a shared_ptr to the
  // payload: a retransmit re-sends the original pooled block, so loss costs
  // wire time but never a fresh allocation or a byte copy.
  NetworkConfig net_config = FastConfig();
  net_config.faults.drop_prob = 0.3;  // data AND acks are lossy
  net_config.faults.seed = 11;
  Simulator sim;
  Network net(&sim, 2, net_config);
  ReliableTransportConfig config;
  config.max_attempts = 30;
  ReliableChannel channel(&sim, &net, config);

  const int kTransfers = 20;
  std::vector<std::vector<uint8_t>> sent(kTransfers);
  std::vector<const void*> sent_block(kTransfers, nullptr);
  std::vector<int> deliveries(kTransfers, 0);
  int completed = 0;
  uint64_t misses_after_creation = 0;
  for (int t = 0; t < kTransfers; ++t) {
    sent[t].resize(1024);
    for (size_t i = 0; i < sent[t].size(); ++i) {
      sent[t][i] = static_cast<uint8_t>((t + 1) * 31 + i);
    }
    auto payload = MakePooledPayload(sent[t], net.wire_pool());
    sent_block[t] = payload->data();
    NetMessage msg;
    msg.src = 0;
    msg.dst = 1;
    msg.bytes = payload->size();
    msg.tag = static_cast<uint64_t>(t);
    msg.payload = std::move(payload);
    channel.Send(
        std::move(msg),
        [&](const NetMessage& delivered) {
          const int tag = static_cast<int>(delivered.tag);
          ++deliveries[tag];
          auto bytes =
              std::static_pointer_cast<PooledBytes>(delivered.payload);
          ASSERT_NE(bytes, nullptr);
          // Same block the sender enqueued — delivery aliases, never copies.
          EXPECT_EQ(static_cast<const void*>(bytes->data()), sent_block[tag]);
          EXPECT_TRUE(std::equal(bytes->begin(), bytes->end(),
                                 sent[tag].begin(), sent[tag].end()));
        },
        [&](const Status& status) {
          EXPECT_TRUE(status.ok()) << status;
          ++completed;
        });
  }
  misses_after_creation = net.wire_pool()->stats().misses;
  sim.Run();
  EXPECT_EQ(completed, kTransfers);
  EXPECT_GT(channel.retries(), 0u);  // loss actually happened
  for (int t = 0; t < kTransfers; ++t) {
    // on_deliver latches to the first delivered copy despite retransmits.
    EXPECT_EQ(deliveries[t], 1) << "transfer " << t;
  }
  // The whole retry storm allocated nothing: every retransmit re-sent the
  // block acquired before the first attempt.
  EXPECT_EQ(net.wire_pool()->stats().misses, misses_after_creation);
}

TEST(WirePoolFaultTest, DropInjectionStaysAllocationFreeAfterWarmup) {
  // 3-worker compressed-style run through the full pooled wire path:
  // staging blocks from the network's wire pool, batch frames assembled by
  // the coordinator, retransmits under seeded drops. After the first
  // iteration (warm-up) the wire pool must stop missing, and every
  // delivered payload must be bit-identical to what the sender staged.
  SyncConfig config = EngineConfig(3);
  config.bulk = true;  // payload sends ride coordinator batch frames
  config.net.faults.drop_prob = 0.2;
  config.net.faults.seed = 9;
  config.reliable.max_attempts = 30;
  Cluster cluster(config);
  ASSERT_NE(cluster.engine->reliable_channel(), nullptr);
  for (GpuDevice* gpu : cluster.gpus) {
    // Route staging through the wire pool so the encode→staging→batch→wire
    // chain is gated by one allocator.
    gpu->set_staging_pool(cluster.net.wire_pool());
  }

  static constexpr size_t kPayloadBytes = 3000;
  auto pattern = [](int worker, int iteration, size_t i) {
    return static_cast<uint8_t>(worker * 7 + iteration * 13 + i * 31);
  };
  uint64_t misses_after_warmup = 0;
  for (int iteration = 0; iteration < 6; ++iteration) {
    TaskGraph graph;
    int delivered = 0;
    for (int w = 1; w < 3; ++w) {
      // "Encode" into shared staging: the same block becomes the payload.
      auto staged = cluster.gpus[w]->AcquireSharedStaging(kPayloadBytes);
      for (size_t i = 0; i < kPayloadBytes; ++i) {
        (*staged)[i] = pattern(w, iteration, i);
      }
      SyncTask send;
      send.type = PrimitiveType::kSend;
      send.node = w;
      send.peer = 0;
      send.bytes = staged->size();
      send.gradient_id = static_cast<uint32_t>(w);
      send.payload = std::move(staged);
      send.deliver = [&delivered, w, iteration,
                      pattern](std::span<const uint8_t> bytes) {
        // "Decode" at the receiver: the frame slice must be bit-identical
        // to the staged payload.
        ASSERT_EQ(bytes.size(), kPayloadBytes);
        for (size_t i = 0; i < bytes.size(); ++i) {
          ASSERT_EQ(bytes[i], pattern(w, iteration, i))
              << "worker " << w << " iteration " << iteration << " byte " << i;
        }
        ++delivered;
      };
      graph.Add(send);
    }
    bool done = false;
    cluster.engine->Execute(&graph, [&] { done = true; });
    cluster.sim.Run();
    EXPECT_TRUE(done);
    EXPECT_EQ(delivered, 2) << "iteration " << iteration;
    if (iteration == 0) {
      misses_after_warmup = cluster.net.wire_pool()->stats().misses;
      EXPECT_GT(misses_after_warmup, 0u);  // warm-up really allocated
    }
  }
  // Retransmits happened (the drop schedule is seeded to hit) yet the wire
  // path never allocated again after iteration 0.
  EXPECT_GT(cluster.engine->reliable_channel()->retries(), 0u);
  EXPECT_EQ(cluster.net.wire_pool()->stats().misses, misses_after_warmup);
}

// ----------------------------------------------------------- trainer layer

HiPressOptions TrainOptionsFor(const std::string& faults) {
  HiPressOptions options;
  options.model = "resnet50";
  options.system = "hipress-ps";
  options.cluster = ClusterSpec::Ec2(4);
  if (!faults.empty()) {
    auto parsed = ParseFaultSpec(faults);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    options.cluster.net.faults = *parsed;
  }
  return options;
}

TEST(TrainerFaultTest, LossyTrainingCompletesAndCountsRepairs) {
  auto clean = RunTrainingSimulation(TrainOptionsFor(""));
  ASSERT_TRUE(clean.ok());
  auto lossy = RunTrainingSimulation(TrainOptionsFor("drop=0.02,seed=5"));
  ASSERT_TRUE(lossy.ok());
  const TrainReport& report = lossy->report;
  EXPECT_FALSE(report.degraded);
  EXPECT_EQ(report.surviving_nodes, 4);
  EXPECT_GT(report.metrics->counter("net.drops").value(), 0u);
  EXPECT_GT(report.metrics->counter("net.retries").value(), 0u);
  EXPECT_GT(report.metrics->counter("net.retransmit_bytes").value(), 0u);
  // Repairs cost time, never correctness.
  EXPECT_GE(report.iteration_time, clean->report.iteration_time);
}

TEST(TrainerFaultTest, NodeCrashDegradesInsteadOfHanging) {
  HiPressOptions options = TrainOptionsFor("crash=2@60");
  options.train.record_timeline = true;
  auto result = RunTrainingSimulation(options);
  ASSERT_TRUE(result.ok()) << result.status();
  const TrainReport& report = result->report;
  EXPECT_TRUE(report.degraded);
  ASSERT_EQ(report.failed_nodes.size(), 1u);
  EXPECT_EQ(report.failed_nodes[0], 2);
  EXPECT_EQ(report.surviving_nodes, 3);
  EXPECT_EQ(report.total_gpus, 3 * 8);  // throughput from survivors only
  EXPECT_GT(report.recoveries, 0u);
  EXPECT_GT(report.recovery_time, 0);
  EXPECT_GT(report.throughput, 0.0);
  // Observability: recovery metrics and the recovery trace lane.
  EXPECT_EQ(report.metrics->counter("train.recoveries").value(),
            report.recoveries);
  EXPECT_GT(report.metrics->histogram("train.recovery_ms").count(), 0u);
  EXPECT_EQ(report.metrics->counter("net.peer_failures").value(), 1u);
  EXPECT_DOUBLE_EQ(report.metrics->gauge("train.surviving_nodes").value(),
                   3.0);
  ASSERT_NE(report.spans, nullptr);
  bool recovery_span = false;
  for (const TraceSpan& span : report.spans->spans()) {
    if (span.lane == kTraceLaneRecovery) {
      recovery_span = true;
      EXPECT_GT(span.end, span.start);
    }
  }
  EXPECT_TRUE(recovery_span);
}

TEST(TrainerFaultTest, SameSeedReplaysBitIdentically) {
  auto run = [] {
    return RunTrainingSimulation(
        TrainOptionsFor("drop=0.03,seed=77,crash=3@150"));
  };
  auto first = run();
  auto second = run();
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->report.iteration_time, second->report.iteration_time);
  EXPECT_EQ(first->report.throughput, second->report.throughput);
  EXPECT_EQ(first->report.recoveries, second->report.recoveries);
  EXPECT_EQ(first->report.recovery_time, second->report.recovery_time);
  EXPECT_EQ(first->report.failed_nodes, second->report.failed_nodes);
  for (const char* counter : {"net.drops", "net.retries",
                              "net.retransmit_bytes", "net.peer_failures",
                              "train.recoveries", "engine.graphs_cancelled"}) {
    EXPECT_EQ(first->report.metrics->counter(counter).value(),
              second->report.metrics->counter(counter).value())
        << counter;
  }
}

TEST(TrainerFaultTest, CrashRecoveryRejectsUnsupportedModes) {
  auto profile = GetModelProfile("resnet50");
  ASSERT_TRUE(profile.ok());
  SyncConfig config;
  config.num_nodes = 4;
  config.net.faults.crashes.push_back({1, FromMillis(50.0)});
  TrainOptions ssp;
  ssp.staleness = 2;
  EXPECT_EQ(SimulateTraining(*profile, config, ssp).status().code(),
            StatusCode::kInvalidArgument);
  config.sequential_collectives = true;
  EXPECT_EQ(SimulateTraining(*profile, config, {}).status().code(),
            StatusCode::kInvalidArgument);
}

// A graph cancelled by a peer failure never counts as synchronized: the
// ordered-collectives pump, the SSP path and multi-job runs rebuild it over
// the survivors like the BSP concurrent path does.
StatusOr<TrainReport> SimulateLossy(const std::string& system, int nodes,
                                    const std::string& faults,
                                    int staleness = 0) {
  ASSIGN_OR_RETURN(const ModelProfile profile, GetModelProfile("resnet50"));
  ClusterSpec cluster = ClusterSpec::Ec2(nodes);
  ASSIGN_OR_RETURN(cluster.net.faults, ParseFaultSpec(faults));
  ASSIGN_OR_RETURN(const SyncConfig config,
                   MakeSystemConfig(system, cluster, "onebit"));
  TrainOptions options;
  options.staleness = staleness;
  options.iterations = staleness > 0 ? 6 : 2;
  return SimulateTraining(profile, config, options);
}

TEST(TrainerFaultTest, OrderedCollectivesRecoverCancelledGraphs) {
  // ring pumps Horovod's ordered collectives. Node 1 runs out of retry
  // budget; the units it cancelled are rebuilt over the survivors.
  auto run = SimulateLossy("ring", 4, "drop=0.3,seed=7");
  ASSERT_TRUE(run.ok()) << run.status();
  const TrainReport& report = *run;
  EXPECT_TRUE(report.degraded);
  EXPECT_NE(std::find(report.failed_nodes.begin(), report.failed_nodes.end(),
                      1),
            report.failed_nodes.end());
  EXPECT_GT(report.recoveries, 0u);
  EXPECT_EQ(report.metrics->counter("train.recoveries").value(),
            report.recoveries);
  EXPECT_GT(report.iteration_time, 0);
}

TEST(TrainerFaultTest, SspRecoversWhenRetryBudgetRunsOut) {
  auto run = SimulateLossy("hipress-ps", 4, "drop=0.3,seed=7",
                           /*staleness=*/1);
  ASSERT_TRUE(run.ok()) << run.status();
  const TrainReport& report = *run;
  EXPECT_TRUE(report.degraded);
  EXPECT_FALSE(report.failed_nodes.empty());
  EXPECT_EQ(report.surviving_nodes,
            4 - static_cast<int>(report.failed_nodes.size()));
  EXPECT_GT(report.recoveries, 0u);
  EXPECT_GT(report.recovery_time, 0);
  EXPECT_GT(report.throughput, 0.0);
}

TEST(ClusterFaultTest, PeerFailureInAMultiJobRunIsUnavailable) {
  // Drop-only faults pass validation, but a job report has no degraded
  // mode: a peer declared failed makes the run an error naming it.
  ClusterJobsOptions options;
  options.cluster = ClusterSpec::Ec2(8);
  auto faults = ParseFaultSpec("drop=0.2,seed=7");
  ASSERT_TRUE(faults.ok()) << faults.status();
  options.cluster.net.faults = *faults;
  options.jobs.resize(2);
  auto run = RunClusterJobs(options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(run.status().message().find("job0: peer "), std::string::npos)
      << run.status();
}

}  // namespace
}  // namespace hipress
