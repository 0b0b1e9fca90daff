// Elastic membership layer (docs/FAULT_TOLERANCE.md): fault-spec clauses
// and liveness windows, the epoch-numbered MembershipManager, stale-epoch
// rejection and peer reinstatement on the reliable channel, the chaos
// schedule generator, and the trainer's full join/leave/crash-rejoin
// lifecycle with the bit-identical model-state gate.
#include "src/net/membership.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/hipress/hipress.h"
#include "src/net/fault.h"
#include "src/net/network.h"
#include "src/net/reliable_channel.h"
#include "src/train/trainer.h"

namespace hipress {
namespace {

NetworkConfig FastConfig() {
  NetworkConfig config;
  config.link_bandwidth = Bandwidth::Gbps(100.0);
  config.latency = FromMicros(2.0);
  config.per_message_overhead = FromMicros(1.0);
  return config;
}

// ------------------------------------------------------- fault-spec layer

TEST(MembershipSpecTest, ParsesMembershipClauses) {
  auto config = ParseFaultSpec(
      "crash=3@40,rejoin=3@120,standby=5,join=5@60,leave=1@200");
  ASSERT_TRUE(config.ok()) << config.status();
  ASSERT_EQ(config->membership.size(), 3u);
  EXPECT_EQ(config->membership[0].kind, MembershipEventKind::kRejoin);
  EXPECT_EQ(config->membership[0].node, 3);
  EXPECT_EQ(config->membership[0].at, FromMillis(120.0));
  EXPECT_EQ(config->membership[1].kind, MembershipEventKind::kJoin);
  EXPECT_EQ(config->membership[1].node, 5);
  EXPECT_EQ(config->membership[2].kind, MembershipEventKind::kLeave);
  EXPECT_EQ(config->membership[2].node, 1);
  ASSERT_EQ(config->standby_nodes.size(), 1u);
  EXPECT_EQ(config->standby_nodes[0], 5);
  EXPECT_TRUE(config->any());
}

TEST(MembershipSpecTest, RejectsMalformedMembershipClauses) {
  for (const char* bad : {"join=5", "join=x@10", "leave=1@-5", "rejoin=@10",
                          "standby=", "standby=x"}) {
    EXPECT_FALSE(ParseFaultSpec(bad).ok()) << bad;
  }
}

TEST(MembershipSpecTest, StandbyAloneCountsAsFaultConfig) {
  auto config = ParseFaultSpec("standby=2");
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config->any());
}

TEST(FaultConfigTest, AliveAtTracksCrashRejoinWindows) {
  auto config = ParseFaultSpec("crash=3@40,rejoin=3@120");
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config->AliveAt(3, 0));
  EXPECT_TRUE(config->AliveAt(3, FromMillis(39.9)));
  EXPECT_FALSE(config->AliveAt(3, FromMillis(40.0)));
  EXPECT_FALSE(config->AliveAt(3, FromMillis(119.9)));
  EXPECT_TRUE(config->AliveAt(3, FromMillis(120.0)));
  EXPECT_TRUE(config->AliveAt(3, FromMillis(500.0)));
  // Other nodes are unaffected; a crash without rejoin stays fail-stop.
  EXPECT_TRUE(config->AliveAt(0, FromMillis(500.0)));
  auto fail_stop = ParseFaultSpec("crash=2@40");
  ASSERT_TRUE(fail_stop.ok());
  EXPECT_FALSE(fail_stop->AliveAt(2, FromMillis(1e6)));
}

TEST(FaultConfigTest, AliveAtHandlesRepeatedCrashWindows) {
  FaultConfig config;
  config.crashes.push_back({4, FromMillis(10.0)});
  config.crashes.push_back({4, FromMillis(100.0)});
  config.membership.push_back(
      {MembershipEventKind::kRejoin, 4, FromMillis(50.0)});
  EXPECT_FALSE(config.AliveAt(4, FromMillis(20.0)));
  EXPECT_TRUE(config.AliveAt(4, FromMillis(60.0)));
  // The second crash reopens the window; the old rejoin does not close it.
  EXPECT_FALSE(config.AliveAt(4, FromMillis(200.0)));
}

// ------------------------------------------------------ membership manager

TEST(MembershipManagerTest, LifecycleAdvancesEpochsAndCounters) {
  auto metrics = std::make_shared<MetricsRegistry>();
  MembershipManager manager(5, /*standby=*/{4}, metrics.get());
  EXPECT_EQ(manager.epoch(), 0u);
  EXPECT_EQ(manager.size(), 4);
  EXPECT_EQ(manager.members(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_FALSE(manager.is_member(4));

  EXPECT_EQ(manager.Remove(2, MembershipChange::kCrash, FromMillis(10.0)),
            1u);
  EXPECT_EQ(manager.Admit(4, MembershipChange::kJoin, FromMillis(20.0)), 2u);
  EXPECT_EQ(manager.Remove(1, MembershipChange::kLeave, FromMillis(30.0)),
            3u);
  EXPECT_EQ(manager.Admit(2, MembershipChange::kRejoin, FromMillis(40.0)),
            4u);

  EXPECT_EQ(manager.epoch(), 4u);
  EXPECT_EQ(manager.members(), (std::vector<int>{0, 2, 3, 4}));
  EXPECT_EQ(manager.joins(), 1u);
  EXPECT_EQ(manager.leaves(), 1u);
  EXPECT_EQ(manager.crashes(), 1u);
  EXPECT_EQ(manager.rejoins(), 1u);
  ASSERT_EQ(manager.log().size(), 4u);
  EXPECT_EQ(manager.log()[0].members_after, 3);
  EXPECT_EQ(manager.log()[3].members_after, 4);

  EXPECT_DOUBLE_EQ(metrics->gauge("membership.epoch").value(), 4.0);
  EXPECT_DOUBLE_EQ(metrics->gauge("membership.size").value(), 4.0);
  EXPECT_EQ(metrics->counter("membership.joins").value(), 1u);
  EXPECT_EQ(metrics->counter("membership.crashes").value(), 1u);
}

TEST(MembershipManagerTest, LogStringIsDeterministic) {
  auto run = [] {
    MembershipManager manager(4, {});
    manager.Remove(3, MembershipChange::kCrash, FromMillis(12.5));
    manager.Admit(3, MembershipChange::kRejoin, FromMillis(80.0));
    return manager.LogString();
  };
  const std::string log = run();
  EXPECT_EQ(log, run());
  EXPECT_NE(log.find("epoch 1: crash node 3"), std::string::npos) << log;
  EXPECT_NE(log.find("epoch 2: rejoin node 3"), std::string::npos) << log;
}

TEST(MembershipManagerDeathTest, RejectsInvalidTransitions) {
  MembershipManager manager(3, {});
  EXPECT_DEATH(manager.Admit(1, MembershipChange::kJoin, 0),
               "already a member");
  EXPECT_DEATH(manager.Remove(1, MembershipChange::kJoin, 0), "");
  manager.Remove(1, MembershipChange::kCrash, 0);
  EXPECT_DEATH(manager.Remove(1, MembershipChange::kCrash, 0),
               "not a member");
  manager.Remove(2, MembershipChange::kLeave, 0);
  EXPECT_DEATH(manager.Remove(0, MembershipChange::kLeave, 0), "last member");
}

// -------------------------------------------------------- chaos generator

TEST(ChaosScheduleTest, IsDeterministicAndFeasible) {
  ChaosOptions options;
  options.seed = 42;
  options.num_nodes = 8;
  options.num_standby = 2;
  options.events = 10;
  const FaultConfig a = MakeChaosSchedule(options);
  const FaultConfig b = MakeChaosSchedule(options);
  ASSERT_EQ(a.membership.size(), b.membership.size());
  for (size_t i = 0; i < a.membership.size(); ++i) {
    EXPECT_EQ(a.membership[i].kind, b.membership[i].kind) << i;
    EXPECT_EQ(a.membership[i].node, b.membership[i].node) << i;
    EXPECT_EQ(a.membership[i].at, b.membership[i].at) << i;
  }
  EXPECT_EQ(a.crashes.size(), b.crashes.size());
  EXPECT_EQ(a.standby_nodes, b.standby_nodes);

  // Every crash is closed by a later rejoin of the same node.
  for (const NodeCrash& crash : a.crashes) {
    bool closed = false;
    for (const MembershipEvent& event : a.membership) {
      if (event.kind == MembershipEventKind::kRejoin &&
          event.node == crash.node && event.at > crash.at) {
        closed = true;
      }
    }
    EXPECT_TRUE(closed) << "crash of node " << crash.node << " never rejoins";
  }
  // Different seeds diverge.
  options.seed = 43;
  const FaultConfig c = MakeChaosSchedule(options);
  bool differs = c.membership.size() != a.membership.size() ||
                 c.crashes.size() != a.crashes.size();
  for (size_t i = 0; !differs && i < a.membership.size(); ++i) {
    differs = c.membership[i].kind != a.membership[i].kind ||
              c.membership[i].node != a.membership[i].node ||
              c.membership[i].at != a.membership[i].at;
  }
  EXPECT_TRUE(differs);
}

TEST(ChaosScheduleTest, CoversEveryEventClass) {
  ChaosOptions options;
  options.seed = 7;
  options.events = 6;
  const FaultConfig config = MakeChaosSchedule(options);
  EXPECT_FALSE(config.crashes.empty());
  EXPECT_FALSE(config.degradations.empty());
  int joins = 0, leaves = 0, rejoins = 0;
  for (const MembershipEvent& event : config.membership) {
    joins += event.kind == MembershipEventKind::kJoin;
    leaves += event.kind == MembershipEventKind::kLeave;
    rejoins += event.kind == MembershipEventKind::kRejoin;
  }
  EXPECT_GT(joins, 0);
  EXPECT_GT(leaves, 0);
  EXPECT_GT(rejoins, 0);
}

// ------------------------------------------------------- reliable channel

TEST(ReliableChannelTest, StaleEpochFramesAreAckedButNotDelivered) {
  Simulator sim;
  Network net(&sim, 2, FastConfig());
  ReliableChannel channel(&sim, &net, ReliableTransportConfig{});
  channel.set_epoch(3);
  int delivered = 0;
  Status sent = UnavailableError("pending");
  NetMessage msg;
  msg.src = 0;
  msg.dst = 1;
  msg.bytes = 1000;
  channel.Send(
      std::move(msg), [&](const NetMessage&) { ++delivered; },
      [&](const Status& status) { sent = status; });
  // The view advances while the frame is on the wire.
  channel.set_epoch(4);
  sim.Run();
  // Sender sees success (the ack round-trip completed); the receiver side
  // rejected the stale frame instead of handing it upward.
  EXPECT_TRUE(sent.ok()) << sent;
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(channel.stale_epoch_rejected(), 1u);

  // A fresh send under the current epoch delivers normally.
  NetMessage fresh;
  fresh.src = 0;
  fresh.dst = 1;
  fresh.bytes = 1000;
  channel.Send(
      std::move(fresh), [&](const NetMessage&) { ++delivered; },
      [](const Status&) {});
  sim.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(channel.stale_epoch_rejected(), 1u);
}

TEST(ReliableChannelTest, BudgetExhaustionCountsAndBlamesInStatus) {
  NetworkConfig net_config = FastConfig();
  net_config.faults.crashes.push_back({1, 0});
  auto metrics = std::make_shared<MetricsRegistry>();
  Simulator sim;
  Network net(&sim, 2, net_config);
  ReliableChannel channel(&sim, &net, ReliableTransportConfig{},
                          metrics.get());
  channel.set_epoch(5);
  Status result = OkStatus();
  NetMessage msg;
  msg.src = 0;
  msg.dst = 1;
  msg.bytes = 1000;
  channel.Send(std::move(msg),
               [&](const Status& status) { result = status; });
  sim.Run();
  EXPECT_EQ(result.code(), StatusCode::kUnavailable);
  // The fast-fail Status names the blamed peer and the epoch.
  EXPECT_NE(result.message().find("peer 1"), std::string::npos)
      << result.message();
  EXPECT_NE(result.message().find("epoch 5"), std::string::npos)
      << result.message();
  EXPECT_EQ(metrics->counter("net.retry_budget_exhausted").value(), 1u);

  // Fast-fail on the dead peer also carries peer + epoch.
  Status fast = OkStatus();
  NetMessage again;
  again.src = 0;
  again.dst = 1;
  again.bytes = 1000;
  channel.Send(std::move(again),
               [&](const Status& status) { fast = status; });
  sim.Run();
  EXPECT_EQ(fast.code(), StatusCode::kUnavailable);
  EXPECT_NE(fast.message().find("peer 1"), std::string::npos)
      << fast.message();
  // Fast-fails are not budget exhaustions.
  EXPECT_EQ(metrics->counter("net.retry_budget_exhausted").value(), 1u);
}

TEST(ReliableChannelTest, ReinstatePeerRestoresTraffic) {
  NetworkConfig net_config = FastConfig();
  net_config.faults.crashes.push_back({1, 0});
  net_config.faults.membership.push_back(
      {MembershipEventKind::kRejoin, 1, FromMillis(50.0)});
  Simulator sim;
  Network net(&sim, 2, net_config);
  ReliableChannel channel(&sim, &net, ReliableTransportConfig{});
  Status result = OkStatus();
  NetMessage msg;
  msg.src = 0;
  msg.dst = 1;
  msg.bytes = 1000;
  channel.Send(std::move(msg),
               [&](const Status& status) { result = status; });
  sim.Run();
  ASSERT_TRUE(channel.peer_failed(1));
  ASSERT_EQ(result.code(), StatusCode::kUnavailable);

  // Advance past the rejoin, reinstate, and traffic flows again.
  sim.ScheduleAt(FromMillis(60.0), [] {});
  sim.Run();
  channel.ReinstatePeer(1);
  EXPECT_FALSE(channel.peer_failed(1));
  EXPECT_TRUE(channel.failed_peers().empty());
  Status after = UnavailableError("pending");
  NetMessage fresh;
  fresh.src = 0;
  fresh.dst = 1;
  fresh.bytes = 1000;
  channel.Send(std::move(fresh),
               [&](const Status& status) { after = status; });
  sim.Run();
  EXPECT_TRUE(after.ok()) << after;
  // Reinstating a healthy peer is a no-op.
  channel.ReinstatePeer(0);
  EXPECT_FALSE(channel.peer_failed(0));
}

// ----------------------------------------------------------- trainer layer

HiPressOptions TrainOptionsFor(const std::string& faults, int iterations) {
  HiPressOptions options;
  options.model = "resnet50";
  options.system = "hipress-ps";
  options.cluster = ClusterSpec::Ec2(4);
  options.train.iterations = iterations;
  if (!faults.empty()) {
    auto parsed = ParseFaultSpec(faults);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    options.cluster.net.faults = *parsed;
  }
  return options;
}

TEST(TrainerMembershipTest, PlannedLeaveDrainsAndShrinksTheView) {
  auto churn_free = RunTrainingSimulation(TrainOptionsFor("", 4));
  ASSERT_TRUE(churn_free.ok());
  auto result = RunTrainingSimulation(TrainOptionsFor("leave=1@60", 4));
  ASSERT_TRUE(result.ok()) << result.status();
  const TrainReport& report = result->report;
  const MembershipReport& membership = report.membership;
  EXPECT_TRUE(membership.enabled);
  EXPECT_EQ(membership.leaves, 1u);
  EXPECT_EQ(membership.final_epoch, 1u);
  EXPECT_EQ(membership.final_members, (std::vector<int>{0, 2, 3}));
  EXPECT_EQ(report.surviving_nodes, 3);
  EXPECT_EQ(report.total_gpus, 3 * 8);
  EXPECT_FALSE(report.degraded);  // a drain is not a failure
  EXPECT_EQ(report.metrics->counter("membership.drains").value(), 1u);
  EXPECT_GT(report.metrics->histogram("membership.drain_ms").count(), 0u);
  // The leaver's exit never corrupts the survivors' replicated state.
  EXPECT_TRUE(membership.state_consistent);
  EXPECT_EQ(membership.model_fingerprint,
            churn_free->report.membership.model_fingerprint);
}

TEST(TrainerMembershipTest, StandbyJoinGrowsTheViewAndResyncs) {
  auto result =
      RunTrainingSimulation(TrainOptionsFor("standby=3,join=3@60", 4));
  ASSERT_TRUE(result.ok()) << result.status();
  const TrainReport& report = result->report;
  const MembershipReport& membership = report.membership;
  EXPECT_TRUE(membership.enabled);
  EXPECT_EQ(membership.joins, 1u);
  EXPECT_EQ(membership.resyncs, 1u);
  EXPECT_GT(membership.resync_bytes, 0u);
  EXPECT_GT(membership.resync_time, 0);
  EXPECT_EQ(membership.final_members, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(report.surviving_nodes, 4);
  EXPECT_TRUE(membership.state_consistent);
  // The joiner re-synced from a donor, so its replica matches the nodes
  // that never left — the fingerprint equals the churn-free run's.
  auto churn_free = RunTrainingSimulation(TrainOptionsFor("", 4));
  ASSERT_TRUE(churn_free.ok());
  EXPECT_EQ(membership.model_fingerprint,
            churn_free->report.membership.model_fingerprint);
}

TEST(TrainerMembershipTest, JoinResyncTimeIsTheDonorTransfersSendToAck) {
  // The boundary resumes when the donor sees the re-sync's ack, so the
  // re-sync time is the transfer's own send-to-ack time on the idle
  // fabric. The channel's retransmit timer, which fires later as a no-op,
  // is not part of it.
  auto result =
      RunTrainingSimulation(TrainOptionsFor("standby=3,join=3@60", 4));
  ASSERT_TRUE(result.ok()) << result.status();
  const MembershipReport& membership = result->report.membership;
  ASSERT_EQ(membership.resyncs, 1u);

  // The same transfer alone: donor 0 streams the whole model to node 3.
  Simulator sim;
  Network net(&sim, 4, result->config.net);
  ReliableChannel channel(&sim, &net, result->config.reliable);
  NetMessage message;
  message.src = 0;
  message.dst = 3;
  message.bytes = membership.resync_bytes;
  SimTime acked = -1;
  channel.Send(std::move(message), [&](const Status& status) {
    EXPECT_TRUE(status.ok()) << status;
    acked = sim.now();
  });
  sim.Run();
  ASSERT_GT(acked, 0);
  EXPECT_EQ(membership.resync_time, acked);
  EXPECT_DOUBLE_EQ(
      result->report.metrics->histogram("membership.resync_ms").sum(),
      ToMillis(acked));
}

TEST(TrainerMembershipTest, CrashRejoinRestoresFullStrength) {
  auto result =
      RunTrainingSimulation(TrainOptionsFor("crash=2@60,rejoin=2@400", 8));
  ASSERT_TRUE(result.ok()) << result.status();
  const TrainReport& report = result->report;
  const MembershipReport& membership = report.membership;
  EXPECT_EQ(membership.crashes, 1u);
  EXPECT_EQ(membership.rejoins, 1u);
  EXPECT_EQ(membership.resyncs, 1u);
  EXPECT_EQ(membership.final_members, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(report.surviving_nodes, 4);
  EXPECT_EQ(report.total_gpus, 4 * 8);
  // The rejoined node computed again after re-admission.
  EXPECT_GT(membership.rejoined_contributions, 0u);
  EXPECT_GT(
      report.metrics->counter("membership.rejoined_contributions").value(),
      0u);
  // Recovery happened (the crash cancelled graphs) and the re-sync landed
  // the node back on the shared state.
  EXPECT_GT(report.recoveries, 0u);
  EXPECT_TRUE(membership.state_consistent);
  auto churn_free = RunTrainingSimulation(TrainOptionsFor("", 8));
  ASSERT_TRUE(churn_free.ok());
  EXPECT_EQ(membership.model_fingerprint,
            churn_free->report.membership.model_fingerprint);
}

TEST(TrainerMembershipTest, EventLogAndMetricsReplayBitIdentically) {
  auto run = [] {
    return RunTrainingSimulation(
        TrainOptionsFor("crash=2@60,rejoin=2@400,standby=3,join=3@100", 8));
  };
  auto first = run();
  auto second = run();
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_FALSE(first->report.membership.event_log.empty());
  EXPECT_EQ(first->report.membership.event_log,
            second->report.membership.event_log);
  EXPECT_EQ(first->report.membership.model_fingerprint,
            second->report.membership.model_fingerprint);
  EXPECT_EQ(first->report.membership.final_epoch,
            second->report.membership.final_epoch);
  EXPECT_EQ(first->report.iteration_time, second->report.iteration_time);
  for (const char* counter :
       {"membership.resyncs", "membership.resync_bytes", "membership.drains",
        "membership.rejoined_contributions", "net.retries"}) {
    EXPECT_EQ(first->report.metrics->counter(counter).value(),
              second->report.metrics->counter(counter).value())
        << counter;
  }
}

TEST(TrainerMembershipTest, MiniChaosSoakConvergesToChurnFreeState) {
  ChaosOptions chaos;
  chaos.seed = 9;
  chaos.num_nodes = 4;
  chaos.num_standby = 1;
  chaos.events = 6;
  chaos.first_event_ms = 40.0;
  chaos.spacing_ms = 50.0;
  HiPressOptions options = TrainOptionsFor("", 16);
  options.cluster.net.faults = MakeChaosSchedule(chaos);
  auto churned = RunTrainingSimulation(options);
  ASSERT_TRUE(churned.ok()) << churned.status();
  const MembershipReport& membership = churned->report.membership;
  EXPECT_TRUE(membership.enabled);
  EXPECT_GE(membership.crashes + membership.joins + membership.leaves +
                membership.rejoins,
            4u);
  EXPECT_TRUE(membership.state_consistent);
  // Post-quiesce state is bit-identical to the churn-free run with the
  // same seed — the chaos-soak gate.
  HiPressOptions churn_free_options = TrainOptionsFor("", 16);
  churn_free_options.cluster.net.faults.seed =
      options.cluster.net.faults.seed;
  auto churn_free = RunTrainingSimulation(churn_free_options);
  ASSERT_TRUE(churn_free.ok());
  EXPECT_EQ(membership.model_fingerprint,
            churn_free->report.membership.model_fingerprint);
}

TEST(TrainerMembershipTest, RejectsInfeasibleSchedules) {
  for (const char* bad :
       {"join=1@50",                  // join of a current member
        "leave=0@10,leave=1@20,leave=2@30,leave=3@40",  // empties the view
        "rejoin=2@50",                // rejoin without a crash
        "standby=2,crash=2@40",       // crash of a standby is a no-op crash
        "crash=1@40,join=1@100"}) {   // crashed nodes rejoin, not join
    HiPressOptions options = TrainOptionsFor(bad, 2);
    const auto result = RunTrainingSimulation(options);
    if (std::string(bad) == "standby=2,crash=2@40") {
      // A crash of a node outside the view is tolerated (it never computes
      // or carries traffic), not an error.
      EXPECT_TRUE(result.ok()) << bad;
      continue;
    }
    EXPECT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(TrainerMembershipTest, MembershipRejectsUnsupportedModes) {
  auto profile = GetModelProfile("resnet50");
  ASSERT_TRUE(profile.ok());
  SyncConfig config;
  config.num_nodes = 4;
  config.net.faults.membership.push_back(
      {MembershipEventKind::kLeave, 1, FromMillis(50.0)});
  TrainOptions ssp;
  ssp.staleness = 2;
  EXPECT_EQ(SimulateTraining(*profile, config, ssp).status().code(),
            StatusCode::kInvalidArgument);
  config.sequential_collectives = true;
  EXPECT_EQ(SimulateTraining(*profile, config, {}).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace hipress
