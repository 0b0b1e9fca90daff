#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/string_util.h"
#include "src/models/model_profile.h"
#include "src/train/cluster_job.h"
#include "src/train/trainer.h"

namespace hipress {
namespace {

// A small oversubscribed fat tree where cross-job interference is visible
// but runs stay fast: 8 nodes in 2-host racks, 10 Gbps NICs, 4:1 fabric.
ClusterJobsOptions SmallFatTreeOptions(int nodes, int jobs, int iterations) {
  ClusterJobsOptions options;
  options.cluster = ClusterSpec::Ec2(nodes);
  options.cluster.net.link_bandwidth = Bandwidth::Gbps(10.0);
  options.cluster.net.topology.kind = TopologyKind::kFatTree;
  options.cluster.net.topology.oversubscription = 4.0;
  options.cluster.net.topology.hosts_per_tor = 2;
  options.placement = JobPlacement::kStriped;
  for (int k = 0; k < jobs; ++k) {
    ClusterJobSpec spec;
    spec.model = "resnet50";
    spec.system = "hipress-ps";
    spec.algorithm = "onebit";
    spec.iterations = iterations;
    options.jobs.push_back(spec);
  }
  return options;
}

TEST(AssignJobNodesTest, PackedGivesContiguousBlocks) {
  const auto assignment = AssignJobNodes(8, 2, JobPlacement::kPacked);
  ASSERT_EQ(assignment.size(), 2u);
  EXPECT_EQ(assignment[0], (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(assignment[1], (std::vector<int>{4, 5, 6, 7}));
}

TEST(AssignJobNodesTest, StripedRoundRobinsAcrossRacks) {
  const auto assignment = AssignJobNodes(8, 2, JobPlacement::kStriped);
  ASSERT_EQ(assignment.size(), 2u);
  EXPECT_EQ(assignment[0], (std::vector<int>{0, 2, 4, 6}));
  EXPECT_EQ(assignment[1], (std::vector<int>{1, 3, 5, 7}));
}

TEST(ClusterJobTest, RejectsIndivisibleNodeCounts) {
  ClusterJobsOptions options = SmallFatTreeOptions(9, 2, 1);
  EXPECT_FALSE(RunClusterJobs(options).ok());
}

TEST(ClusterJobTest, RejectsFeaturesItCannotModel) {
  // Ordered collectives (ring, ring-oss) need SimulateTraining's pump, and
  // churn needs its membership boundary: refuse both instead of running a
  // different schedule.
  for (const char* system : {"ring", "ring-oss"}) {
    ClusterJobsOptions options = SmallFatTreeOptions(8, 2, 1);
    options.jobs[1].system = system;
    const auto run = RunClusterJobs(options);
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument) << system;
    EXPECT_NE(run.status().message().find("job1: "), std::string::npos)
        << run.status();
  }
  ClusterJobsOptions crash = SmallFatTreeOptions(8, 2, 1);
  crash.cluster.net.faults.crashes.push_back({1, FromMillis(5.0)});
  EXPECT_EQ(RunClusterJobs(crash).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ClusterJobTest, MultiJobContentionStretchesIterations) {
  // Two striped jobs share every rack's oversubscribed ToR uplink; each
  // job's iteration must be strictly slower than the same-size job running
  // alone on its own slice, and the critical-path send share must show the
  // network (not compute) eating the difference.
  auto solo = RunClusterJobs(SmallFatTreeOptions(4, 1, 2));
  ASSERT_TRUE(solo.ok()) << solo.status().ToString();
  auto multi = RunClusterJobs(SmallFatTreeOptions(8, 2, 2));
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();
  ASSERT_EQ(multi->jobs.size(), 2u);
  for (const ClusterJobReport& job : multi->jobs) {
    EXPECT_GT(job.iteration_time, solo->jobs[0].iteration_time)
        << job.name << " shows no cross-job contention";
  }
  EXPECT_GT(multi->jobs[0].send_share, 0.0);
  EXPECT_EQ(multi->steady_sched_pool_misses, 0u);
}

TEST(ClusterJobTest, ReplayFingerprintIsBitStable) {
  const ClusterJobsOptions options = SmallFatTreeOptions(8, 2, 2);
  auto first = RunClusterJobs(options);
  auto second = RunClusterJobs(options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->replay_fingerprint, second->replay_fingerprint);
  ASSERT_EQ(first->jobs.size(), second->jobs.size());
  for (size_t k = 0; k < first->jobs.size(); ++k) {
    EXPECT_EQ(first->jobs[k].iteration_end, second->jobs[k].iteration_end);
  }
}

TEST(ClusterJobTest, SharedRegistryCarriesEngineTotals) {
  // Each job's engine records into its own registry; the shared registry
  // carries the cluster-wide sums under the single-job names.
  auto run = RunClusterJobs(SmallFatTreeOptions(8, 2, 2));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->jobs.size(), 2u);
  for (const char* name :
       {"engine.encode_tasks", "engine.decode_tasks", "engine.merge_tasks",
        "engine.send_tasks", "engine.encode_time_ns", "engine.decode_time_ns",
        "engine.merge_time_ns", "engine.wire_bytes", "coordinator.batches",
        "coordinator.transfers_batched",
        "coordinator.batch_bucket_waste_bytes"}) {
    uint64_t sum = 0;
    for (const ClusterJobReport& job : run->jobs) {
      ASSERT_NE(job.engine_metrics, nullptr);
      sum += job.engine_metrics->counter_value(name);
    }
    EXPECT_EQ(run->metrics->counter_value(name), sum) << name;
  }
  for (const char* name : {"engine.encode_tasks", "engine.send_tasks",
                           "engine.wire_bytes", "coordinator.batches"}) {
    EXPECT_GT(run->metrics->counter_value(name), 0u) << name;
    for (const ClusterJobReport& job : run->jobs) {
      EXPECT_GT(job.engine_metrics->counter_value(name), 0u)
          << job.name << " " << name;
    }
  }
}

TEST(ClusterJobTest, PlacementChangesTheSchedule) {
  ClusterJobsOptions striped = SmallFatTreeOptions(8, 2, 2);
  ClusterJobsOptions packed = striped;
  packed.placement = JobPlacement::kPacked;
  auto striped_run = RunClusterJobs(striped);
  auto packed_run = RunClusterJobs(packed);
  ASSERT_TRUE(striped_run.ok());
  ASSERT_TRUE(packed_run.ok());
  // Packed jobs keep more traffic rack-local, so the timelines genuinely
  // differ — placement is not a relabeling.
  EXPECT_NE(striped_run->replay_fingerprint, packed_run->replay_fingerprint);
}

TEST(ClusterJobTest, AdaptiveControllersConvergeWithoutFlapping) {
  // Per-job adaptive compression on a contended fabric: controllers may
  // re-plan while measurements settle, but must not oscillate — bounded
  // switches, and no decision churn in the final iterations.
  ClusterJobsOptions options = SmallFatTreeOptions(8, 2, 8);
  for (ClusterJobSpec& spec : options.jobs) {
    spec.adaptive.enabled = true;
    spec.adaptive.candidate_algorithms = {"dgc"};
  }
  auto run = RunClusterJobs(options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  for (const ClusterJobReport& job : run->jobs) {
    EXPECT_TRUE(job.adaptive.enabled);
    EXPECT_LE(job.adaptive.codec_switches, 2) << job.name << " flapped";
    // Convergence: every boundary is logged (holds included), but the last
    // two iterations must carry no new actions.
    int late_actions = 0;
    for (const AdaptiveDecision& decision : job.adaptive.decisions) {
      if ((decision.replanned || decision.codec_switched) &&
          decision.iteration >= options.jobs[0].iterations - 2) {
        ++late_actions;
      }
    }
    EXPECT_EQ(late_actions, 0) << job.name << " still churning at the end";
  }
}

// ------------------------------------------------------- golden schedules
// FNV-1a over the replay fingerprint and every job's per-iteration
// completion times (simulated nanoseconds, machine independent). A change
// to how RunClusterJobs is organized must not move any of them.

uint64_t FnvMix(uint64_t hash, uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    hash ^= (value >> (8 * b)) & 0xffULL;
    hash *= 1099511628211ULL;
  }
  return hash;
}

uint64_t ClusterScheduleHash(const ClusterRunReport& run) {
  uint64_t hash = FnvMix(14695981039346656037ULL, run.replay_fingerprint);
  for (const ClusterJobReport& job : run.jobs) {
    for (const SimTime end : job.iteration_end) {
      hash = FnvMix(hash, static_cast<uint64_t>(end));
    }
  }
  return hash;
}

TEST(ClusterGoldenScheduleTest, FingerprintsMatchRecordedSchedules) {
  ClusterJobsOptions striped = SmallFatTreeOptions(8, 2, 3);
  ClusterJobsOptions packed = striped;
  packed.placement = JobPlacement::kPacked;
  ClusterJobsOptions adaptive = SmallFatTreeOptions(8, 2, 6);
  for (ClusterJobSpec& spec : adaptive.jobs) {
    spec.adaptive.enabled = true;
    spec.adaptive.candidate_algorithms = {"dgc"};
  }
  // BytePS slices vgg19's large gradients into more 4 MB partitions than
  // a job has nodes; every partition keeps its own aggregator slot.
  ClusterJobsOptions byteps;
  byteps.cluster = ClusterSpec::Ec2(8);
  for (int k = 0; k < 2; ++k) {
    ClusterJobSpec spec;
    spec.model = "vgg19";
    spec.system = "byteps";
    spec.iterations = 2;
    byteps.jobs.push_back(spec);
  }
  const struct {
    const char* name;
    const ClusterJobsOptions& options;
    uint64_t hash;
  } cases[] = {
      {"striped", striped, 0x655b50a5c26ae747ULL},
      {"packed", packed, 0x8615ee1e2241c22eULL},
      {"adaptive", adaptive, 0x657db546ee285c1aULL},
      {"byteps-vgg19", byteps, 0xd20667bcd280a88ULL},
  };
  for (const auto& c : cases) {
    auto run = RunClusterJobs(c.options);
    ASSERT_TRUE(run.ok()) << c.name << ": " << run.status();
    const uint64_t hash = ClusterScheduleHash(*run);
    EXPECT_EQ(hash, c.hash) << c.name << std::hex << " schedule 0x" << hash;
  }
}

TEST(ClusterJobTest, SoloJobReproducesSingleJobTrainer) {
  // One job alone on the fabric prices, builds and runs its gradients
  // exactly as SimulateTraining does: bit-equal per-iteration times for
  // every system both accept, including plans with more partitions than
  // nodes (BytePS slicing vgg19 and bert-large).
  for (const char* system :
       {"byteps", "byteps-cpu", "byteps-cpu-simd", "byteps-oss", "hipress-ps",
        "hipress-ring", "hipress-tree"}) {
    for (const char* model : {"resnet50", "vgg19", "bert-large"}) {
      for (const int nodes : {4, 16}) {
        const std::string label =
            StrFormat("%s %s n=%d", system, model, nodes);
        ClusterJobsOptions options;
        options.cluster = ClusterSpec::Ec2(nodes);
        ClusterJobSpec spec;
        spec.model = model;
        spec.system = system;
        spec.iterations = 3;
        options.jobs.push_back(spec);
        auto solo = RunClusterJobs(options);
        ASSERT_TRUE(solo.ok()) << label << ": " << solo.status();

        auto profile = GetModelProfile(spec.model);
        ASSERT_TRUE(profile.ok());
        auto config = MakeSystemConfig(system, options.cluster);
        ASSERT_TRUE(config.ok()) << label;
        TrainOptions train;
        train.iterations = spec.iterations;
        auto single = SimulateTraining(*profile, *config, train);
        ASSERT_TRUE(single.ok()) << label << ": " << single.status();

        const ClusterJobReport& job = solo->jobs[0];
        ASSERT_EQ(job.iteration_end.size(), single->steps.size()) << label;
        SimTime start = 0;
        for (size_t i = 0; i < job.iteration_end.size(); ++i) {
          EXPECT_EQ(ToMillis(job.iteration_end[i] - start),
                    single->steps[i].iteration_ms)
              << label << " iteration " << i;
          start = job.iteration_end[i];
        }
        EXPECT_EQ(job.iteration_time, single->iteration_time) << label;
        EXPECT_EQ(job.compute_time, single->compute_time) << label;
      }
    }
  }
}

}  // namespace
}  // namespace hipress
