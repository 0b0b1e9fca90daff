// Training-loop simulator: metric sanity and the evaluation section's
// qualitative shapes (compression helps communication-bound models, HiPress
// beats the OSS co-designs, optimizations stack).
#include <gtest/gtest.h>

#include <cstring>

#include "src/hipress/hipress.h"
#include "src/net/fault.h"

namespace hipress {
namespace {

TrainReport MustRun(const std::string& model, const std::string& system,
                    int nodes, const std::string& algorithm = "onebit",
                    bool disable_rdma = false) {
  HiPressOptions options;
  options.model = model;
  options.system = system;
  options.algorithm = algorithm;
  options.cluster = ClusterSpec::Ec2(nodes);
  options.disable_rdma = disable_rdma;
  auto result = RunTrainingSimulation(options);
  EXPECT_TRUE(result.ok()) << result.status();
  return result->report;
}

TEST(TrainerTest, ReportsConsistentMetrics) {
  const TrainReport report = MustRun("resnet50", "ring", 4);
  EXPECT_GT(report.iteration_time, 0);
  EXPECT_GE(report.iteration_time, report.compute_time);
  EXPECT_GT(report.throughput, 0.0);
  EXPECT_GT(report.scaling_efficiency, 0.0);
  EXPECT_LE(report.scaling_efficiency, 1.0);
  EXPECT_GE(report.comm_ratio, 0.0);
  EXPECT_LE(report.comm_ratio, 1.0);
  EXPECT_EQ(report.total_gpus, 32);
  // iteration = compute + visible tail.
  EXPECT_EQ(report.iteration_time, report.compute_time + report.sync_tail);
}

TEST(TrainerTest, DeterministicAcrossRuns) {
  const TrainReport a = MustRun("vgg19", "hipress-ps", 4);
  const TrainReport b = MustRun("vgg19", "hipress-ps", 4);
  EXPECT_EQ(a.iteration_time, b.iteration_time);
  EXPECT_EQ(a.throughput, b.throughput);
}

TEST(TrainerTest, SingleNodeHasNegligibleCommunicationTail) {
  // One node: no network traffic; only the sync-launch bookkeeping after
  // the last gradient remains (sub-millisecond).
  const TrainReport report = MustRun("resnet50", "hipress-ring", 1);
  EXPECT_LT(report.sync_tail, FromMillis(1.0));
  EXPECT_GT(report.scaling_efficiency, 0.99);
}

TEST(TrainerShapeTest, HiPressBeatsNonCompressionBaselines) {
  // Communication-heavy VGG19 at 16 nodes: HiPress-PS with onebit must beat
  // both BytePS and Ring (Figure 7a's headline).
  const TrainReport byteps = MustRun("vgg19", "byteps", 16, "onebit",
                                     /*disable_rdma=*/true);
  const TrainReport ring = MustRun("vgg19", "ring", 16);
  const TrainReport hipress = MustRun("vgg19", "hipress-ps", 16);
  EXPECT_GT(hipress.throughput, byteps.throughput);
  EXPECT_GT(hipress.throughput, ring.throughput);
}

TEST(TrainerShapeTest, HiPressBeatsOssCompressionBaseline) {
  const TrainReport oss = MustRun("bert-large", "byteps-oss", 16);
  const TrainReport hipress = MustRun("bert-large", "hipress-ps", 16);
  EXPECT_GT(hipress.throughput, oss.throughput);
}

TEST(TrainerShapeTest, OssCompressionBarelyHelpsBytePs) {
  // Table 1 / Section 6.2: BytePS(OSS-onebit) brings only limited
  // improvement over BytePS (at worst it even regresses, as on the local
  // cluster where it ran 8.5% slower than Ring) — nowhere near the 32x
  // wire-volume reduction would suggest.
  const TrainReport byteps = MustRun("bert-large", "byteps", 16, "onebit",
                                     /*disable_rdma=*/true);
  const TrainReport oss = MustRun("bert-large", "byteps-oss", 16, "onebit",
                                  /*disable_rdma=*/true);
  EXPECT_LT(oss.throughput, byteps.throughput * 1.35);
  EXPECT_GT(oss.throughput, byteps.throughput * 0.6);
}

TEST(TrainerShapeTest, ScalingEfficiencyDropsWithClusterSize) {
  const TrainReport small = MustRun("transformer", "ring", 2);
  const TrainReport large = MustRun("transformer", "ring", 16);
  EXPECT_GT(small.scaling_efficiency, large.scaling_efficiency);
}

TEST(TrainerShapeTest, HiPressAdvantageGrowsWithClusterSize) {
  // Section 6.2: "the improvements of HiPress become larger when the number
  // of GPUs increases".
  auto gain = [&](int nodes) {
    const TrainReport base = MustRun("bert-large", "ring", nodes);
    const TrainReport hipress = MustRun("bert-large", "hipress-ps", nodes);
    return hipress.throughput / base.throughput;
  };
  EXPECT_GT(gain(16), gain(2));
}

TEST(TrainerShapeTest, ComputeBoundModelGainsLess) {
  // ResNet50 is computation-intensive: compression gains exist but are far
  // smaller than VGG19's (Figure 7b vs 7a).
  auto gain = [&](const std::string& model) {
    const TrainReport base = MustRun(model, "ring", 16);
    const TrainReport hipress = MustRun(model, "hipress-ring", 16, "dgc");
    return hipress.throughput / base.throughput;
  };
  EXPECT_GT(gain("vgg19"), gain("resnet50"));
}

TEST(TrainerShapeTest, LowerBandwidthIncreasesCompressionBenefit) {
  auto gain = [&](bool slow) {
    HiPressOptions options;
    options.model = "bert-base";
    options.cluster = ClusterSpec::Ec2(16);
    if (slow) {
      options.cluster.net.link_bandwidth = Bandwidth::Gbps(25.0 * 0.75);
    }
    options.system = "ring";
    auto base = RunTrainingSimulation(options);
    options.system = "hipress-ps";
    auto hipress = RunTrainingSimulation(options);
    EXPECT_TRUE(base.ok() && hipress.ok());
    return hipress->report.throughput / base->report.throughput;
  };
  EXPECT_GT(gain(true), gain(false));
}

TEST(TrainerTest, TimelineRecordsComputeBlocks) {
  HiPressOptions options;
  options.model = "bert-large";
  options.system = "hipress-ps";
  options.cluster = ClusterSpec::Ec2(4);
  options.train.record_timeline = true;
  auto result = RunTrainingSimulation(options);
  ASSERT_TRUE(result.ok()) << result.status();
  bool saw_compute = false;
  bool saw_codec = false;
  for (const GpuInterval& interval : result->report.timeline) {
    if (interval.kind == GpuTaskKind::kCompute) {
      saw_compute = true;
    }
    if (interval.kind == GpuTaskKind::kEncode ||
        interval.kind == GpuTaskKind::kDecode) {
      saw_codec = true;
    }
  }
  EXPECT_TRUE(saw_compute);
  EXPECT_TRUE(saw_codec);
}

TEST(SspTest, StalenessHidesSyncTailForCommBoundModel) {
  // SSP overlaps iteration k's sync with iteration k+1's compute, so a
  // communication-bound model gains throughput; the gain is bounded by the
  // compute-only rate.
  HiPressOptions options;
  options.model = "bert-large";
  options.system = "ring";
  options.cluster = ClusterSpec::Ec2(16);
  auto bsp = RunTrainingSimulation(options);
  ASSERT_TRUE(bsp.ok());
  options.train.staleness = 1;
  options.train.iterations = 6;
  auto ssp = RunTrainingSimulation(options);
  ASSERT_TRUE(ssp.ok());
  EXPECT_GT(ssp->report.throughput, bsp->report.throughput);
  EXPECT_LE(ssp->report.scaling_efficiency, 1.0 + 1e-9);
}

TEST(SspTest, StalenessIsNoOpWhenSyncAlreadyHidden) {
  // HiPress already hides the tail; SSP cannot make iterations faster than
  // compute.
  HiPressOptions options;
  options.model = "bert-large";
  options.system = "hipress-ps";
  options.cluster = ClusterSpec::Ec2(16);
  auto bsp = RunTrainingSimulation(options);
  ASSERT_TRUE(bsp.ok());
  options.train.staleness = 2;
  options.train.iterations = 6;
  auto ssp = RunTrainingSimulation(options);
  ASSERT_TRUE(ssp.ok());
  EXPECT_NEAR(ssp->report.iteration_time,
              static_cast<double>(bsp->report.compute_time),
              static_cast<double>(bsp->report.compute_time) * 0.05);
}

TEST(StragglerTest, SlowNodeStretchesBspIterations) {
  HiPressOptions options;
  options.model = "resnet50";
  options.system = "hipress-ring";
  options.cluster = ClusterSpec::Ec2(8);
  auto clean = RunTrainingSimulation(options);
  ASSERT_TRUE(clean.ok());
  options.train.straggler_node = 3;
  options.train.straggler_factor = 1.5;
  auto slow = RunTrainingSimulation(options);
  ASSERT_TRUE(slow.ok());
  // BSP: every aggregation waits for the straggler; the iteration stretches
  // by roughly the straggler factor.
  EXPECT_GE(slow->report.iteration_time,
            static_cast<SimTime>(clean->report.iteration_time * 1.45));
  EXPECT_LE(slow->report.iteration_time,
            static_cast<SimTime>(clean->report.iteration_time * 1.8));
}

TEST(StragglerTest, SlowNodeStretchesSspIterations) {
  // SSP pipelines iterations but still aggregates every node's gradients,
  // so the straggler's compute gates each iteration as it does under BSP.
  auto profile = GetModelProfile("resnet50");
  ASSERT_TRUE(profile.ok());
  ClusterSpec cluster = ClusterSpec::Ec2(4);
  cluster.net.link_bandwidth = Bandwidth::Gbps(10.0);
  auto config = MakeSystemConfig("hipress-ps", cluster, "onebit");
  ASSERT_TRUE(config.ok());
  TrainOptions options;
  options.staleness = 1;
  options.iterations = 6;
  auto clean = SimulateTraining(*profile, *config, options);
  ASSERT_TRUE(clean.ok()) << clean.status();
  options.straggler_node = 1;
  options.straggler_factor = 1.5;
  auto slow = SimulateTraining(*profile, *config, options);
  ASSERT_TRUE(slow.ok()) << slow.status();
  EXPECT_GE(slow->iteration_time,
            static_cast<SimTime>(clean->iteration_time * 1.4));
  EXPECT_LT(slow->throughput, clean->throughput);
}

TEST(StragglerTest, StragglerKnobsSurfaceInMetrics) {
  // The straggler knobs must show up both in the report and in the
  // observability layer: the iteration histogram/gauge stretch by roughly
  // the straggler factor relative to a clean run.
  HiPressOptions options;
  options.model = "resnet50";
  options.system = "hipress-ring";
  options.cluster = ClusterSpec::Ec2(8);
  auto clean = RunTrainingSimulation(options);
  ASSERT_TRUE(clean.ok());
  options.train.straggler_node = 2;
  options.train.straggler_factor = 2.0;
  auto slow = RunTrainingSimulation(options);
  ASSERT_TRUE(slow.ok());

  // Report-level stretch: ~2x, bounded loosely above (sync overlaps).
  EXPECT_GE(slow->report.iteration_time,
            static_cast<SimTime>(clean->report.iteration_time * 1.9));
  EXPECT_LE(slow->report.iteration_time,
            static_cast<SimTime>(clean->report.iteration_time * 2.4));

  // Metrics-level: both runs' registries carry per-iteration histograms
  // and the last-iteration gauge; they must reflect the same stretch.
  MetricsRegistry& clean_metrics = *clean->report.metrics;
  MetricsRegistry& slow_metrics = *slow->report.metrics;
  const Histogram& clean_iter = clean_metrics.histogram("train.iteration_ms");
  const Histogram& slow_iter = slow_metrics.histogram("train.iteration_ms");
  ASSERT_GT(clean_iter.count(), 0u);
  ASSERT_EQ(clean_iter.count(), slow_iter.count());
  EXPECT_GE(slow_iter.max(), clean_iter.max() * 1.9);
  EXPECT_NEAR(slow_metrics.gauge("train.iteration_ms_last").value(),
              ToMillis(slow->report.iteration_time), 1e-6);
  // The straggler's slow compute also lengthens the sync tail histogram.
  EXPECT_GE(slow_metrics.histogram("train.sync_tail_ms").max(),
            clean_metrics.histogram("train.sync_tail_ms").max());
}

TEST(JitterTest, SeCoPaPlansStillHelpUnderBandwidthVariance) {
  // The paper's future-work concern: profiling-based plans under network
  // dynamics. With 30% jitter the plans are computed from clean profiles
  // yet HiPress keeps (nearly all of) its advantage.
  HiPressOptions options;
  options.model = "bert-large";
  options.cluster = ClusterSpec::Ec2(16);
  options.cluster.net.bandwidth_jitter = 0.3;
  options.system = "ring";
  auto base = RunTrainingSimulation(options);
  options.system = "hipress-ps";
  auto hipress = RunTrainingSimulation(options);
  ASSERT_TRUE(base.ok() && hipress.ok());
  EXPECT_GT(hipress->report.throughput, base->report.throughput * 1.4);
}

// ------------------------------------------------------- golden schedules
// FNV-1a over everything SimulateTraining reports per iteration: every
// StepRecord, the measured iteration time and throughput, the engine
// counters, the adaptive summary and the replicated model-state
// fingerprint. Simulated time only, so the hashes are machine independent.
// A change to how the trainer is organized must not move any of them.

uint64_t FnvMix(uint64_t hash, uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    hash ^= (value >> (8 * b)) & 0xffULL;
    hash *= 1099511628211ULL;
  }
  return hash;
}

uint64_t FnvDouble(uint64_t hash, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return FnvMix(hash, bits);
}

uint64_t ScheduleHash(const TrainReport& report) {
  uint64_t hash = 14695981039346656037ULL;
  for (const StepRecord& step : report.steps) {
    hash = FnvMix(hash, static_cast<uint64_t>(step.iteration));
    for (const double ms :
         {step.iteration_ms, step.compute_ms, step.encode_ms, step.merge_ms,
          step.send_ms, step.recv_ms, step.decode_ms, step.wait_ms,
          step.straggler_skew_ms}) {
      hash = FnvDouble(hash, ms);
    }
    hash = FnvMix(hash, static_cast<uint64_t>(step.path_tasks));
    hash = FnvMix(hash, step.degraded ? 1 : 0);
  }
  hash = FnvMix(hash, static_cast<uint64_t>(report.iteration_time));
  hash = FnvDouble(hash, report.throughput);
  const EngineStats& stats = report.engine_stats;
  for (const uint64_t value :
       {stats.encode_tasks, stats.decode_tasks, stats.merge_tasks,
        stats.send_tasks, static_cast<uint64_t>(stats.encode_time),
        static_cast<uint64_t>(stats.decode_time),
        static_cast<uint64_t>(stats.merge_time), stats.wire_bytes}) {
    hash = FnvMix(hash, value);
  }
  hash = FnvMix(hash, static_cast<uint64_t>(report.adaptive.replans));
  hash = FnvMix(hash, static_cast<uint64_t>(report.adaptive.codec_switches));
  return FnvMix(hash, report.membership.model_fingerprint);
}

enum class GoldenPlan { kPreset, kRaw, kFixedCompress };

struct TrainerGoldenCase {
  const char* name;
  const char* system;
  const char* model;
  GoldenPlan plan = GoldenPlan::kPreset;
  int staleness = 0;
  bool straggler = false;
  bool adaptive = false;
  const char* faults = "";
  uint64_t hash = 0;
};

TEST(TrainerGoldenScheduleTest, FingerprintsMatchRecordedSchedules) {
  using P = GoldenPlan;
  const TrainerGoldenCase cases[] = {
      {"ps/raw", "hipress-ps", "resnet50", P::kRaw, 0, false, false,
       "", 0x6b86e4f5c03ad704ULL},
      {"ps/fixed", "hipress-ps", "resnet50", P::kFixedCompress, 0, false, false,
       "", 0x113cda6f689f5c49ULL},
      {"ps/secopa", "hipress-ps", "resnet50", P::kPreset, 0, false, false,
       "", 0xcaa1bf68f7d40602ULL},
      {"ring/raw", "hipress-ring", "resnet50", P::kRaw, 0, false, false,
       "", 0x16186d3b84a67bb8ULL},
      {"ring/fixed", "hipress-ring", "resnet50", P::kFixedCompress, 0, false,
       false, "", 0xc2d572cf28f07245ULL},
      {"ring/secopa", "hipress-ring", "resnet50", P::kPreset, 0, false, false,
       "", 0x7263058c1fc16892ULL},
      {"tree/raw", "hipress-tree", "resnet50", P::kRaw, 0, false, false,
       "", 0xf26d975c62aff9b1ULL},
      {"tree/fixed", "hipress-tree", "resnet50", P::kFixedCompress, 0, false,
       false, "", 0x83efcc8bb0413cd8ULL},
      {"tree/secopa", "hipress-tree", "resnet50", P::kPreset, 0, false, false,
       "", 0xd200fdf96880cdb2ULL},
      // Fusion buckets + Horovod's ordered collectives.
      {"ring/fused-sequential", "ring", "resnet50", P::kPreset, 0, false, false,
       "", 0x7545d3e01d5170b1ULL},
      {"ring-oss", "ring-oss", "resnet50", P::kPreset, 0, false, false,
       "", 0xbece81d1091fd468ULL},
      {"ssp1", "hipress-ps", "resnet50", P::kPreset, 1, false, false,
       "", 0x79f336fcfa13c284ULL},
      {"ssp2", "hipress-ps", "resnet50", P::kPreset, 2, false, false,
       "", 0xc811e5d9d8ce649ULL},
      {"ssp1/sequential", "ring", "resnet50", P::kPreset, 1, false, false,
       "", 0xca9b739b19473a31ULL},
      {"ssp2/sequential", "ring", "resnet50", P::kPreset, 2, false, false,
       "", 0xca72368a13dedddcULL},
      {"straggler", "hipress-ring", "resnet50", P::kPreset, 0, true, false,
       "", 0x713bb1534faa8c7bULL},
      {"adaptive", "hipress-ps", "vgg19", P::kPreset, 0, false, true,
       "degrade=*-*@30-1000000@0.5", 0x1ded54be257a656aULL},
      {"crash", "hipress-ps", "resnet50", P::kPreset, 0, false, false,
       "crash=2@60", 0x4a553c1e00d89ba7ULL},
      {"join-leave", "hipress-ps", "resnet50", P::kPreset, 0, false, false,
       "standby=3,join=3@60,leave=1@250", 0x4879480657c37fffULL},
  };
  for (const TrainerGoldenCase& c : cases) {
    auto profile = GetModelProfile(c.model);
    ASSERT_TRUE(profile.ok()) << c.name;
    // 10 Gbps makes resnet50 communication-bound, so the sync schedule
    // (not just compute) sets every iteration's end.
    ClusterSpec cluster = ClusterSpec::Ec2(4);
    cluster.net.link_bandwidth = Bandwidth::Gbps(10.0);
    if (*c.faults != '\0') {
      auto faults = ParseFaultSpec(c.faults);
      ASSERT_TRUE(faults.ok()) << c.name << ": " << faults.status();
      cluster.net.faults = *faults;
    }
    auto config =
        MakeSystemConfig(c.system, cluster, c.adaptive ? "fp16" : "onebit");
    ASSERT_TRUE(config.ok()) << c.name;
    if (c.plan == GoldenPlan::kRaw) {
      config->compression = false;
    } else if (c.plan == GoldenPlan::kFixedCompress) {
      config->secopa = false;
    }
    TrainOptions options;
    options.iterations = c.adaptive ? 6 : 4;
    options.staleness = c.staleness;
    if (c.straggler) {
      options.straggler_node = 1;
      options.straggler_factor = 1.5;
    }
    if (c.adaptive) {
      options.adaptive.enabled = true;
      options.adaptive.candidate_algorithms = {"onebit"};
    }
    auto run = SimulateTraining(*profile, *config, options);
    ASSERT_TRUE(run.ok()) << c.name << ": " << run.status();
    const uint64_t hash = ScheduleHash(*run);
    EXPECT_EQ(hash, c.hash) << c.name << std::hex << " schedule 0x" << hash;
  }
}

TEST(PresetsTest, UnknownSystemIsRejected) {
  auto config = MakeSystemConfig("magic", ClusterSpec::Ec2(4));
  EXPECT_FALSE(config.ok());
}

TEST(PresetsTest, AllPresetsProduceValidConfigs) {
  for (const char* system : {"byteps", "ring", "byteps-oss", "byteps-cpu",
                             "ring-oss", "hipress-ps", "hipress-ring", "hipress-tree"}) {
    auto config = MakeSystemConfig(system, ClusterSpec::Local(8), "onebit");
    ASSERT_TRUE(config.ok()) << system;
    EXPECT_EQ(config->num_nodes, 8);
  }
}

TEST(PresetsTest, WithoutRdmaDegradesNetwork) {
  const NetworkConfig rdma = ClusterSpec::Ec2(4).net;
  const NetworkConfig tcp = WithoutRdma(rdma);
  EXPECT_LT(tcp.link_bandwidth.bits_per_second,
            rdma.link_bandwidth.bits_per_second);
  EXPECT_GT(tcp.latency, rdma.latency);
  EXPECT_GT(tcp.per_message_overhead, rdma.per_message_overhead);
}

TEST(PresetsTest, ClusterSpecsMatchPaperTestbeds) {
  const ClusterSpec ec2 = ClusterSpec::Ec2(16);
  EXPECT_EQ(ec2.gpus_per_node, 8);
  EXPECT_EQ(ec2.platform, GpuPlatform::kV100);
  const ClusterSpec local = ClusterSpec::Local(16);
  EXPECT_EQ(local.gpus_per_node, 2);
  EXPECT_EQ(local.platform, GpuPlatform::k1080Ti);
  EXPECT_LT(local.net.link_bandwidth.bits_per_second,
            ec2.net.link_bandwidth.bits_per_second);
}

}  // namespace
}  // namespace hipress
