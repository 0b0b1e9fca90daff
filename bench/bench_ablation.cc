// Ablations of the repository's own design choices (DESIGN.md's list),
// beyond the paper's Figure 11:
//
//   1. Bulk coordinator batching vs direct sends, across per-message-cost
//      regimes (when does coordinated bulk communication matter?).
//   2. Partition-count sweep for a large gradient (the convexity SeCoPa
//      exploits, measured end to end rather than from the cost model).
//   3. SeCoPa vs compress-all vs compress-none on a mixed-size model.
//   4. BSP vs SSP staleness (the Section 7 extension).
#include "bench/bench_util.h"
#include "src/common/string_util.h"

using namespace hipress;
using namespace hipress::bench;

namespace {

TrainReport RunConfig(const char* model, SyncConfig config,
                      TrainOptions options = {}) {
  auto profile = GetModelProfile(model);
  auto report = SimulateTraining(*profile, config, options);
  if (!report.ok()) {
    std::fprintf(stderr, "ablation run failed: %s\n",
                 report.status().ToString().c_str());
    std::abort();
  }
  return *report;
}

SyncConfig HiPressPs(const ClusterSpec& cluster) {
  return *MakeSystemConfig("hipress-ps", cluster, "onebit");
}

}  // namespace

int main() {
  BenchReporter reporter("ablation");
  // ---------------------------------------------------------------- bulk --
  Header("Ablation 1: bulk coordinator vs direct sends (Bert-base, PS)");
  std::printf("%-26s %16s %16s\n", "per-message cost",
              "direct tail", "bulk tail");
  for (double overhead_us : {3.0, 12.0, 50.0, 200.0}) {
    ClusterSpec cluster = ClusterSpec::Ec2(16);
    cluster.net.per_message_overhead = FromMicros(overhead_us);
    SyncConfig config = HiPressPs(cluster);
    config.bulk = false;
    const TrainReport direct = RunConfig("bert-base", config);
    config.bulk = true;
    const TrainReport bulk = RunConfig("bert-base", config);
    std::printf("%22.0fus %14.2fms %14.2fms\n", overhead_us,
                ToMillis(direct.sync_tail), ToMillis(bulk.sync_tail));
    const std::string key = StrFormat("bulk.overhead_%.0fus", overhead_us);
    reporter.Record(key + ".direct", direct);
    reporter.Record(key + ".bulk", bulk);
  }
  std::printf("(batching pays once per-message costs dominate small "
              "gradients)\n");

  // ------------------------------------------------------------ partitions
  Header("Ablation 2: partition count for VGG19's 392MB gradient (PS)");
  std::printf("%-12s %16s\n", "partitions", "iteration");
  for (int partitions : {1, 2, 4, 8, 16, 32, 64}) {
    ClusterSpec cluster = ClusterSpec::Ec2(16);
    SyncConfig config = HiPressPs(cluster);
    config.secopa = false;
    config.fixed_partitions = partitions;
    config.ps_partition_bytes = 392 * kMiB / partitions;
    const TrainReport report = RunConfig("vgg19", config);
    std::printf("%-12d %14.2fms\n", partitions,
                ToMillis(report.iteration_time));
    reporter.Record(StrFormat("partitions.%d", partitions), report);
  }

  // ---------------------------------------------------------------- secopa
  Header("Ablation 3: selective compression policies (Bert-base, PS)");
  {
    ClusterSpec cluster = ClusterSpec::Ec2(16);
    SyncConfig config = HiPressPs(cluster);
    const TrainReport secopa = RunConfig("bert-base", config);
    config.secopa = false;  // compress everything, 4MB slices
    const TrainReport all = RunConfig("bert-base", config);
    SyncConfig none = config;
    none.compression = false;
    const TrainReport raw = RunConfig("bert-base", none);
    std::printf("%-22s %14.2fms tail\n", "compress none",
                ToMillis(raw.sync_tail));
    std::printf("%-22s %14.2fms tail\n", "compress everything",
                ToMillis(all.sync_tail));
    std::printf("%-22s %14.2fms tail\n", "SeCoPa",
                ToMillis(secopa.sync_tail));
    reporter.Record("secopa.none", raw);
    reporter.Record("secopa.all", all);
    reporter.Record("secopa.secopa", secopa);
  }

  // ------------------------------------------------------------------- ssp
  Header("Ablation 4: BSP vs SSP staleness (Bert-large, Ring baseline)");
  std::printf("%-12s %16s %12s\n", "staleness", "iteration", "speedup");
  double bsp_iter = 0.0;
  for (int staleness : {0, 1, 2}) {
    ClusterSpec cluster = ClusterSpec::Ec2(16);
    SyncConfig config = *MakeSystemConfig("ring", cluster, "onebit");
    TrainOptions options;
    options.staleness = staleness;
    options.iterations = staleness > 0 ? 8 : 2;
    const TrainReport report = RunConfig("bert-large", config, options);
    reporter.Record(StrFormat("ssp.staleness_%d", staleness), report);
    if (staleness == 0) {
      bsp_iter = static_cast<double>(report.iteration_time);
    }
    std::printf("%-12d %14.2fms %11.2fx\n", staleness,
                ToMillis(report.iteration_time),
                bsp_iter / static_cast<double>(report.iteration_time));
  }
  std::printf("(staleness pipelines the sync tail behind the next "
              "iteration's compute)\n");

  // ------------------------------------------------------------ topology --
  Header("Ablation 5: CaSync topology generality (Bert-large, onebit)");
  std::printf("%-14s %14s %10s %16s\n", "topology", "throughput", "eff",
              "sync tail");
  for (const char* system : {"hipress-ps", "hipress-ring", "hipress-tree"}) {
    const TrainReport report =
        Run("bert-large", system, ClusterSpec::Ec2(16), "onebit");
    std::printf("%-14s %14.0f %10.3f %14.2fms\n", system, report.throughput,
                report.scaling_efficiency, ToMillis(report.sync_tail));
    reporter.Record(std::string("topology.") + system, report);
  }
  std::printf("(the same primitives and engine drive PS, ring and binomial "
              "tree)\n");

  // ---------------------------------------------------------- robustness --
  Header("Ablation 6: dynamics (the cost model's future-work concern)");
  std::printf("%-34s %14s %10s\n", "condition", "HiPress tput", "vs Ring");
  for (double jitter : {0.0, 0.15, 0.3, 0.5}) {
    ClusterSpec cluster = ClusterSpec::Ec2(16);
    cluster.net.bandwidth_jitter = jitter;
    const TrainReport base = Run("bert-large", "ring", cluster, "onebit");
    const TrainReport hipress =
        Run("bert-large", "hipress-ps", cluster, "onebit");
    std::printf("bandwidth jitter %3.0f%% %12s %14.0f %9.2fx\n",
                jitter * 100.0, "", hipress.throughput,
                hipress.throughput / base.throughput);
  }
  {
    HiPressOptions options;
    options.model = "bert-large";
    options.system = "hipress-ps";
    options.cluster = ClusterSpec::Ec2(16);
    auto clean = RunTrainingSimulation(options);
    options.train.straggler_node = 7;
    options.train.straggler_factor = 1.5;
    auto bsp = RunTrainingSimulation(options);
    options.train.staleness = 1;
    options.train.iterations = 8;
    auto ssp = RunTrainingSimulation(options);
    if (clean.ok() && bsp.ok() && ssp.ok()) {
      std::printf("1.5x straggler, BSP %10s %14.0f %9.2fx slower\n", "",
                  bsp->report.throughput,
                  static_cast<double>(bsp->report.iteration_time) /
                      clean->report.iteration_time);
      std::printf("1.5x straggler, SSP(1) %7s %14.0f %9.2fx slower\n", "",
                  ssp->report.throughput,
                  static_cast<double>(ssp->report.iteration_time) /
                      clean->report.iteration_time);
    }
  }
  std::printf("(plans computed from clean profiles keep their advantage "
              "under 50%% jitter;\n BSP stretches with the straggler — the "
              "synchronous-coordination cost Section 2.1 notes — and SSP\n"
              " cannot hide it: every iteration still waits for the slow "
              "node's gradients)\n");
  reporter.Write();
  return 0;
}
