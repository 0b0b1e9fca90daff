// train_cluster — simulate data-parallel training of any Table 6 model on a
// configurable cluster and print the evaluation metrics.
//
//   train_cluster [--model vgg19] [--system hipress-ps] [--algorithm onebit]
//                 [--nodes 16] [--cluster ec2|local] [--gbps <bandwidth>]
//                 [--bitwidth N] [--ratio R] [--no-rdma] [--compare]
//                 [--faults SPEC] [--chaos SEED[:EVENTS]]
//                 [--step-report steps.jsonl]
//                 [--iterations N] [--adaptive] [--adaptive-codecs a,b]
//                 [--topology flat|fattree[:RATIO[:HOSTS]]]
//                 [--jobs K] [--placement striped|packed]
//                 [--flight-record out.hpfr] [--health-exit]
//
// --compare runs all systems side by side (a miniature Figure 7/8 panel).
// --step-report writes one JSON object per iteration with the critical-path
// wall-time attribution (docs/OBSERVABILITY.md).
// --faults injects network faults (docs/FAULT_TOLERANCE.md), e.g.
//   --faults "drop=0.01,seed=7"              1% message loss
//   --faults "crash=3@40"                    node 3 dies 40 ms in
//   --faults "degrade=0-1@10-20@0.25"        link 0->1 at 25% bw for 10 ms
//   --faults "standby=3,join=3@60"           node 3 joins the view at 60 ms
//   --faults "crash=2@40,rejoin=2@200"       node 2 crashes, rejoins at 200 ms
// --chaos generates a seeded chaos-soak schedule (interleaved crashes,
// joins, leaves, rejoins and degradation windows) over --nodes; the
// optional :EVENTS suffix sets the event count (default 6). Chaos events
// merge on top of any --faults spec. Two runs with the same seed replay
// bit-identically (docs/FAULT_TOLERANCE.md).
// --adaptive turns on the runtime-adaptive compression controller
// (docs/ADAPTIVE.md); --adaptive-codecs adds candidate codec-ladder rungs
// beyond the configured algorithm, e.g. --adaptive-codecs onebit,tbq.
// Pair with --faults "degrade=..." to watch the controller re-plan.
// --topology selects the network model (docs/TOPOLOGY.md):
//   --topology fattree:3        NIC->ToR->spine, 3:1 oversubscribed
//   --topology fattree:3:8      same, 8 hosts per rack (default 16)
// --jobs K splits the cluster into K concurrent training jobs sharing one
// simulated fabric (docs/TOPOLOGY.md); --placement picks node striping
// across racks (default, adversarial) or packed per-rack blocks. Every job
// prices its gradients as a single-job run does. Crash and membership
// faults, and the ordered-collectives systems (ring, ring-oss), are
// single-job only and are rejected when --jobs > 1.
// --flight-record FILE arms the always-on flight recorder's dump path: a
// fatal error, retry-budget exhaustion, a watchdog trip or normal run end
// writes the per-node black-box rings there; decode with
// tools/flight_decode.py (docs/OBSERVABILITY.md).
// --health-exit exits 3 when a watchdog rule is still tripped at run end.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "src/common/profiler.h"
#include "src/common/string_util.h"
#include "src/casync/workflow.h"
#include "src/net/fault.h"
#include "src/net/topology.h"
#include "src/train/cluster_job.h"
#include "src/train/trace.h"

using namespace hipress;

namespace {

struct Args {
  std::string model = "bert-large";
  std::string system = "hipress-ps";
  std::string algorithm = "onebit";
  std::string cluster = "ec2";
  int nodes = 16;
  double gbps = 0.0;  // 0 = cluster default
  unsigned bitwidth = 2;
  double ratio = 0.001;
  bool no_rdma = false;
  bool compare = false;
  std::string trace_path;   // --trace out.json: chrome://tracing dump
  std::string faults;       // --faults "drop=0.01,crash=3@40,..."
  std::string step_report;  // --step-report steps.jsonl: per-iteration JSONL
  int iterations = 0;       // --iterations N (0 = trainer default)
  bool chaos = false;       // --chaos SEED[:EVENTS]: seeded soak schedule
  uint64_t chaos_seed = 1;
  int chaos_events = 6;
  bool adaptive = false;
  std::string adaptive_codecs;  // comma-separated extra ladder rungs
  std::string topology;         // flat | fattree[:RATIO[:HOSTS]]
  int jobs = 1;                 // --jobs K: concurrent jobs on one fabric
  std::string placement = "striped";
  std::string flight_record;  // --flight-record FILE: black-box dump path
  bool health_exit = false;   // --health-exit: exit 3 if still tripped
};

bool Parse(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--model") {
      args->model = next();
    } else if (flag == "--system") {
      args->system = next();
    } else if (flag == "--algorithm") {
      args->algorithm = next();
    } else if (flag == "--cluster") {
      args->cluster = next();
    } else if (flag == "--nodes") {
      args->nodes = std::atoi(next());
    } else if (flag == "--gbps") {
      args->gbps = std::atof(next());
    } else if (flag == "--bitwidth") {
      args->bitwidth = static_cast<unsigned>(std::atoi(next()));
    } else if (flag == "--ratio") {
      args->ratio = std::atof(next());
    } else if (flag == "--no-rdma") {
      args->no_rdma = true;
    } else if (flag == "--compare") {
      args->compare = true;
    } else if (flag == "--trace") {
      args->trace_path = next();
    } else if (flag == "--faults") {
      args->faults = next();
    } else if (flag == "--step-report") {
      args->step_report = next();
    } else if (flag == "--iterations") {
      args->iterations = std::atoi(next());
    } else if (flag == "--chaos") {
      args->chaos = true;
      const std::string spec = next();
      const size_t colon = spec.find(':');
      args->chaos_seed = std::strtoull(spec.c_str(), nullptr, 10);
      if (colon != std::string::npos) {
        args->chaos_events = std::atoi(spec.c_str() + colon + 1);
      }
    } else if (flag == "--adaptive") {
      args->adaptive = true;
    } else if (flag == "--adaptive-codecs") {
      args->adaptive_codecs = next();
    } else if (flag == "--topology") {
      args->topology = next();
    } else if (flag == "--jobs") {
      args->jobs = std::atoi(next());
    } else if (flag == "--placement") {
      args->placement = next();
    } else if (flag == "--flight-record") {
      args->flight_record = next();
    } else if (flag == "--health-exit") {
      args->health_exit = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

bool ApplyTopology(const std::string& spec, NetworkConfig* net) {
  if (spec == "flat") {
    net->topology.kind = TopologyKind::kFlat;
    return true;
  }
  if (spec.rfind("fattree", 0) != 0) {
    return false;
  }
  net->topology.kind = TopologyKind::kFatTree;
  size_t colon = spec.find(':');
  if (colon != std::string::npos) {
    net->topology.oversubscription = std::atof(spec.c_str() + colon + 1);
    colon = spec.find(':', colon + 1);
    if (colon != std::string::npos) {
      net->topology.hosts_per_tor = std::atoi(spec.c_str() + colon + 1);
    }
  }
  return net->topology.oversubscription >= 1.0 &&
         net->topology.hosts_per_tor >= 1;
}

void PrintSchedulerHealth(MetricsRegistry& metrics) {
  std::printf(
      "  scheduler: %.0f events, %.2fM events/s, peak depth %.0f, "
      "%.0f pool miss(es)\n",
      metrics.gauge("sim.events_processed").value(),
      metrics.gauge("sim.events_per_wall_second").value() / 1e6,
      metrics.gauge("sim.queue_peak_depth").value(),
      metrics.gauge("sim.sched_pool_misses").value());
}

void PrintReport(const std::string& system, const TrainReport& report,
                 const ModelProfile& profile) {
  std::printf("%-14s %10.0f %s/s   eff %.3f   iter %7.2f ms   "
              "p50/p95/p99 %.2f/%.2f/%.2f ms   tail %6.2f ms   comm %4.1f%%\n",
              system.c_str(), report.throughput,
              profile.sample_unit.c_str(), report.scaling_efficiency,
              ToMillis(report.iteration_time), report.iteration_p50_ms,
              report.iteration_p95_ms, report.iteration_p99_ms,
              ToMillis(report.sync_tail), report.comm_ratio * 100.0);
  if (report.cp_attribution.total() > 0) {
    const CpAttribution& cp = report.cp_attribution;
    std::printf("  critical path: compute %.2f  encode %.2f  merge %.2f  "
                "send %.2f  recv %.2f  decode %.2f  wait %.2f ms\n",
                ToMillis(cp[CpCategory::kCompute]),
                ToMillis(cp[CpCategory::kEncode]),
                ToMillis(cp[CpCategory::kMerge]),
                ToMillis(cp[CpCategory::kSend]),
                ToMillis(cp[CpCategory::kRecv]),
                ToMillis(cp[CpCategory::kDecode]),
                ToMillis(cp[CpCategory::kWait]));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) {
    return 2;
  }

  ClusterSpec cluster = args.cluster == "local"
                            ? ClusterSpec::Local(args.nodes)
                            : ClusterSpec::Ec2(args.nodes);
  if (args.gbps > 0) {
    cluster.net.link_bandwidth = Bandwidth::Gbps(args.gbps);
  }
  if (!args.topology.empty() && !ApplyTopology(args.topology, &cluster.net)) {
    std::fprintf(stderr,
                 "--topology: expected flat or fattree[:RATIO[:HOSTS]] with "
                 "RATIO >= 1, got '%s'\n",
                 args.topology.c_str());
    return 2;
  }
  if (!args.faults.empty()) {
    auto faults = ParseFaultSpec(args.faults);
    if (!faults.ok()) {
      std::fprintf(stderr, "--faults: %s\n",
                   faults.status().ToString().c_str());
      return 2;
    }
    cluster.net.faults = *faults;
  }
  if (args.chaos) {
    ChaosOptions chaos;
    chaos.seed = args.chaos_seed;
    chaos.num_nodes = args.nodes;
    chaos.events = args.chaos_events;
    const FaultConfig schedule = MakeChaosSchedule(chaos);
    FaultConfig& faults = cluster.net.faults;
    faults.seed = schedule.seed;
    faults.crashes.insert(faults.crashes.end(), schedule.crashes.begin(),
                          schedule.crashes.end());
    faults.degradations.insert(faults.degradations.end(),
                               schedule.degradations.begin(),
                               schedule.degradations.end());
    faults.membership.insert(faults.membership.end(),
                             schedule.membership.begin(),
                             schedule.membership.end());
    faults.standby_nodes.insert(faults.standby_nodes.end(),
                                schedule.standby_nodes.begin(),
                                schedule.standby_nodes.end());
    std::printf("chaos: seed %llu, %zu crash(es), %zu membership event(s), "
                "%zu degradation window(s), %zu standby\n",
                static_cast<unsigned long long>(args.chaos_seed),
                schedule.crashes.size(), schedule.membership.size(),
                schedule.degradations.size(), schedule.standby_nodes.size());
  }
  CompressorParams params;
  params.bitwidth = args.bitwidth;
  params.sparsity_ratio = args.ratio;

  auto profile = GetModelProfile(args.model);
  if (!profile.ok()) {
    std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
    return 1;
  }
  std::printf("model %s (%s): %zu gradients, %s total, batch %d %s/GPU\n",
              args.model.c_str(), profile->framework.c_str(),
              profile->num_gradients(),
              HumanBytes(profile->total_bytes()).c_str(),
              profile->batch_per_gpu, profile->sample_unit.c_str());
  std::printf("cluster: %d nodes x %d GPUs (%s), %.0f Gbps", args.nodes,
              cluster.gpus_per_node,
              cluster.platform == GpuPlatform::kV100 ? "V100" : "1080Ti",
              cluster.net.link_bandwidth.bits_per_second / 1e9);
  if (cluster.net.topology.kind == TopologyKind::kFatTree) {
    std::printf(", fat tree %.1f:1 (%d hosts/rack)",
                cluster.net.topology.oversubscription,
                cluster.net.topology.hosts_per_tor);
  }
  std::printf("\n");
  if (!args.compare) {
    if (auto config = MakeSystemConfig(args.system, cluster, args.algorithm);
        config.ok()) {
      std::printf("%s", DescribeStrategy(*config, config->compression).c_str());
    }
  }
  std::printf("\n");

  if (args.jobs > 1) {
    if (args.compare) {
      std::fprintf(stderr, "--jobs and --compare are mutually exclusive\n");
      return 2;
    }
    ClusterJobsOptions copts;
    copts.cluster = cluster;
    copts.placement = args.placement == "packed" ? JobPlacement::kPacked
                                                 : JobPlacement::kStriped;
    copts.observability.flight_dump_path = args.flight_record;
    for (int k = 0; k < args.jobs; ++k) {
      ClusterJobSpec spec;
      spec.model = args.model;
      spec.system = args.system;
      spec.algorithm = args.algorithm;
      spec.codec_params = params;
      if (args.iterations > 0) {
        spec.iterations = args.iterations;
      }
      if (args.adaptive) {
        spec.adaptive.enabled = true;
        for (const std::string& name : Split(args.adaptive_codecs, ',')) {
          if (!name.empty()) {
            spec.adaptive.candidate_algorithms.push_back(name);
          }
        }
      }
      copts.jobs.push_back(spec);
    }
    auto run = RunClusterJobs(copts);
    if (!run.ok()) {
      std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
      return 1;
    }
    std::printf("%d jobs (%s placement), %d nodes each:\n", args.jobs,
                args.placement.c_str(),
                args.nodes / args.jobs);
    for (const ClusterJobReport& job : run->jobs) {
      std::printf(
          "%-8s %10.0f %s/s   iter %7.2f ms   send share %4.1f%%\n",
          job.name.c_str(), job.throughput, profile->sample_unit.c_str(),
          ToMillis(job.iteration_time), job.send_share * 100.0);
      if (job.adaptive.enabled) {
        std::printf("  adaptive: %d replan(s), %d codec switch(es), "
                    "final %s\n",
                    job.adaptive.replans, job.adaptive.codec_switches,
                    job.adaptive.final_algorithm.c_str());
      }
    }
    std::printf("sim: %.2f ms simulated in %.0f ms wall, fingerprint "
                "%016llx\n",
                ToMillis(run->sim_time), run->wall_seconds * 1e3,
                static_cast<unsigned long long>(run->replay_fingerprint));
    PrintSchedulerHealth(*run->metrics);
    std::printf("  %s\n", run->health.Summary().c_str());
    if (args.health_exit && !run->health.healthy()) {
      return 3;
    }
    return 0;
  }

  bool unhealthy = false;
  auto run_one = [&](const std::string& system) {
    HiPressOptions options;
    options.model = args.model;
    options.system = system;
    options.algorithm = args.algorithm;
    options.codec_params = params;
    options.cluster = cluster;
    options.disable_rdma =
        args.no_rdma ||
        (system.rfind("byteps", 0) == 0 &&
         cluster.platform == GpuPlatform::kV100);
    options.train.record_timeline = !args.trace_path.empty();
    options.train.observability.flight_dump_path = args.flight_record;
    if (args.iterations > 0) {
      options.train.iterations = args.iterations;
    }
    if (args.adaptive) {
      options.train.adaptive.enabled = true;
      for (const std::string& name : Split(args.adaptive_codecs, ',')) {
        if (!name.empty()) {
          options.train.adaptive.candidate_algorithms.push_back(name);
        }
      }
    }
    auto result = RunTrainingSimulation(options);
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", system.c_str(),
                   result.status().ToString().c_str());
      std::exit(1);
    }
    PrintReport(system, result->report, *profile);
    const TrainReport& report = result->report;
    if (!args.compare) {
      PrintSchedulerHealth(*report.metrics);
      std::printf("  %s\n", report.health.Summary().c_str());
    }
    unhealthy = unhealthy || !report.health.healthy();
    if (args.adaptive && report.adaptive.enabled) {
      std::printf("  adaptive: %d replan(s), %d codec switch(es), final %s\n",
                  report.adaptive.replans, report.adaptive.codec_switches,
                  report.adaptive.final_algorithm.c_str());
      std::printf("%s", report.adaptive.decision_log.c_str());
    }
    if (!args.faults.empty() || args.chaos) {
      std::printf(
          "  faults: %llu drops, %llu retries, %s retransmitted, "
          "%llu recoveries (%.2f ms)\n",
          static_cast<unsigned long long>(
              report.metrics->counter("net.drops").value()),
          static_cast<unsigned long long>(
              report.metrics->counter("net.retries").value()),
          HumanBytes(report.metrics->counter("net.retransmit_bytes").value())
              .c_str(),
          static_cast<unsigned long long>(report.recoveries),
          ToMillis(report.recovery_time));
      if (report.degraded) {
        std::string failed;
        for (const int node : report.failed_nodes) {
          failed += (failed.empty() ? "" : ",") + std::to_string(node);
        }
        std::printf("  degraded: node(s) %s failed, %d/%d surviving\n",
                    failed.c_str(), report.surviving_nodes, args.nodes);
      }
      if (report.membership.enabled) {
        const MembershipReport& membership = report.membership;
        std::string members;
        for (const int node : membership.final_members) {
          members += (members.empty() ? "" : ",") + std::to_string(node);
        }
        std::printf(
            "  membership: epoch %llu, members [%s], %llu join(s) "
            "%llu leave(s) %llu crash(es) %llu rejoin(s), %llu resync(s) "
            "(%s, %.2f ms), state %s, fingerprint %016llx\n",
            static_cast<unsigned long long>(membership.final_epoch),
            members.c_str(),
            static_cast<unsigned long long>(membership.joins),
            static_cast<unsigned long long>(membership.leaves),
            static_cast<unsigned long long>(membership.crashes),
            static_cast<unsigned long long>(membership.rejoins),
            static_cast<unsigned long long>(membership.resyncs),
            HumanBytes(membership.resync_bytes).c_str(),
            ToMillis(membership.resync_time),
            membership.state_consistent ? "consistent" : "DIVERGED",
            static_cast<unsigned long long>(membership.model_fingerprint));
        std::printf("%s", membership.event_log.c_str());
      }
    }
    if (!args.step_report.empty() && !args.compare) {
      auto status = WriteStepReport(args.step_report, report.steps);
      if (status.ok()) {
        std::printf("wrote %s (%zu iteration records)\n",
                    args.step_report.c_str(), report.steps.size());
      } else {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
      }
    }
    if (!args.trace_path.empty() && !args.compare) {
      // Merged cluster trace: per-node GPU kernel rows plus the
      // network-transfer and coordinator-round spans.
      auto status = WriteTrainReportTrace(args.trace_path, result->report);
      if (status.ok()) {
        std::printf("wrote %s (open in chrome://tracing or ui.perfetto.dev)\n",
                    args.trace_path.c_str());
      } else {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
      }
    }
  };

  if (args.compare) {
    for (const char* system : {"byteps", "ring", "byteps-oss", "ring-oss",
                               "hipress-ps", "hipress-ring"}) {
      run_one(system);
    }
  } else {
    run_one(args.system);
  }
  if (args.health_exit && unhealthy) {
    return 3;
  }
  return 0;
}
