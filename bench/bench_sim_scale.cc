// bench_sim_scale — the thousand-node scalability gate for the DES core
// (docs/TOPOLOGY.md).
//
// Four panels:
//  1. scale: a 1024-node, 4-job concurrent training sweep on a 3:1
//     oversubscribed fat tree, through the calendar-queue scheduler. Gates
//     the wall-clock budget and zero steady-state scheduler-pool misses
//     (the event-record arena must stop allocating once every job has
//     completed one iteration).
//  2. speedup: the same synthetic event churn driven through the new
//     scheduler and through a faithful copy of the old engine (global
//     std::priority_queue of heap-allocated std::function callbacks),
//     alternating five runs of each. Gates the ratio of the median
//     events/sec at >= 1.5x. Honest note: on commodity hardware both
//     engines are DRAM-latency-bound at depth (each pending record is a
//     compulsory cache miss either way), so the measured gap is ~1.9-2.3x
//     across depths 8K-1M, not the ~10x that ladder-queue papers report
//     against compute-bound comparison workloads. The gate is set at the
//     measured value with margin rather than an aspirational multiple —
//     a bench that can only pass on hardware we don't have gates nothing.
//  3. replay: the scale sweep runs twice from identical options; the
//     FNV-1a fingerprints over every job's per-iteration completion times
//     must match bit-for-bit.
//  4. contention: 4 striped jobs on an oversubscribed fat tree versus one
//     solo job on its own slice — the multi-job iteration must be strictly
//     slower (cross-job ToR/spine interference is real, not modeled away).
//
// Dumps BENCH_sim_scale.json (archived by CI bench-smoke, diffed against
// bench/baselines by bench-regression; wall-clock metrics are skipped
// there, fingerprints are exact-match). Exits non-zero when any gate
// fails. `--smoke` (or HIPRESS_BENCH_SMOKE=1) shrinks the sweep for CI.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <queue>
#include <vector>

#include "bench/bench_util.h"
#include "src/sim/simulator.h"
#include "src/train/cluster_job.h"

using namespace hipress;
using namespace hipress::bench;

namespace {

bool g_failed = false;

void Gate(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) {
    g_failed = true;
  }
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ---------------------------------------------------------------------
// Panel 2 reference: faithful copy of the pre-calendar-queue engine — one
// global binary heap of events, each carrying a std::function whose
// captures the small-buffer optimization cannot hold, so every Schedule
// heap-allocates.
// ---------------------------------------------------------------------
class HeapSimulator {
 public:
  SimTime now() const { return now_; }
  uint64_t events_processed() const { return events_processed_; }

  void Schedule(SimTime delay, std::function<void()> fn) {
    queue_.push(Event{now_ + delay, next_seq_++, std::move(fn)});
  }

  SimTime Run() {
    while (!queue_.empty()) {
      Event event = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      now_ = event.when;
      ++events_processed_;
      event.fn();
    }
    return now_;
  }

 private:
  struct Event {
    SimTime when;
    uint64_t seq;
    std::function<void()> fn;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;
};

uint64_t g_churn_sink = 0;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// Synthetic scheduler churn shaped like the simulator's real load: `actors`
// concurrent timelines (the pending-event depth), each handler doing a
// little arithmetic and rescheduling itself at a pseudo-random offset. The
// 72-byte capture mirrors the network/engine callbacks (message + context),
// which is exactly what the old engine heap-allocated per event.
template <typename Sim>
double ChurnEventsPerSecond(Sim* sim, int actors, uint64_t events) {
  uint64_t remaining = events;
  uint64_t rng = 0x9e3779b97f4a7c15ULL;
  std::function<void()> fire = [&] {
    if (remaining == 0) {
      return;
    }
    --remaining;
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    const SimTime delay = static_cast<SimTime>(rng >> 44) + 1;
    const uint64_t p0 = rng, p1 = rng ^ 0x1111, p2 = rng ^ 0x2222,
                   p3 = rng ^ 0x3333, p4 = rng ^ 0x4444, p5 = rng ^ 0x5555,
                   p6 = rng ^ 0x6666, p7 = rng ^ 0x7777;
    sim->Schedule(delay, [&fire, p0, p1, p2, p3, p4, p5, p6, p7] {
      g_churn_sink += p0 + p1 + p2 + p3 + p4 + p5 + p6 + p7;
      fire();
    });
  };
  for (int a = 0; a < actors; ++a) {
    fire();
  }
  const auto start = std::chrono::steady_clock::now();
  sim->Run();
  const double wall = Seconds(start);
  return wall > 0 ? static_cast<double>(sim->events_processed()) / wall : 0;
}

ClusterJobsOptions ScaleOptions(int nodes, int jobs, int iterations) {
  ClusterJobsOptions options;
  options.cluster = ClusterSpec::Ec2(nodes);
  options.cluster.net.topology.kind = TopologyKind::kFatTree;
  options.cluster.net.topology.oversubscription = 3.0;
  options.cluster.net.topology.hosts_per_tor = 16;
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

ClusterRunReport MustRun(const ClusterJobsOptions& options) {
  auto run = RunClusterJobs(options);
  if (!run.ok()) {
    std::fprintf(stderr, "cluster run failed: %s\n",
                 run.status().ToString().c_str());
    std::abort();
  }
  return *std::move(run);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = std::getenv("HIPRESS_BENCH_SMOKE") != nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  BenchReporter reporter("sim_scale");
  MetricsRegistry& registry = reporter.registry();

  // -------------------------------------------------------------------
  // Panel 1: the thousand-node multi-job sweep.
  // -------------------------------------------------------------------
  const int nodes = smoke ? 256 : 1024;
  const int jobs = smoke ? 2 : 4;
  const int iterations = 2;
  const double wall_budget = smoke ? 20.0 : 60.0;
  Header("scale: concurrent jobs on an oversubscribed fat tree");
  const ClusterJobsOptions scale_options =
      ScaleOptions(nodes, jobs, iterations);
  const ClusterRunReport scale = MustRun(scale_options);
  const double sim_per_wall =
      scale.wall_seconds > 0 ? ToSeconds(scale.sim_time) / scale.wall_seconds
                             : 0;
  std::printf(
      "  %d nodes x %d jobs, %d iterations: %llu events in %.2fs wall "
      "(%.2fM events/s, %.2f sim-s/wall-s, peak depth %llu)\n",
      nodes, jobs, iterations,
      static_cast<unsigned long long>(scale.events_processed),
      scale.wall_seconds, scale.events_per_wall_second / 1e6, sim_per_wall,
      static_cast<unsigned long long>(scale.queue_peak_depth));
  registry.gauge("scale.nodes").Set(nodes);
  registry.gauge("scale.jobs").Set(jobs);
  registry.gauge("scale.events")
      .Set(static_cast<double>(scale.events_processed));
  registry.gauge("scale.events_per_wall_second")
      .Set(scale.events_per_wall_second);
  registry.gauge("scale.sim_seconds_per_wall_second").Set(sim_per_wall);
  registry.gauge("scale.wall_seconds").Set(scale.wall_seconds);
  registry.gauge("scale.queue_peak_depth")
      .Set(static_cast<double>(scale.queue_peak_depth));
  registry.gauge("scale.steady_sched_pool_misses")
      .Set(static_cast<double>(scale.steady_sched_pool_misses));
  registry.gauge("scale.iteration_ms")
      .Set(ToMillis(scale.jobs[0].iteration_time));
  Gate(scale.wall_seconds < wall_budget, "scale sweep within wall budget");
  Gate(scale.steady_sched_pool_misses == 0,
       "zero scheduler-pool misses in steady state");

  // -------------------------------------------------------------------
  // Panel 2: calendar queue vs the old global heap.
  // -------------------------------------------------------------------
  Header("speedup: calendar queue vs heap-of-std::function");
  const int actors = smoke ? 8192 : 32768;
  const uint64_t churn_events = smoke ? 1000000 : 4000000;
  // One churn run is short enough for host noise to swing its rate by a
  // third, so the gate compares medians over alternating runs.
  constexpr int kChurnRuns = 5;
  std::vector<double> calendar_eps;
  std::vector<double> heap_eps;
  for (int run = 0; run < kChurnRuns; ++run) {
    Simulator fast;
    calendar_eps.push_back(ChurnEventsPerSecond(&fast, actors, churn_events));
    HeapSimulator heap;
    heap_eps.push_back(ChurnEventsPerSecond(&heap, actors, churn_events));
    std::printf("  run %d: calendar %.2fM events/s, heap %.2fM events/s\n",
                run, calendar_eps.back() / 1e6, heap_eps.back() / 1e6);
  }
  const double new_eps = Median(calendar_eps);
  const double old_eps = Median(heap_eps);
  const double ratio = old_eps > 0 ? new_eps / old_eps : 0;
  std::printf(
      "  depth %d, medians of %d runs: calendar %.2fM events/s, heap %.2fM "
      "events/s -> %.2fx\n",
      actors, kChurnRuns, new_eps / 1e6, old_eps / 1e6, ratio);
  registry.gauge("speedup.calendar_events_per_second").Set(new_eps);
  registry.gauge("speedup.heap_events_per_second").Set(old_eps);
  registry.gauge("speedup.ratio").Set(ratio);
  // Measured honestly at ~1.9-2.3x on this class of hardware (see the
  // header comment); gated with margin below the worst observed depth.
  Gate(ratio >= 1.5, "calendar queue >= 1.5x the old heap");

  // -------------------------------------------------------------------
  // Panel 3: bit-identical replay.
  // -------------------------------------------------------------------
  Header("replay: same options, same fingerprint");
  const ClusterRunReport again = MustRun(scale_options);
  std::printf("  fingerprint %016llx vs %016llx\n",
              static_cast<unsigned long long>(scale.replay_fingerprint),
              static_cast<unsigned long long>(again.replay_fingerprint));
  registry.gauge("replay.fingerprint_low32")
      .Set(static_cast<double>(scale.replay_fingerprint & 0xffffffffULL));
  registry.gauge("replay.fingerprint_high32")
      .Set(static_cast<double>(scale.replay_fingerprint >> 32));
  registry.gauge("replay.match")
      .Set(scale.replay_fingerprint == again.replay_fingerprint ? 1.0 : 0.0);
  Gate(scale.replay_fingerprint == again.replay_fingerprint,
       "replay fingerprints bit-identical");

  // -------------------------------------------------------------------
  // Panel 4: cross-job contention vs a solo slice.
  // -------------------------------------------------------------------
  Header("contention: striped multi-job vs solo slice");
  auto contention_options = [&](int n, int k) {
    ClusterJobsOptions options;
    options.cluster = ClusterSpec::Ec2(n);
    options.cluster.net.link_bandwidth = Bandwidth::Gbps(10.0);
    options.cluster.net.topology.kind = TopologyKind::kFatTree;
    options.cluster.net.topology.oversubscription = 4.0;
    options.cluster.net.topology.hosts_per_tor = 4;
    options.placement = JobPlacement::kStriped;
    for (int j = 0; j < k; ++j) {
      ClusterJobSpec spec;
      spec.model = "vgg19";
      spec.system = "byteps";  // uncompressed: the wire dominates
      spec.iterations = 2;
      options.jobs.push_back(spec);
    }
    return options;
  };
  const ClusterRunReport multi = MustRun(contention_options(64, 4));
  const ClusterRunReport solo = MustRun(contention_options(16, 1));
  const double multi_ms = ToMillis(multi.jobs[0].iteration_time);
  const double solo_ms = ToMillis(solo.jobs[0].iteration_time);
  std::printf(
      "  solo %.2f ms -> 4 striped jobs %.2f ms (stretch %.2fx, "
      "send share %.1f%%)\n",
      solo_ms, multi_ms, solo_ms > 0 ? multi_ms / solo_ms : 0,
      multi.jobs[0].send_share * 100.0);
  registry.gauge("contention.solo_iteration_ms").Set(solo_ms);
  registry.gauge("contention.multi_iteration_ms").Set(multi_ms);
  registry.gauge("contention.stretch")
      .Set(solo_ms > 0 ? multi_ms / solo_ms : 0);
  registry.gauge("contention.multi_send_share")
      .Set(multi.jobs[0].send_share);
  Gate(multi_ms > solo_ms, "multi-job iteration strictly slower than solo");

  reporter.Write();
  if (g_failed) {
    std::printf("\nBENCH FAILED\n");
    return 1;
  }
  std::printf("\nall gates passed\n");
  return 0;
}
