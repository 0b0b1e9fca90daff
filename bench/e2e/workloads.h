// The four bench_e2e workloads (README.md explains why each was chosen).
//
//   paper-grid        Fig. 7/8 model x system x node-count grid through
//                     SimulateTraining: many short cells, shallow queues.
//   fattree-multijob  RunClusterJobs on a 256-node oversubscribed fat tree:
//                     one deep-queue run, scheduler/topology bound.
//   lossy-elastic     SimulateTraining under message loss and a chaos
//                     membership schedule: retransmits, re-syncs, recovery.
//   real-dp           DistTrainer on real bytes with three codecs and an
//                     uncompressed baseline: the only workload that runs the
//                     codec kernels, DataflowRunner and BufferPool.
//
// Every number a workload reports comes from a call into a public function
// of the program or from a counter the program already exports.
#ifndef HIPRESS_BENCH_E2E_WORKLOADS_H_
#define HIPRESS_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/e2e/spans.h"
#include "src/common/status.h"

namespace bench_e2e {

// The value a workload reports for a quality metric it has no such quantity
// for: scaling efficiency on real-dp, which has no simulated clock, and
// final loss on the simulator workloads, which train no model. Every
// end-to-end metric is reported on every workload and must not read 0.
constexpr double kNotApplicable = 1.0;

// What one repetition produced.
struct RepResult {
  // Simulated BSP iterations summed over cells and jobs, or real SGD steps.
  double iterations = 0.0;
  // Geometric mean of the per-cell / per-job / per-iteration simulated
  // scaling efficiency. Deterministic for a fixed seed.
  double scaling_eff_gmean = kNotApplicable;
  // Mean over the real-dp arms of the final model's cross-entropy (nats) on
  // a held-out batch. Deterministic for a fixed seed.
  double final_loss = kNotApplicable;
  // FNV-1a over the repetition's deterministic outputs (simulated times,
  // membership logs, model fingerprints, losses); equal across repetitions.
  uint64_t fingerprint = 0;
  // Runs (cells, cluster runs, training arms) attempted and failed; a run
  // fails when the call returns an error or one of its checks fails.
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;
  // Per-layer values read from the program's reports and counters, keyed
  // by the per_layer names in BENCHMARK.json.
  std::map<std::string, double> layer;
};

struct WorkloadOptions {
  uint64_t seed = 1;
  bool smoke = false;  // reduced sizes for a quick end-to-end check
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds every input a repetition uses (model profiles, system configs,
  // cluster, fault and trainer options, held-out data) from the seed.
  // Called many times per process to time set-up; each call starts from
  // scratch.
  virtual hipress::Status Setup(Tracer* tracer) = 0;

  // One closed-loop repetition over the inputs from the last Setup. Spans
  // go around every call into the program when `tracer` is non-null.
  virtual RepResult Run(Tracer* tracer) = 0;
};

hipress::StatusOr<std::unique_ptr<Workload>> MakeWorkload(
    const std::string& name, const WorkloadOptions& options);

// Host ns per event of synthetic churn driven through Simulator::Schedule
// and Simulator::Run with `depth` events pending: the scheduler alone, with
// callbacks that do almost nothing.
double IsolatedNsPerEvent(uint64_t depth, uint64_t events, Tracer* tracer);

}  // namespace bench_e2e

#endif  // HIPRESS_BENCH_E2E_WORKLOADS_H_
