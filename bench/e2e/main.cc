// bench_e2e — end-to-end benchmark of the simulator and the real-bytes
// trainer, one workload per process (README.md in this directory).
//
//   bench_e2e --workload W [--seed S] [--seconds N] [--trace] [--smoke]
//             [--result-out FILE] [--trace-out FILE] [--commit SHA]
//
// Closed loop, one client. Set-up runs once, then one untimed warm-up
// repetition, then kSetupSamples timed set-up samples (setup_s is their
// median), then timed repetitions back to back until --seconds have passed.
// Untraced, the run reports the end-to-end metrics. With --trace it
// alternates untraced and traced repetitions, reports the per-layer metrics
// from the traced ones (spans recorded by this benchmark around every call
// into the program) and the tracing overhead, and writes the spans as a
// Chrome trace.
//
// The result record (--result-out) holds every metric the run computed, by
// name, with its median, quartiles and sample count. It has no units:
// report.py takes the declared names and units from BENCHMARK.json, checks
// the record against them and prints the result. The exit code is non-zero
// when any run or check failed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/spans.h"
#include "bench/e2e/workloads.h"
#include "src/common/simd.h"

#ifndef HIPRESS_BENCH_COMPILER
#define HIPRESS_BENCH_COMPILER "unknown"
#endif
#ifndef HIPRESS_BENCH_BUILD_TYPE
#define HIPRESS_BENCH_BUILD_TYPE "unknown"
#endif

namespace bench_e2e {
namespace {

constexpr int kSetupSamples = 15;
// Set-up of the simulator workloads takes microseconds. Each sample repeats
// Setup() until this much time has passed and takes the mean, so neither
// the clock's resolution nor a single stall decides a sample.
constexpr double kSetupSampleSeconds = 0.002;

// Host-speed probe (README.md, "Host-speed normalization"). Shared hosts
// drift by 10-30% over minutes as neighbours load the cores and memory, far
// more than the bounds in BENCHMARK.json. Between every two repetitions the
// benchmark times a fixed probe that stresses what the workloads are bound
// by: a dependent multiply chain (core clock), independent random reads and
// a dependent pointer chase over a 32 MiB buffer (memory throughput and
// latency), and a vectorizable multiply-add over an L1-resident array
// (execution throughput: bursts of interference that slow the workloads by
// up to 2x slow it as much, and the dependent chain barely at all). Host
// times are then scaled to a host that runs the probe in
// kProbeNominalSeconds. The probe is this benchmark's own code, so no
// change to the program can move it.
class HostProbe {
 public:
  static constexpr size_t kEntries = size_t{8} << 20;  // 32 MiB of uint32
  // The probe's median on the reference host (a 4-vCPU Intel Xeon VM).
  static constexpr double kProbeNominalSeconds = 0.14;
  // The probe's arrays are L1-resident (16 KiB each).
  static constexpr size_t kLanes = 4096;

  HostProbe() : next_(kEntries), x_(kLanes, 1.0f), y_(kLanes, 0.0f) {
    // Sattolo's shuffle: one cycle through every entry, so the chase never
    // settles into a short, cache-resident loop.
    for (size_t i = 0; i < kEntries; ++i) {
      next_[i] = static_cast<uint32_t>(i);
    }
    uint64_t state = 0x2545f4914f6cdd1dULL;
    for (size_t i = kEntries - 1; i > 0; --i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(next_[i], next_[(state >> 33) % i]);
    }
  }

  // Runs the probe once; returns its host seconds.
  double Run() {
    const Clock::time_point start = Clock::now();
    uint64_t x = 1;
    for (int i = 0; i < 30000000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    uint64_t sum = 0;
    uint64_t index = x;
    for (int i = 0; i < 1000000; ++i) {
      index = index * 6364136223846793005ULL + 1;
      sum += next_[(index >> 33) % kEntries];
    }
    uint32_t at = static_cast<uint32_t>(x % kEntries);
    for (int i = 0; i < 300000; ++i) {
      at = next_[at];
    }
    for (int r = 0; r < 100000; ++r) {
      for (size_t i = 0; i < kLanes; ++i) {
        y_[i] = y_[i] * 0.999f + x_[i];
      }
    }
    // Keeps every loop live.
    sink_ = sum + at + static_cast<uint64_t>(y_[at % kLanes]);
    return std::chrono::duration<double>(Clock::now() - start).count();
  }

  static double BufferMiB() {
    return static_cast<double>(kEntries * sizeof(uint32_t)) / (1024.0 * 1024.0);
  }

 private:
  std::vector<uint32_t> next_;
  std::vector<float> x_;
  std::vector<float> y_;
  volatile uint64_t sink_ = 0;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string result_out;
  std::string trace_out;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      args->seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      args->trace = true;
    } else if (arg == "--smoke") {
      args->smoke = true;
    } else if (arg == "--result-out" && has_value) {
      args->result_out = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      args->trace_out = argv[++i];
    } else if (arg == "--commit" && has_value) {
      args->commit = argv[++i];
    } else {
      std::fprintf(stderr, "bench_e2e: unknown or incomplete argument %s\n",
                   arg.c_str());
      return false;
    }
  }
  return !args->workload.empty() && args->seconds >= 0.0;
}

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

struct Summary {
  double value = 0.0;  // median
  double p25 = 0.0;
  double p75 = 0.0;
  size_t n = 0;
};

Summary Summarize(const std::vector<double>& samples) {
  return Summary{Quantile(samples, 0.5), Quantile(samples, 0.25),
                 Quantile(samples, 0.75), samples.size()};
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Get(const std::map<std::string, double>& map, const std::string& key) {
  const auto it = map.find(key);
  return it == map.end() ? 0.0 : it->second;
}

// Runs and failures over every repetition, warm-up included. Each
// repetition must reproduce the first one's replay fingerprint and quality
// values bit for bit, traced or not.
struct Ledger {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;
  bool have_reference = false;
  RepResult reference;

  void Record(const RepResult& rep, int rep_id, bool traced) {
    attempted += rep.attempted;
    failed += rep.failed;
    errors.insert(errors.end(), rep.errors.begin(), rep.errors.end());
    if (rep.failed > 0) {
      return;
    }
    const std::string label = "repetition " + std::to_string(rep_id) +
                              (traced ? " (traced)" : "");
    if (!(rep.scaling_eff_gmean > 0.0) || !(rep.final_loss > 0.0)) {
      ++failed;
      errors.push_back(label + ": a quality value is not positive");
    } else if (!have_reference) {
      have_reference = true;
      reference = rep;
    } else if (rep.fingerprint != reference.fingerprint ||
               rep.scaling_eff_gmean != reference.scaling_eff_gmean ||
               rep.final_loss != reference.final_loss) {
      ++failed;
      errors.push_back(label +
                       ": fingerprint or quality differs from the first");
    }
  }
};

void AppendJsonNumber(std::string* out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  *out += buf;
}

// {"name": {"value": v, "p25": .., "p75": .., "n": ..}, ...}
std::string MetricsJson(const std::map<std::string, Summary>& metrics) {
  std::string out = "{";
  for (const auto& [name, s] : metrics) {
    out += out.size() == 1 ? "\"" : ", \"";
    out += name + "\": {\"value\": ";
    AppendJsonNumber(&out, s.value);
    out += ", \"p25\": ";
    AppendJsonNumber(&out, s.p25);
    out += ", \"p75\": ";
    AppendJsonNumber(&out, s.p75);
    out += ", \"n\": " + std::to_string(s.n) + "}";
  }
  return out + "}";
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void PrintSummary(const char* name, const Summary& s) {
  std::printf("%-24s %.6g  (p25 %.6g, p75 %.6g, n=%zu)\n", name, s.value,
              s.p25, s.p75, s.n);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload W [--seed S] [--seconds N] "
                 "[--trace] [--smoke] [--result-out FILE] "
                 "[--trace-out FILE] [--commit SHA]\n");
    return 2;
  }
  WorkloadOptions options;
  options.seed = args.seed;
  options.smoke = args.smoke;
  auto made = MakeWorkload(args.workload, options);
  if (!made.ok()) {
    std::fprintf(stderr, "bench_e2e: %s\n", made.status().ToString().c_str());
    return 2;
  }
  Workload& workload = **made;

  const std::string host =
      "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"simd_tier\": " +
      JsonString(std::string(hipress::SimdTierName(hipress::ActiveSimdTier()))) +
      ", \"compiler\": " + JsonString(HIPRESS_BENCH_COMPILER) +
      ", \"build_type\": " + JsonString(HIPRESS_BENCH_BUILD_TYPE) +
      ", \"commit\": " + JsonString(args.commit) + "}";
  std::printf("bench_e2e workload=%s seed=%llu seconds=%g trace=%d smoke=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.smoke ? 1 : 0);
  std::printf("host %s\n", host.c_str());

  HostProbe probe;
  Tracer tracer;
  Tracer* traced = args.trace ? &tracer : nullptr;
  Ledger ledger;
  int rep_id = 0;
  // One repetition: returns its raw iterations per host second.
  auto repetition = [&](bool trace_this, RepResult* out) {
    tracer.set_rep(rep_id);
    const Clock::time_point start = Clock::now();
    RepResult rep = workload.Run(trace_this ? traced : nullptr);
    const double wall = Seconds(start);
    ledger.Record(rep, rep_id, trace_this);
    ++rep_id;
    const double ips = wall > 0 ? rep.iterations / wall : 0.0;
    *out = std::move(rep);
    return ips;
  };

  // The first set-up builds the inputs for the warm-up repetition, which
  // lets caches fill and lazy initialization (thread pool, codec registry,
  // pools) finish before anything is timed.
  hipress::Status status = workload.Setup(nullptr);
  RepResult rep;
  if (status.ok() && !args.smoke) {
    repetition(/*trace_this=*/false, &rep);
  }

  // Timed set-up; each Setup() rebuilds every input from scratch.
  std::vector<double> setup_raw;
  std::vector<double> profile_samples;
  std::vector<double> config_samples;
  double probe_before = probe.Run();
  for (int k = 0; k < kSetupSamples && status.ok(); ++k) {
    const int setup_id = -1 - k;
    tracer.set_rep(setup_id);
    int calls = 0;
    const Clock::time_point start = Clock::now();
    do {
      status = workload.Setup(traced);
      ++calls;
    } while (status.ok() && Seconds(start) < kSetupSampleSeconds);
    setup_raw.push_back(Seconds(start) / calls);
    const LayerTimes times = tracer.Times(setup_id);
    profile_samples.push_back(Get(times.total_s, "GetModelProfile") / calls);
    config_samples.push_back(Get(times.total_s, "MakeSystemConfig") / calls);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "bench_e2e: set-up failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  double probe_after = probe.Run();
  std::vector<double> probe_samples = {probe_before, probe_after};
  const double setup_scale =
      HostProbe::kProbeNominalSeconds / ((probe_before + probe_after) / 2);
  std::vector<double> setup_samples;
  for (const double raw : setup_raw) {
    setup_samples.push_back(raw * setup_scale);
  }

  // Timed repetitions, each scaled by the probes taken on either side.
  std::vector<double> untraced_ips;
  std::vector<double> untraced_raw_ips;
  std::vector<double> traced_ips;
  std::vector<double> scaling_eff;
  std::vector<double> final_loss;
  std::map<std::string, std::vector<double>> layer_samples;
  uint64_t peak_depth = 0;
  const Clock::time_point loop_start = Clock::now();
  probe_before = probe_after;
  do {
    for (const bool trace_this : {false, true}) {
      if (trace_this && !args.trace) {
        continue;
      }
      const double raw_ips = repetition(trace_this, &rep);
      probe_after = probe.Run();
      probe_samples.push_back(probe_after);
      const double ips = raw_ips * (probe_before + probe_after) / 2 /
                         HostProbe::kProbeNominalSeconds;
      probe_before = probe_after;
      peak_depth = std::max(peak_depth, static_cast<uint64_t>(Get(
                                            rep.layer, "sim.queue_peak_depth")));
      if (trace_this) {
        traced_ips.push_back(ips);
        for (const auto& [name, value] : rep.layer) {
          layer_samples[name].push_back(value);
        }
      } else {
        untraced_ips.push_back(ips);
        untraced_raw_ips.push_back(raw_ips);
        scaling_eff.push_back(rep.scaling_eff_gmean);
        final_loss.push_back(rep.final_loss);
      }
    }
  } while (!args.smoke && Seconds(loop_start) < args.seconds);
  const double measured_s = Seconds(loop_start);

  const Summary raw_ips = Summarize(untraced_raw_ips);
  const Summary raw_setup = Summarize(setup_raw);
  const Summary probe_s = Summarize(probe_samples);
  std::printf("measured %.2f s: %zu untraced and %zu traced repetitions\n",
              measured_s, untraced_ips.size(), traced_ips.size());
  std::printf("host probe %.6g s (p25 %.6g, p75 %.6g, n=%zu; nominal %g s)\n",
              probe_s.value, probe_s.p25, probe_s.p75, probe_s.n,
              HostProbe::kProbeNominalSeconds);
  PrintSummary("raw iters_per_s", raw_ips);
  PrintSummary("raw setup_s", raw_setup);

  // Names as in BENCHMARK.json: end-to-end metrics untraced, per-layer
  // metrics traced. Per-layer metrics a workload does not exercise are
  // absent here and read 0 in the result.
  std::map<std::string, Summary> metrics;
  if (args.trace) {
    for (const auto& [name, samples] : layer_samples) {
      metrics[name] = Summarize(samples);
    }
    metrics["models.profile_s"] = Summarize(profile_samples);
    metrics["strategies.config_s"] = Summarize(config_samples);
    // The scheduler alone at the workload's peak depth; the rest of the
    // per-event cost is the callbacks (engine, network, trainer).
    tracer.set_rep(rep_id);
    const double isolated = IsolatedNsPerEvent(
        peak_depth, args.smoke ? 200000 : 2000000, traced);
    metrics["sim.isolated_ns_per_event"] = Summarize({isolated});
    const double per_event = metrics["sim.ns_per_event"].value;
    metrics["sim.callback_ns_per_event"] =
        Summarize({per_event > 0 ? per_event - isolated : 0.0});
    const double untraced = Quantile(untraced_ips, 0.5);
    metrics["bench.trace_overhead"] = Summarize(
        {untraced > 0 ? 1.0 - Quantile(traced_ips, 0.5) / untraced : 0.0});

    // Host time per span name in the first timed traced repetition.
    const int first_traced = args.smoke ? 1 : 2;
    std::printf("-- spans, repetition %d: total / self s --\n", first_traced);
    const LayerTimes times = tracer.Times(first_traced);
    for (const auto& [name, total] : times.total_s) {
      std::printf("%-36s %.6f / %.6f  (x%llu)\n", name.c_str(), total,
                  times.self_s.at(name),
                  static_cast<unsigned long long>(times.count.at(name)));
    }
    if (!args.trace_out.empty()) {
      const hipress::Status written = tracer.WriteChromeTrace(args.trace_out);
      if (!written.ok()) {
        ledger.errors.push_back(written.ToString());
        ++ledger.failed;
      }
    }
  } else {
    metrics["iters_per_s"] = Summarize(untraced_ips);
    metrics["setup_s"] = Summarize(setup_samples);
    // The probe's buffer is the benchmark's, not the program's.
    metrics["peak_rss_mb"] = Summarize({PeakRssMiB() - HostProbe::BufferMiB()});
    metrics["scaling_eff_gmean"] = Summarize(scaling_eff);
    metrics["final_loss"] = Summarize(final_loss);
  }
  for (const std::string& error : ledger.errors) {
    std::printf("FAILED %s\n", error.c_str());
  }
  const int passed = ledger.attempted - ledger.failed;
  if (!args.trace) {
    metrics["pass_frac"] = Summarize(
        {ledger.attempted > 0 ? static_cast<double>(std::max(passed, 0)) /
                                    ledger.attempted
                              : 0.0});
  }

  const bool correct = ledger.failed == 0 && ledger.attempted > 0;
  if (!args.result_out.empty()) {
    std::string errors_json = "[";
    for (size_t i = 0; i < ledger.errors.size(); ++i) {
      errors_json += (i == 0 ? "" : ", ") + JsonString(ledger.errors[i]);
    }
    errors_json += "]";
    const std::map<std::string, Summary> raw = {
        {"iters_per_s", raw_ips}, {"setup_s", raw_setup}, {"probe_s", probe_s}};
    char seconds[32];
    std::snprintf(seconds, sizeof(seconds), "%g", args.seconds);
    const std::string record =
        std::string("{\"correct\": ") + (correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(ledger.attempted) +
        ", \"failed\": " + std::to_string(ledger.failed) +
        ", \"metrics\": " + MetricsJson(metrics) +
        ", \"raw\": " + MetricsJson(raw) +
        ", \"workload\": " + JsonString(args.workload) +
        ", \"seed\": " + std::to_string(args.seed) +
        ", \"seconds\": " + seconds +
        ", \"trace\": " + (args.trace ? "true" : "false") +
        ", \"smoke\": " + (args.smoke ? "true" : "false") +
        ", \"host\": " + host + ", \"errors\": " + errors_json + "}\n";
    FILE* file = std::fopen(args.result_out.c_str(), "w");
    const bool wrote = file != nullptr && std::fputs(record.c_str(), file) >= 0;
    if (file == nullptr || std::fclose(file) != 0 || !wrote) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n",
                   args.result_out.c_str());
      return 1;
    }
  }
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace bench_e2e

int main(int argc, char** argv) { return bench_e2e::Main(argc, argv); }
