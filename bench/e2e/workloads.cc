#include "bench/e2e/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <string_view>
#include <utility>

#include "src/casync/critical_path.h"
#include "src/common/rng.h"
#include "src/common/string_util.h"
#include "src/compress/registry.h"
#include "src/minidnn/dist_trainer.h"
#include "src/minidnn/mlp.h"
#include "src/models/model_profile.h"
#include "src/net/fault.h"
#include "src/sim/simulator.h"
#include "src/strategies/presets.h"
#include "src/train/cluster_job.h"
#include "src/train/trainer.h"

namespace bench_e2e {
namespace {

using hipress::ClusterJobsOptions;
using hipress::ClusterSpec;
using hipress::CpAttribution;
using hipress::CpCategory;
using hipress::MetricsRegistry;
using hipress::ModelProfile;
using hipress::Status;
using hipress::StatusOr;
using hipress::SyncConfig;
using hipress::TrainOptions;
using hipress::TrainReport;

constexpr double kMiB = 1024.0 * 1024.0;

// FNV-1a over the eight bytes of `value`.
uint64_t Mix(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 1099511628211ULL;
  }
  return hash;
}
constexpr uint64_t kFnvBasis = 14695981039346656037ULL;

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

uint64_t MixString(uint64_t hash, std::string_view text) {
  for (const char c : text) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

// Geometric mean over samples taken in any order: they are sorted first, so
// the result does not depend on the order the seed shuffled runs into. A
// non-positive sample makes the mean 0, which fails the run's checks.
struct GeoMean {
  std::vector<double> samples;
  void Add(double x) { samples.push_back(x); }
  double value() const {
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    double log_sum = 0.0;
    for (const double x : sorted) {
      if (!(x > 0.0) || !std::isfinite(x)) {
        return 0.0;
      }
      log_sum += std::log(x);
    }
    return sorted.empty() ? 0.0
                          : std::exp(log_sum / static_cast<double>(sorted.size()));
  }
};

void Fail(RepResult* result, std::string error) {
  ++result->failed;
  result->errors.push_back(std::move(error));
}

// Layer counters every DES run exports through its metrics registry (names
// as in BENCHMARK.json). `registry` is non-const only because histogram
// reads go through MetricsRegistry::histogram().
void AddDesCounters(MetricsRegistry& registry, uint64_t flight_events,
                    std::map<std::string, double>* layer) {
  auto& l = *layer;
  const double events = registry.gauge_value("sim.events_processed");
  const double events_per_s = registry.gauge_value("sim.events_per_wall_second");
  l["sim.events"] += events;
  l["sim.loop_s"] += events_per_s > 0.0 ? events / events_per_s : 0.0;
  l["sim.queue_peak_depth"] = std::max(
      l["sim.queue_peak_depth"], registry.gauge_value("sim.queue_peak_depth"));
  l["sim.sched_pool_misses"] += registry.gauge_value("sim.sched_pool_misses");
  auto counter = [&registry](const char* name) {
    return static_cast<double>(registry.counter_value(name));
  };
  l["casync.encode_tasks"] += counter("engine.encode_tasks");
  l["casync.decode_tasks"] += counter("engine.decode_tasks");
  l["casync.merge_tasks"] += counter("engine.merge_tasks");
  l["casync.send_tasks"] += counter("engine.send_tasks");
  l["casync.coordinator_batches"] += counter("coordinator.batches");
  l["casync.transfers_batched"] += counter("coordinator.transfers_batched");
  l["casync.wire_mb"] += counter("engine.wire_bytes") / kMiB;
  l["casync.graphs_cancelled"] += counter("engine.graphs_cancelled");
  l["net.messages_sent"] += counter("net.messages_sent");
  l["net.messages_delivered"] += counter("net.messages_delivered");
  l["net.tx_mb"] += counter("net.tx_bytes") / kMiB;
  l["net.queue_delay_ms"] +=
      registry.histogram("net.queue_delay_us").sum() / 1000.0;
  l["net.drops"] += counter("net.drops");
  l["net.retries"] += counter("net.retries");
  l["net.acks"] += counter("net.acks");
  l["net.retransmit_mb"] += counter("net.retransmit_bytes") / kMiB;
  l["common.flight_events"] += static_cast<double>(flight_events);
}

// Host seconds per span name in the tracer's current repetition; empty
// when untraced.
LayerTimes CurrentTimes(const Tracer* tracer) {
  return tracer != nullptr ? tracer->Times(tracer->rep()) : LayerTimes();
}

double Seconds(const std::map<std::string, double>& seconds,
               const std::string& name) {
  const auto it = seconds.find(name);
  return it == seconds.end() ? 0.0 : it->second;
}

// Layer values derived once a DES repetition is done: critical-path shares
// of the summed attribution, the delivery ratio (delivered over every
// transmission, retransmits included), per-event costs, and the split of
// the simulate call's host time into event loop and everything outside it
// (planning, graph build, reports).
void FinishDesLayer(const CpAttribution& cp, const Tracer* tracer,
                    const char* simulate_span,
                    std::map<std::string, double>* layer) {
  auto& l = *layer;
  for (int c = 0; c < hipress::kNumCpCategories; ++c) {
    const CpCategory category = static_cast<CpCategory>(c);
    l[hipress::StrFormat("casync.cp.%s_share",
                         hipress::CpCategoryName(category))] =
        cp.Share(category);
  }
  const double sent = l["net.messages_sent"];
  l["net.delivery_ratio"] = sent > 0 ? l["net.messages_delivered"] / sent : 0;
  const double events = l["sim.events"];
  const double loop_s = l["sim.loop_s"];
  l["sim.ns_per_event"] = events > 0 ? loop_s * 1e9 / events : 0.0;
  l["common.flight_events_per_event"] =
      events > 0 ? l["common.flight_events"] / events : 0.0;
  const double simulate_s =
      Seconds(CurrentTimes(tracer).total_s, simulate_span);
  l["train.simulate_s"] = simulate_s;
  l["train.outside_loop_s"] = simulate_s > 0 ? simulate_s - loop_s : 0.0;
  l["train.outside_loop_share"] =
      simulate_s > 0 ? (simulate_s - loop_s) / simulate_s : 0.0;
}

// ---------------------------------------------------------------------------
// paper-grid
// ---------------------------------------------------------------------------

// The Fig. 7/8 pairs: each model with the codec its panel uses.
struct GridModel {
  const char* model;
  const char* algorithm;
};
constexpr GridModel kGridModels[] = {
    {"vgg19", "onebit"},     {"resnet50", "dgc"},     {"ugatit", "terngrad"},
    {"bert-large", "onebit"}, {"transformer", "dgc"}, {"lstm", "terngrad"},
};
constexpr const char* kGridSystems[] = {"byteps",   "ring",       "byteps-oss",
                                        "ring-oss", "hipress-ps", "hipress-ring"};

class PaperGrid : public Workload {
 public:
  explicit PaperGrid(const WorkloadOptions& options) : options_(options) {}

  Status Setup(Tracer* tracer) override {
    cells_.clear();
    const std::vector<int> node_counts =
        options_.smoke ? std::vector<int>{2, 4} : std::vector<int>{2, 4, 8, 16};
    for (const GridModel& grid : kGridModels) {
      StatusOr<ModelProfile> profile = [&] {
        ScopedSpan span(tracer, "GetModelProfile");
        return hipress::GetModelProfile(grid.model);
      }();
      if (!profile.ok()) {
        return profile.status();
      }
      for (const char* system : kGridSystems) {
        for (const int nodes : node_counts) {
          ClusterSpec cluster = ClusterSpec::Ec2(nodes);
          // The paper runs BytePS without RDMA on EC2 (no EFA support).
          if (std::string_view(system).starts_with("byteps")) {
            cluster.net = hipress::WithoutRdma(cluster.net);
          }
          StatusOr<SyncConfig> config = [&] {
            ScopedSpan span(tracer, "MakeSystemConfig");
            return hipress::MakeSystemConfig(system, cluster, grid.algorithm);
          }();
          if (!config.ok()) {
            return config.status();
          }
          Cell cell;
          cell.label = hipress::StrFormat("%s/%s/%s/%d", grid.model, system,
                                          grid.algorithm, nodes);
          cell.canonical = static_cast<int>(cells_.size());
          cell.profile = *profile;
          cell.config = *std::move(config);
          cells_.push_back(std::move(cell));
        }
      }
    }
    // The seed shuffles the cell order only; results are hashed in
    // canonical order, so every seed yields the same fingerprint.
    hipress::Rng rng(options_.seed);
    for (size_t i = cells_.size(); i > 1; --i) {
      std::swap(cells_[i - 1], cells_[rng.NextBounded(i)]);
    }
    return hipress::OkStatus();
  }

  RepResult Run(Tracer* tracer) override {
    RepResult result;
    TrainOptions train;
    train.iterations = 2;
    std::vector<uint64_t> cell_hash(cells_.size(), 0);
    GeoMean scaling_eff;
    CpAttribution cp;
    for (const Cell& cell : cells_) {
      ++result.attempted;
      StatusOr<TrainReport> report = [&] {
        ScopedSpan span(tracer, "SimulateTraining");
        return hipress::SimulateTraining(cell.profile, cell.config, train);
      }();
      if (!report.ok()) {
        Fail(&result, cell.label + ": " + report.status().ToString());
        continue;
      }
      if (report->cp_attribution.total() != report->iteration_time) {
        Fail(&result, cell.label +
                          ": critical-path attribution does not sum to the "
                          "iteration time");
        continue;
      }
      result.iterations += train.iterations;
      scaling_eff.Add(report->scaling_efficiency);
      cp.Add(report->cp_attribution);
      AddDesCounters(*report->metrics,
                     report->flight ? report->flight->events_recorded() : 0,
                     &result.layer);
      uint64_t hash = Mix(kFnvBasis, static_cast<uint64_t>(
                                         report->iteration_time));
      hash = Mix(hash, Bits(report->throughput));
      hash = Mix(hash, report->engine_stats.wire_bytes);
      hash = Mix(hash, report->metrics->counter_value("net.messages_sent"));
      cell_hash[cell.canonical] = hash;
    }
    result.scaling_eff_gmean = scaling_eff.value();
    FinishDesLayer(cp, tracer, "SimulateTraining", &result.layer);
    result.fingerprint = kFnvBasis;
    for (const uint64_t hash : cell_hash) {
      result.fingerprint = Mix(result.fingerprint, hash);
    }
    return result;
  }

 private:
  struct Cell {
    std::string label;
    int canonical = 0;
    ModelProfile profile;
    SyncConfig config;
  };

  WorkloadOptions options_;
  std::vector<Cell> cells_;
};

// ---------------------------------------------------------------------------
// fattree-multijob
// ---------------------------------------------------------------------------

class FatTreeMultiJob : public Workload {
 public:
  explicit FatTreeMultiJob(const WorkloadOptions& options)
      : options_(options) {}

  // RunClusterJobs resolves each job's model profile and system config
  // itself, inside the timed run; set-up is the cluster options and the
  // placement the run is checked against.
  Status Setup(Tracer* /*tracer*/) override {
    std::vector<std::string> models = {"resnet50", "vgg19", "bert-large",
                                       "transformer"};
    // The seed permutes which job (node stripe) gets which model.
    hipress::Rng rng(options_.seed);
    for (size_t i = models.size(); i > 1; --i) {
      std::swap(models[i - 1], models[rng.NextBounded(i)]);
    }
    const int nodes = options_.smoke ? 64 : 256;
    cluster_ = ClusterJobsOptions();
    cluster_.cluster = ClusterSpec::Ec2(nodes);
    cluster_.cluster.net.topology.kind = hipress::TopologyKind::kFatTree;
    cluster_.cluster.net.topology.oversubscription = 3.0;
    cluster_.cluster.net.topology.hosts_per_tor = 16;
    cluster_.placement = hipress::JobPlacement::kStriped;
    for (const std::string& model : models) {
      hipress::ClusterJobSpec job;
      job.model = model;
      job.system = "hipress-ps";
      job.algorithm = "onebit";
      job.iterations = 2;
      cluster_.jobs.push_back(std::move(job));
    }
    placement_ = hipress::AssignJobNodes(
        nodes, static_cast<int>(models.size()), cluster_.placement);
    return hipress::OkStatus();
  }

  RepResult Run(Tracer* tracer) override {
    RepResult result;
    result.attempted = 1;
    StatusOr<hipress::ClusterRunReport> run = [&] {
      ScopedSpan span(tracer, "RunClusterJobs");
      return hipress::RunClusterJobs(cluster_);
    }();
    if (!run.ok()) {
      Fail(&result, "RunClusterJobs: " + run.status().ToString());
      return result;
    }
    GeoMean scaling_eff;
    CpAttribution cp;
    if (run->jobs.size() != placement_.size()) {
      Fail(&result, "RunClusterJobs reported " +
                        std::to_string(run->jobs.size()) + " jobs, not " +
                        std::to_string(placement_.size()));
      return result;
    }
    for (size_t k = 0; k < run->jobs.size(); ++k) {
      const hipress::ClusterJobReport& job = run->jobs[k];
      const size_t expected =
          static_cast<size_t>(cluster_.jobs.front().iterations);
      if (job.iteration_end.size() != expected || job.iteration_time <= 0) {
        Fail(&result, job.name + " (" + job.model + "): did not finish " +
                          std::to_string(expected) + " iterations");
        return result;
      }
      if (job.nodes != placement_[k]) {
        Fail(&result, job.name + " (" + job.model +
                          "): not on the nodes striped placement assigns");
        return result;
      }
      result.iterations += static_cast<double>(job.iteration_end.size());
      scaling_eff.Add(static_cast<double>(job.compute_time) /
                      static_cast<double>(job.iteration_time));
      cp.Add(job.cp_attribution);
    }
    result.scaling_eff_gmean = scaling_eff.value();
    result.fingerprint = run->replay_fingerprint;
    AddDesCounters(*run->metrics,
                   run->flight ? run->flight->events_recorded() : 0,
                   &result.layer);
    FinishDesLayer(cp, tracer, "RunClusterJobs", &result.layer);
    return result;
  }

 private:
  WorkloadOptions options_;
  ClusterJobsOptions cluster_;
  std::vector<std::vector<int>> placement_;  // global node ids per job
};

// ---------------------------------------------------------------------------
// lossy-elastic
// ---------------------------------------------------------------------------

class LossyElastic : public Workload {
 public:
  explicit LossyElastic(const WorkloadOptions& options) : options_(options) {}

  Status Setup(Tracer* tracer) override {
    const int nodes = options_.smoke ? 8 : 16;
    train_ = TrainOptions();
    train_.iterations = options_.smoke ? 12 : 30;
    {
      ScopedSpan span(tracer, "GetModelProfile");
      StatusOr<ModelProfile> profile = hipress::GetModelProfile("bert-large");
      if (!profile.ok()) {
        return profile.status();
      }
      profile_ = *std::move(profile);
    }
    // Background loss plus one event of each class (crash, rejoin of the
    // crashed node, standby join, leave, link degradation) across the run's
    // first half. The seed picks the nodes, the jitter and the drop pattern;
    // with exactly five events the kinds are fixed, so every seed does
    // nearly the same amount of work.
    hipress::ChaosOptions chaos;
    chaos.seed = options_.seed;
    chaos.num_nodes = nodes;
    chaos.num_standby = 1;
    chaos.events = 5;
    chaos.drop_prob = 0.01;
    chaos.first_event_ms = kFirstEventMs;
    chaos.spacing_ms = options_.smoke ? kSpacingMs / 3 : kSpacingMs;
    ClusterSpec cluster = ClusterSpec::Ec2(nodes);
    cluster.net.faults = hipress::MakeChaosSchedule(chaos);
    ScopedSpan span(tracer, "MakeSystemConfig");
    StatusOr<SyncConfig> config =
        hipress::MakeSystemConfig("hipress-ps", cluster, "onebit");
    if (!config.ok()) {
      return config.status();
    }
    config_ = *std::move(config);
    return hipress::OkStatus();
  }

  RepResult Run(Tracer* tracer) override {
    RepResult result;
    result.attempted = 1;
    StatusOr<TrainReport> report = [&] {
      ScopedSpan span(tracer, "SimulateTraining");
      return hipress::SimulateTraining(profile_, config_, train_);
    }();
    if (!report.ok()) {
      Fail(&result, "SimulateTraining: " + report.status().ToString());
      return result;
    }
    const hipress::MembershipReport& m = report->membership;
    if (m.crashes < 1 || m.rejoins < 1) {
      Fail(&result, "chaos schedule did not crash and rejoin a node");
    } else if (!m.state_consistent) {
      Fail(&result, "final members do not hold identical model state");
    } else if (report->cp_attribution.total() != report->iteration_time) {
      Fail(&result,
           "critical-path attribution does not sum to the iteration time");
    } else if (report->steps.size() != static_cast<size_t>(train_.iterations)) {
      Fail(&result, "missing per-iteration step records");
    }
    if (result.failed > 0) {
      return result;
    }
    // Every iteration counts, so crash recovery and re-sync windows weigh
    // in: per-iteration compute over iteration time.
    GeoMean scaling_eff;
    uint64_t hash = MixString(kFnvBasis, m.event_log);
    hash = Mix(hash, m.model_fingerprint);
    for (const hipress::StepRecord& step : report->steps) {
      scaling_eff.Add(hipress::ToMillis(report->compute_time) /
                      step.iteration_ms);
      hash = Mix(hash, Bits(step.iteration_ms));
    }
    result.iterations = static_cast<double>(report->steps.size());
    result.scaling_eff_gmean = scaling_eff.value();
    result.fingerprint = hash;
    AddDesCounters(*report->metrics,
                   report->flight ? report->flight->events_recorded() : 0,
                   &result.layer);
    FinishDesLayer(report->cp_attribution, tracer, "SimulateTraining",
                   &result.layer);
    result.layer["net.resync_mb"] = static_cast<double>(m.resync_bytes) / kMiB;
    return result;
  }

 private:
  static constexpr double kFirstEventMs = 200.0;
  static constexpr double kSpacingMs = 600.0;

  WorkloadOptions options_;
  TrainOptions train_;
  ModelProfile profile_;
  SyncConfig config_;
};

// ---------------------------------------------------------------------------
// real-dp
// ---------------------------------------------------------------------------

// Per-codec call accounting of the traced codecs.
struct CodecCounters {
  uint64_t calls = 0;
  uint64_t encode_in_bytes = 0;
  uint64_t encode_out_bytes = 0;
};

// Process-wide state the "traced-<codec>" factories capture: the registry
// is global, so the decorators are registered once and pointed at the
// current repetition's tracer.
struct TracedCodecs {
  Tracer* tracer = nullptr;
  std::map<std::string, CodecCounters> counters;
};
TracedCodecs& Traced() {
  static TracedCodecs* traced = new TracedCodecs();
  return *traced;
}

// Decorator that records a span around every codec call. Forwards every
// virtual, name() included, so the trainer cannot tell it apart.
class TracedCompressor : public hipress::Compressor {
 public:
  TracedCompressor(std::unique_ptr<hipress::Compressor> inner,
                   std::string codec)
      : inner_(std::move(inner)),
        codec_(std::move(codec)),
        encode_span_(codec_ + ".EncodeInto"),
        decode_span_(codec_ + ".Decode"),
        decode_add_span_(codec_ + ".DecodeAdd") {}

  std::string_view name() const override { return inner_->name(); }
  bool is_sparse() const override { return inner_->is_sparse(); }

  StatusOr<size_t> EncodeInto(std::span<const float> gradient,
                              std::span<uint8_t> out) const override {
    StatusOr<size_t> written = [&] {
      ScopedSpan span(Traced().tracer, encode_span_);
      return inner_->EncodeInto(gradient, out);
    }();
    CodecCounters& counters = Traced().counters[codec_];
    ++counters.calls;
    if (written.ok()) {
      counters.encode_in_bytes += gradient.size_bytes();
      counters.encode_out_bytes += *written;
    }
    return written;
  }

  Status Decode(const hipress::ByteBuffer& in,
                std::span<float> out) const override {
    ++Traced().counters[codec_].calls;
    ScopedSpan span(Traced().tracer, decode_span_);
    return inner_->Decode(in, out);
  }

  Status DecodeAdd(const hipress::ByteBuffer& in,
                   std::span<float> accum) const override {
    ++Traced().counters[codec_].calls;
    ScopedSpan span(Traced().tracer, decode_add_span_);
    return inner_->DecodeAdd(in, accum);
  }

  StatusOr<size_t> EncodedElementCount(
      const hipress::ByteBuffer& in) const override {
    return inner_->EncodedElementCount(in);
  }
  size_t MaxEncodedSize(size_t elements) const override {
    return inner_->MaxEncodedSize(elements);
  }
  size_t WorstCaseEncodedSize(size_t elements) const override {
    return inner_->WorstCaseEncodedSize(elements);
  }
  double CompressionRate(size_t elements) const override {
    return inner_->CompressionRate(elements);
  }

 private:
  std::unique_ptr<hipress::Compressor> inner_;
  std::string codec_;
  std::string encode_span_;
  std::string decode_span_;
  std::string decode_add_span_;
};

constexpr const char* kTracedCodecs[] = {"onebit", "terngrad", "dgc"};

Status RegisterTracedCodecs() {
  hipress::CompressorRegistry& registry =
      hipress::CompressorRegistry::Instance();
  for (const char* codec : kTracedCodecs) {
    const std::string name = std::string("traced-") + codec;
    if (registry.Contains(name)) {
      continue;
    }
    RETURN_IF_ERROR(registry.Register(
        name,
        [codec = std::string(codec)](const hipress::CompressorParams& params)
            -> std::unique_ptr<hipress::Compressor> {
          StatusOr<std::unique_ptr<hipress::Compressor>> inner =
              hipress::CreateCompressor(codec, params);
          if (!inner.ok()) {
            return nullptr;
          }
          return std::make_unique<TracedCompressor>(std::move(*inner), codec);
        }));
  }
  return hipress::OkStatus();
}

class RealDp : public Workload {
 public:
  explicit RealDp(const WorkloadOptions& options) : options_(options) {}

  // Each repetition creates its trainers (DistTrainer::Create is part of
  // training an arm), so set-up is the arm configs and the held-out batch.
  Status Setup(Tracer* /*tracer*/) override {
    RETURN_IF_ERROR(RegisterTracedCodecs());
    // The uncompressed PS baseline, then one arm per codec. One sample per
    // worker per step keeps synchronization (codecs, error feedback,
    // dataflow) above 60% of the onebit arm's step time.
    struct ArmSpec {
      const char* codec;  // empty: uncompressed
      hipress::StrategyKind strategy;
    };
    const ArmSpec specs[] = {
        {"", hipress::StrategyKind::kPs},
        {"onebit", hipress::StrategyKind::kPs},
        {"terngrad", hipress::StrategyKind::kPs},
        {"dgc", hipress::StrategyKind::kRing},
    };
    arms_.clear();
    for (const ArmSpec& spec : specs) {
      hipress::DistTrainConfig config;
      config.num_workers = 4;
      config.batch_per_worker = 1;
      // Every arm trains at this rate; 2-bit TernGrad diverges at any rate
      // on this model, so TernGrad runs at 4 bits (as Fig. 13 does), and
      // DGC keeps 1% of each gradient.
      config.learning_rate = 0.004f;
      config.algorithm = spec.codec;
      config.strategy = spec.strategy;
      config.codec_params.bitwidth = 4;
      config.codec_params.sparsity_ratio = 0.01;
      config.model.input_dim = kInputDim;
      config.model.hidden_dim = options_.smoke ? 512 : 2048;
      config.model.output_dim = kClasses;
      config.model.init_seed = kInitSeed;
      config.task.input_dim = kInputDim;
      config.task.num_classes = kClasses;
      config.task.cluster_spread = 1.5f;
      config.task.seed = kTaskSeed;
      arms_.push_back(config);
    }
    // The seed permutes the order the arms run in. The task, the initial
    // weights and the held-out batch stay fixed: a different task or
    // initialization moves the final loss by 7-20% between seeds, far more
    // than the regressions final_loss is there to catch.
    hipress::Rng rng(options_.seed);
    for (size_t i = arms_.size(); i > 1; --i) {
      std::swap(arms_[i - 1], arms_[rng.NextBounded(i)]);
    }
    // The batch every arm's final model is scored on, drawn apart from the
    // trainers' own sample streams.
    hipress::Rng held_out_rng(kTaskSeed ^ 0x5eed0ff5e7ULL);
    arms_.front().task.Sample(held_out_rng, kHeldOut, &held_out_inputs_,
                              &held_out_labels_);
    return hipress::OkStatus();
  }

  RepResult Run(Tracer* tracer) override {
    RepResult result;
    Traced().tracer = tracer;
    Traced().counters.clear();
    const int steps = options_.smoke ? 30 : 60;
    double final_loss_sum = 0.0;
    uint64_t hash = kFnvBasis;
    auto& l = result.layer;
    for (hipress::DistTrainConfig config : arms_) {
      const std::string label =
          config.algorithm.empty() ? "uncompressed" : config.algorithm;
      if (tracer != nullptr && !config.algorithm.empty()) {
        config.algorithm = "traced-" + config.algorithm;
      }
      ++result.attempted;
      StatusOr<ArmRun> arm = TrainArm(config, steps, tracer);
      if (!arm.ok()) {
        Fail(&result, label + ": " + arm.status().ToString());
        continue;
      }
      l["minidnn.compute_s"] += arm->compute_s;
      l["minidnn.sync_s"] += arm->sync_s;
      l["common.pool_step_misses"] += arm->pool_step_misses;
      if (!std::isfinite(arm->first_loss) || !std::isfinite(arm->final_loss) ||
          !(arm->final_loss < arm->first_loss)) {
        Fail(&result, hipress::StrFormat(
                          "%s: loss did not fall (first %.4f, final %.4f)",
                          label.c_str(), arm->first_loss, arm->final_loss));
        continue;
      }
      hash = Mix(hash, Bits(arm->first_loss));
      hash = Mix(hash, Bits(arm->final_loss));
      hash = Mix(hash, Bits(arm->held_out_loss));
      final_loss_sum += arm->held_out_loss;
      result.iterations += steps;
    }
    Traced().tracer = nullptr;
    result.final_loss = final_loss_sum / static_cast<double>(arms_.size());
    result.fingerprint = hash;
    // Codec host time is the self time of the decorator's spans; the rest
    // of the synchronization time is the dataflow's own (error feedback,
    // copies, merges, pool traffic).
    const LayerTimes times = CurrentTimes(tracer);
    double codec_s = 0.0;
    for (const std::string codec : kTracedCodecs) {
      const CodecCounters& c = Traced().counters[codec];
      const std::string prefix = "compress." + codec;
      const double encode_s = Seconds(times.self_s, codec + ".EncodeInto");
      const double decode_s = Seconds(times.self_s, codec + ".Decode") +
                              Seconds(times.self_s, codec + ".DecodeAdd");
      const double in_mb = static_cast<double>(c.encode_in_bytes) / kMiB;
      l[prefix + ".encode_s"] = encode_s;
      l[prefix + ".decode_s"] = decode_s;
      l[prefix + ".calls"] = static_cast<double>(c.calls);
      l[prefix + ".encode_mb_per_s"] = encode_s > 0 ? in_mb / encode_s : 0.0;
      l[prefix + ".ratio"] =
          c.encode_in_bytes > 0 ? static_cast<double>(c.encode_out_bytes) /
                                      static_cast<double>(c.encode_in_bytes)
                                : 0.0;
      codec_s += encode_s + decode_s;
    }
    l["casync.dataflow_self_s"] =
        tracer != nullptr ? l["minidnn.sync_s"] - codec_s : 0.0;
    return result;
  }

 private:
  static constexpr int kInputDim = 64;
  static constexpr int kClasses = 16;
  static constexpr int kHeldOut = 512;
  static constexpr uint64_t kTaskSeed = 1;
  static constexpr uint64_t kInitSeed = 3;

  struct ArmRun {
    double first_loss = 0.0;     // training loss of step 1
    double final_loss = 0.0;     // training loss of the last step
    double held_out_loss = 0.0;  // final model's mean held-out cross-entropy
    double compute_s = 0.0;      // "dist.compute_us" / "dist.sync_us" sums
    double sync_s = 0.0;
    double pool_step_misses = 0.0;  // "mem.step_pool_misses", last step
  };

  // Mean softmax cross-entropy (nats) of `model` on the held-out batch.
  double HeldOutLoss(const hipress::Mlp& model) const {
    const std::vector<float> logits = model.Forward(held_out_inputs_, kHeldOut);
    double sum = 0.0;
    for (int s = 0; s < kHeldOut; ++s) {
      const std::span<const float> row(logits.data() + s * kClasses,
                                       kClasses);
      const double top = *std::max_element(row.begin(), row.end());
      double exp_sum = 0.0;
      for (const float logit : row) {
        exp_sum += std::exp(logit - top);
      }
      sum += top + std::log(exp_sum) - row[held_out_labels_[s]];
    }
    return sum / kHeldOut;
  }

  // Trains one arm from a fresh trainer. Each Train call evaluates on the
  // held-out batch once at its end, so the run is split only where a loss
  // is needed: after the first step and after the last.
  StatusOr<ArmRun> TrainArm(const hipress::DistTrainConfig& config, int steps,
                            Tracer* tracer) {
    StatusOr<std::unique_ptr<hipress::DistTrainer>> trainer = [&] {
      ScopedSpan span(tracer, "DistTrainer::Create");
      return hipress::DistTrainer::Create(config);
    }();
    if (!trainer.ok()) {
      return trainer.status();
    }
    auto train = [&](int n) -> StatusOr<hipress::DistTrainResult> {
      ScopedSpan span(tracer, "DistTrainer::Train");
      return (*trainer)->Train(n, n, /*target_accuracy=*/2.0);
    };
    ArmRun run;
    ASSIGN_OR_RETURN(const hipress::DistTrainResult first, train(1));
    ASSIGN_OR_RETURN(const hipress::DistTrainResult rest, train(steps - 1));
    run.first_loss = first.final_loss;
    run.final_loss = rest.final_loss;
    run.held_out_loss = HeldOutLoss((*trainer)->model());
    MetricsRegistry& metrics = (*trainer)->metrics();
    run.compute_s = metrics.histogram("dist.compute_us").sum() * 1e-6;
    run.sync_s = metrics.histogram("dist.sync_us").sum() * 1e-6;
    run.pool_step_misses = metrics.gauge_value("mem.step_pool_misses");
    return run;
  }

  WorkloadOptions options_;
  std::vector<hipress::DistTrainConfig> arms_;
  std::vector<float> held_out_inputs_;
  std::vector<int> held_out_labels_;
};

// One timeline set of the synthetic scheduler churn: every event
// reschedules a successor at a pseudo-random delay of up to ~1 ms, so the
// pending depth stays at the number of seeded events. Each callback captures
// 64 bytes, the size of the network and engine callbacks it stands in for.
struct Churn {
  hipress::Simulator* sim = nullptr;
  uint64_t remaining = 0;
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  uint64_t sink = 0;
};

void FireChurn(Churn* churn) {
  if (churn->remaining == 0) {
    return;
  }
  --churn->remaining;
  churn->state = churn->state * 6364136223846793005ULL + 1442695040888963407ULL;
  const uint64_t s = churn->state;
  const hipress::SimTime delay = static_cast<hipress::SimTime>(s >> 44) + 1;
  churn->sim->Schedule(delay, [churn, s, a = s >> 7, b = s << 3, c = ~s,
                               d = s ^ 0x5555, e = s + 17, f = s * 3] {
    churn->sink += s ^ a ^ b ^ c ^ d ^ e ^ f;
    FireChurn(churn);
  });
}

}  // namespace

StatusOr<std::unique_ptr<Workload>> MakeWorkload(
    const std::string& name, const WorkloadOptions& options) {
  if (name == "paper-grid") {
    return std::unique_ptr<Workload>(new PaperGrid(options));
  }
  if (name == "fattree-multijob") {
    return std::unique_ptr<Workload>(new FatTreeMultiJob(options));
  }
  if (name == "lossy-elastic") {
    return std::unique_ptr<Workload>(new LossyElastic(options));
  }
  if (name == "real-dp") {
    return std::unique_ptr<Workload>(new RealDp(options));
  }
  return hipress::InvalidArgumentError("unknown workload " + name);
}

double IsolatedNsPerEvent(uint64_t depth, uint64_t events, Tracer* tracer) {
  if (depth == 0 || events == 0) {
    return 0.0;
  }
  hipress::Simulator sim;
  Churn churn;
  churn.sim = &sim;
  churn.remaining = events;
  for (uint64_t i = 0; i < depth; ++i) {
    FireChurn(&churn);
  }
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan span(tracer, "Simulator::Run");
    sim.Run();
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return seconds * 1e9 / static_cast<double>(sim.events_processed());
}

}  // namespace bench_e2e
