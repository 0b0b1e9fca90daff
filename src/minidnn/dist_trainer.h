// Distributed MiniDNN trainer: W logical workers, per-worker data shards,
// real gradient synchronization on the CaSync engine (RealSync: PS, ring or
// tree task graphs over real bytes) with optional compression + error
// feedback.
//
// Reproduces the convergence-validation methodology of Figure 13: train the
// same model (a) without compression and (b) with a CompLL algorithm, and
// show both reach the target metric in (approximately) the same number of
// iterations — with the compressed run cheaper per iteration.
#ifndef HIPRESS_SRC_MINIDNN_DIST_TRAINER_H_
#define HIPRESS_SRC_MINIDNN_DIST_TRAINER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/casync/real_sync.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/compress/error_feedback.h"
#include "src/minidnn/mlp.h"

namespace hipress {

// Synthetic K-class Gaussian-cluster classification task.
struct SyntheticTask {
  int input_dim = 16;
  int num_classes = 4;
  float cluster_spread = 0.9f;  // noise stddev around each class mean
  uint64_t seed = 0x7357;

  // The class means, num_classes x input_dim, drawn from `seed`, so every
  // worker and eval batch shares the same geometry.
  std::vector<float> ClassMeans() const;

  // Samples a batch: inputs (batch x input_dim) and labels.
  void Sample(Rng& rng, int batch, std::vector<float>* inputs,
              std::vector<int>* labels) const;
  // The same batch as Sample, around means already drawn by ClassMeans().
  void SampleAround(const std::vector<float>& means, Rng& rng, int batch,
                    std::vector<float>* inputs,
                    std::vector<int>* labels) const;
};

struct DistTrainConfig {
  int num_workers = 4;
  int batch_per_worker = 32;
  float learning_rate = 0.1f;
  float momentum = 0.9f;
  // Compression: empty = none. Any registry name works ("onebit",
  // "dsl-terngrad", ...).
  std::string algorithm;
  CompressorParams codec_params;
  StrategyKind strategy = StrategyKind::kPs;
  int partitions = 2;
  MlpConfig model;
  SyntheticTask task;
};

struct TrainCurvePoint {
  int step = 0;
  double loss = 0.0;        // training cross-entropy
  double accuracy = 0.0;    // eval accuracy
  double perplexity = 0.0;  // exp(loss) — the LM-style metric of Fig. 13
};

struct DistTrainResult {
  std::vector<TrainCurvePoint> curve;
  int steps_to_target = -1;  // first step reaching target accuracy, or -1
  double final_accuracy = 0.0;
  double final_loss = 0.0;
};

class DistTrainer {
 public:
  static StatusOr<std::unique_ptr<DistTrainer>> Create(
      const DistTrainConfig& config);

  // Runs `steps` synchronized SGD steps, evaluating every `eval_every`
  // steps on a held-out batch. target_accuracy sets steps_to_target.
  StatusOr<DistTrainResult> Train(int steps, int eval_every,
                                  double target_accuracy);

  const Mlp& model() const { return model_; }

  // Wall-clock observability for the real trainer: per-step compute and
  // gradient-synchronization durations ("dist.compute_us", "dist.sync_us"
  // histograms), step counter, and last-loss gauge. Memory-pool health is
  // mirrored after every step: "mem.pool_hits" / "mem.pool_misses" /
  // "mem.bytes_in_use" / "mem.peak_bytes" gauges snapshot the global
  // BufferPool, and "mem.step_pool_misses" holds the miss delta of the
  // last step — zero once the pool is warm (the steady-state invariant).
  const MetricsRegistry& metrics() const { return metrics_; }
  MetricsRegistry& metrics() { return metrics_; }

 private:
  explicit DistTrainer(const DistTrainConfig& config);

  // One synchronized step; returns the mean worker loss.
  StatusOr<double> Step();

  DistTrainConfig config_;
  MetricsRegistry metrics_;
  Mlp model_;
  std::vector<Tensor> velocity_;
  std::unique_ptr<Compressor> codec_;  // null when uncompressed
  // Per-worker error feedback (residuals are local state, Section 2.4's
  // convergence-preserving recipe).
  std::vector<std::unique_ptr<ErrorFeedback>> feedback_;
  std::unique_ptr<RealSync> sync_;
  std::vector<float> task_means_;  // config_.task.ClassMeans()
  std::vector<Rng> worker_rngs_;
  Rng eval_rng_;
  std::vector<float> eval_inputs_;
  std::vector<int> eval_labels_;
  int eval_batch_ = 256;
  // Per-step scratch, hoisted out of Step() so the sync hot path reuses
  // the same (pool-backed) storage every iteration instead of churning.
  std::vector<std::vector<Tensor>> worker_grads_;  // [worker][parameter]
  std::vector<float> sample_inputs_;
  std::vector<int> sample_labels_;
  // Compressed runs sync the error-corrected gradients, uncompressed runs
  // the workers' gradients themselves.
  std::vector<std::vector<Tensor>> corrected_;  // [worker][parameter]
  std::vector<Tensor> synced_;                  // [parameter]
  std::vector<RealGradient> sync_gradients_;    // [parameter]
  ByteBuffer feedback_scratch_;
  size_t pool_misses_before_step_ = 0;
};

}  // namespace hipress

#endif  // HIPRESS_SRC_MINIDNN_DIST_TRAINER_H_
