#include "src/minidnn/dist_trainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "src/common/buffer_pool.h"
#include "src/compress/registry.h"

namespace hipress {

std::vector<float> SyntheticTask::ClassMeans() const {
  Rng mean_rng(seed);
  std::vector<float> means(static_cast<size_t>(num_classes) * input_dim);
  for (float& m : means) {
    m = static_cast<float>(mean_rng.NextGaussian());
  }
  return means;
}

void SyntheticTask::Sample(Rng& rng, int batch, std::vector<float>* inputs,
                           std::vector<int>* labels) const {
  SampleAround(ClassMeans(), rng, batch, inputs, labels);
}

void SyntheticTask::SampleAround(const std::vector<float>& means, Rng& rng,
                                 int batch, std::vector<float>* inputs,
                                 std::vector<int>* labels) const {
  inputs->assign(static_cast<size_t>(batch) * input_dim, 0.0f);
  labels->assign(batch, 0);
  for (int s = 0; s < batch; ++s) {
    const int label = static_cast<int>(rng.NextBounded(num_classes));
    (*labels)[s] = label;
    const float* mean = &means[static_cast<size_t>(label) * input_dim];
    float* x = &(*inputs)[static_cast<size_t>(s) * input_dim];
    for (int i = 0; i < input_dim; ++i) {
      x[i] = mean[i] +
             cluster_spread * static_cast<float>(rng.NextGaussian());
    }
  }
}

DistTrainer::DistTrainer(const DistTrainConfig& config)
    : config_(config),
      model_(config.model),
      eval_rng_(config.task.seed ^ 0xe7a1) {}

StatusOr<std::unique_ptr<DistTrainer>> DistTrainer::Create(
    const DistTrainConfig& config) {
  if (config.num_workers < 1) {
    return InvalidArgumentError("need at least one worker");
  }
  if (config.model.input_dim != config.task.input_dim ||
      config.model.output_dim != config.task.num_classes) {
    return InvalidArgumentError("model dims must match the task");
  }
  std::unique_ptr<DistTrainer> trainer(new DistTrainer(config));
  if (!config.algorithm.empty()) {
    ASSIGN_OR_RETURN(trainer->codec_, CreateCompressor(config.algorithm,
                                                       config.codec_params));
    auto shared = std::shared_ptr<const Compressor>(
        trainer->codec_.get(), [](const Compressor*) {});
    for (int w = 0; w < config.num_workers; ++w) {
      trainer->feedback_.push_back(std::make_unique<ErrorFeedback>(shared));
    }
    size_t largest = 0;
    for (const Tensor& param : trainer->model_.parameters()) {
      largest = std::max(largest, param.size());
    }
    trainer->feedback_scratch_.Reserve(
        trainer->codec_->MaxEncodedSize(largest));
  }
  SyncConfig sync;
  sync.strategy = config.strategy;
  sync.num_nodes = config.num_workers;
  trainer->sync_ = std::make_unique<RealSync>(sync, trainer->codec_.get());
  // Preallocate the momentum state, the per-worker gradients, the sync
  // buffers and (above) the error-feedback payload here rather than lazily
  // inside the first step: their buffers are permanent, and taking them
  // out of the pool up front keeps the first training step the only one
  // that faults fresh blocks in (the steady-state zero-miss invariant).
  trainer->velocity_ = trainer->model_.MakeGradients();
  trainer->synced_ = trainer->model_.MakeGradients();
  for (int w = 0; w < config.num_workers; ++w) {
    trainer->worker_grads_.push_back(trainer->model_.MakeGradients());
    if (trainer->codec_ != nullptr) {
      trainer->corrected_.push_back(trainer->model_.MakeGradients());
    }
  }
  const auto& sent = trainer->codec_ != nullptr ? trainer->corrected_
                                                : trainer->worker_grads_;
  for (size_t p = 0; p < trainer->synced_.size(); ++p) {
    RealGradient& gradient = trainer->sync_gradients_.emplace_back();
    for (const std::vector<Tensor>& worker : sent) {
      gradient.inputs.push_back(worker[p].span());
    }
    gradient.result = trainer->synced_[p].span();
  }
  trainer->task_means_ = config.task.ClassMeans();
  Rng root(config.task.seed);
  for (int w = 0; w < config.num_workers; ++w) {
    trainer->worker_rngs_.push_back(root.Fork(static_cast<uint64_t>(w) + 1));
  }
  config.task.SampleAround(trainer->task_means_, trainer->eval_rng_,
                           trainer->eval_batch_, &trainer->eval_inputs_,
                           &trainer->eval_labels_);
  return trainer;
}

StatusOr<double> DistTrainer::Step() {
  const int workers = config_.num_workers;
  using Clock = std::chrono::steady_clock;
  const auto elapsed_us = [](Clock::time_point since) {
    return std::chrono::duration<double, std::micro>(Clock::now() - since)
        .count();
  };
  const auto compute_start = Clock::now();
  pool_misses_before_step_ = BufferPool::Global().stats().misses;

  double loss_sum = 0.0;
  for (int w = 0; w < workers; ++w) {
    // Zeroed right before the backward accumulates into them, while the
    // zeroed lines are still in cache.
    for (Tensor& grad : worker_grads_[w]) {
      grad.Fill(0.0f);
    }
    config_.task.SampleAround(task_means_, worker_rngs_[w],
                              config_.batch_per_worker, &sample_inputs_,
                              &sample_labels_);
    loss_sum += model_.BackwardCrossEntropy(sample_inputs_, sample_labels_,
                                            config_.batch_per_worker,
                                            &worker_grads_[w]);
  }
  metrics_.histogram("dist.compute_us").Observe(elapsed_us(compute_start));
  const auto sync_start = Clock::now();

  // Error feedback writes corrected = grad + residual into the sync input
  // and updates the worker's residual with an encode of the whole tensor.
  for (size_t w = 0; w < corrected_.size(); ++w) {
    for (size_t p = 0; p < corrected_[w].size(); ++p) {
      const Tensor& grad = worker_grads_[w][p];
      RETURN_IF_ERROR(feedback_[w]->Apply(grad.name(), grad.span(),
                                          corrected_[w][p].span(),
                                          &feedback_scratch_));
    }
  }
  // Every parameter's task graph runs at once (layer-wise, like the paper).
  RETURN_IF_ERROR(sync_->Run(sync_gradients_, config_.partitions).status());
  for (Tensor& synced : synced_) {
    synced.Scale(1.0f / static_cast<float>(workers));
  }

  metrics_.histogram("dist.sync_us").Observe(elapsed_us(sync_start));
  metrics_.counter("dist.steps").Increment();
  metrics_.gauge("dist.last_loss").Set(loss_sum / workers);

  // Mirror global pool health into this trainer's registry so callers can
  // assert the steady-state invariant (step miss delta hits zero once the
  // pool is warm) without reaching for the process-wide registry.
  const BufferPool::Stats pool = BufferPool::Global().stats();
  metrics_.gauge("mem.pool_hits").Set(static_cast<double>(pool.hits));
  metrics_.gauge("mem.pool_misses").Set(static_cast<double>(pool.misses));
  metrics_.gauge("mem.bytes_in_use").Set(
      static_cast<double>(pool.bytes_in_use));
  metrics_.gauge("mem.peak_bytes").Set(static_cast<double>(pool.peak_bytes));
  metrics_.gauge("mem.step_pool_misses")
      .Set(static_cast<double>(pool.misses - pool_misses_before_step_));

  model_.ApplySgd(synced_, config_.learning_rate, config_.momentum,
                  &velocity_);
  return loss_sum / workers;
}

StatusOr<DistTrainResult> DistTrainer::Train(int steps, int eval_every,
                                             double target_accuracy) {
  DistTrainResult result;
  for (int step = 1; step <= steps; ++step) {
    ASSIGN_OR_RETURN(const double loss, Step());
    if (step % eval_every == 0 || step == steps) {
      TrainCurvePoint point;
      point.step = step;
      point.loss = loss;
      point.perplexity = std::exp(loss);
      point.accuracy =
          model_.Accuracy(eval_inputs_, eval_labels_, eval_batch_);
      result.curve.push_back(point);
      if (result.steps_to_target < 0 &&
          point.accuracy >= target_accuracy) {
        result.steps_to_target = step;
      }
      result.final_accuracy = point.accuracy;
      result.final_loss = loss;
    }
  }
  return result;
}

}  // namespace hipress
