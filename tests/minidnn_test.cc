// MiniDNN: gradient correctness of the MLP and convergence parity of
// compressed distributed training (the Figure 13 property).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>

#include "src/minidnn/dist_trainer.h"
#include "src/minidnn/mlp.h"
#include "tests/simd_test_util.h"

namespace hipress {
namespace {

TEST(MlpTest, GradientsMatchFiniteDifferences) {
  MlpConfig config;
  config.input_dim = 3;
  config.hidden_dim = 4;
  config.output_dim = 2;
  Mlp mlp(config);

  Rng rng(9);
  std::vector<float> inputs(3 * 2);
  for (float& v : inputs) {
    v = static_cast<float>(rng.NextGaussian());
  }
  std::vector<int> labels = {0, 1};

  auto grads = mlp.MakeGradients();
  mlp.BackwardCrossEntropy(inputs, labels, 2, &grads);

  // Check several weights per layer against central differences.
  const float eps = 1e-3f;
  for (size_t p = 0; p < mlp.parameters().size(); ++p) {
    const size_t size = mlp.parameters()[p].size();
    for (size_t i = 0; i < size; i += std::max<size_t>(1, size / 5)) {
      Mlp plus = mlp;
      plus.mutable_parameters()[p][i] += eps;
      Mlp minus = mlp;
      minus.mutable_parameters()[p][i] -= eps;
      auto scratch_p = plus.MakeGradients();
      auto scratch_m = minus.MakeGradients();
      const double loss_plus =
          plus.BackwardCrossEntropy(inputs, labels, 2, &scratch_p);
      const double loss_minus =
          minus.BackwardCrossEntropy(inputs, labels, 2, &scratch_m);
      const double numeric = (loss_plus - loss_minus) / (2.0 * eps);
      EXPECT_NEAR(grads[p][i], numeric, 2e-2)
          << "param " << p << " index " << i;
    }
  }
}

TEST(MlpTest, SgdWithMomentumUpdatesParameters) {
  MlpConfig config;
  Mlp mlp(config);
  auto grads = mlp.MakeGradients();
  grads[0][0] = 1.0f;
  std::vector<Tensor> velocity;
  const float before = mlp.parameters()[0][0];
  mlp.ApplySgd(grads, 0.1f, 0.9f, &velocity);
  EXPECT_FLOAT_EQ(mlp.parameters()[0][0], before - 0.1f);
  // Momentum keeps pushing on the next step even with zero gradient.
  grads[0][0] = 0.0f;
  const float after_first = mlp.parameters()[0][0];
  mlp.ApplySgd(grads, 0.1f, 0.9f, &velocity);
  EXPECT_FLOAT_EQ(mlp.parameters()[0][0], after_first - 0.1f * 0.9f);
}

TEST(MlpTest, EveryTierAndBatchSplitGivesTheSameBits) {
  // 37 samples: whole vector-lane blocks plus a one-at-a-time tail at both
  // vector widths. Each sample alone on the scalar tier is the reference.
  MlpConfig config;
  config.input_dim = 19;
  config.hidden_dim = 37;
  config.output_dim = 11;
  Mlp mlp(config);
  Rng rng(5);
  mlp.mutable_parameters()[1].FillGaussian(rng, 0.5f);
  const int batch = 37;
  std::vector<float> inputs(static_cast<size_t>(batch) * config.input_dim);
  for (float& v : inputs) {
    v = static_cast<float>(rng.NextGaussian());
  }
  std::vector<int> labels(batch);
  for (int& label : labels) {
    label = static_cast<int>(rng.NextBounded(config.output_dim));
  }

  std::vector<float> want_logits;
  std::vector<float> want_grads;
  {
    SimdTierGuard scalar(SimdTier::kScalar);
    for (int s = 0; s < batch; ++s) {
      const std::vector<float> x(
          inputs.begin() + s * config.input_dim,
          inputs.begin() + (s + 1) * config.input_dim);
      const std::vector<float> z = mlp.Forward(x, 1);
      want_logits.insert(want_logits.end(), z.begin(), z.end());
    }
    auto grads = mlp.MakeGradients();
    mlp.BackwardCrossEntropy(inputs, labels, batch, &grads);
    for (const Tensor& grad : grads) {
      want_grads.insert(want_grads.end(), grad.span().begin(),
                        grad.span().end());
    }
  }
  for (const SimdTier tier : AvailableTiers()) {
    SimdTierGuard guard(tier);
    EXPECT_TRUE(SameBits(mlp.Forward(inputs, batch), want_logits))
        << SimdTierName(tier);
    auto grads = mlp.MakeGradients();
    mlp.BackwardCrossEntropy(inputs, labels, batch, &grads);
    std::vector<float> got_grads;
    for (const Tensor& grad : grads) {
      got_grads.insert(got_grads.end(), grad.span().begin(),
                       grad.span().end());
    }
    EXPECT_TRUE(SameBits(got_grads, want_grads)) << SimdTierName(tier);
  }
}

TEST(SyntheticTaskTest, DeterministicAndLabeledInRange) {
  SyntheticTask task;
  Rng rng1(3);
  Rng rng2(3);
  std::vector<float> a;
  std::vector<float> b;
  std::vector<int> la;
  std::vector<int> lb;
  task.Sample(rng1, 16, &a, &la);
  task.Sample(rng2, 16, &b, &lb);
  EXPECT_EQ(a, b);
  EXPECT_EQ(la, lb);
  for (int label : la) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, task.num_classes);
  }
}

TEST(SyntheticTaskTest, SamplingAroundDrawnMeansIsSample) {
  SyntheticTask task;
  const std::vector<float> means = task.ClassMeans();
  Rng rng1(3);
  Rng rng2(3);
  std::vector<float> a;
  std::vector<float> b;
  std::vector<int> la;
  std::vector<int> lb;
  // Two batches each, so the sample stream must also advance alike.
  for (int batch : {5, 9}) {
    task.Sample(rng1, batch, &a, &la);
    task.SampleAround(means, rng2, batch, &b, &lb);
    EXPECT_TRUE(SameBits(a, b));
    EXPECT_EQ(la, lb);
  }
}

DistTrainConfig BaseConfig() {
  DistTrainConfig config;
  config.num_workers = 4;
  config.batch_per_worker = 32;
  config.learning_rate = 0.05f;
  config.momentum = 0.9f;
  return config;
}

TEST(DistTrainerTest, UncompressedTrainingConverges) {
  auto trainer = DistTrainer::Create(BaseConfig());
  ASSERT_TRUE(trainer.ok()) << trainer.status();
  auto result = (*trainer)->Train(120, 10, 0.9);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->final_accuracy, 0.9);
  EXPECT_GT(result->steps_to_target, 0);
}

struct ConvergenceCase {
  const char* algorithm;
  StrategyKind strategy;
};

class CompressedConvergenceTest
    : public ::testing::TestWithParam<ConvergenceCase> {};

TEST_P(CompressedConvergenceTest, ReachesSameAccuracyAsBaseline) {
  // Figure 13's claim: compression-enabled training converges to the same
  // accuracy within a comparable number of iterations.
  DistTrainConfig baseline_config = BaseConfig();
  auto baseline = DistTrainer::Create(baseline_config);
  ASSERT_TRUE(baseline.ok());
  auto baseline_result = (*baseline)->Train(150, 10, 0.9);
  ASSERT_TRUE(baseline_result.ok());

  DistTrainConfig config = BaseConfig();
  config.algorithm = GetParam().algorithm;
  config.strategy = GetParam().strategy;
  config.codec_params.sparsity_ratio = 0.25;  // tiny model: keep 25%
  // 4-bit keeps the quantization grid fine enough for this small model;
  // the original TernGrad recipe also relies on layer-wise scaling and
  // gradient clipping we do not replicate here.
  config.codec_params.bitwidth = 4;
  auto trainer = DistTrainer::Create(config);
  ASSERT_TRUE(trainer.ok()) << trainer.status();
  auto result = (*trainer)->Train(150, 10, 0.9);
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_GT(result->final_accuracy, baseline_result->final_accuracy - 0.05)
      << GetParam().algorithm;
  ASSERT_GT(result->steps_to_target, 0) << GetParam().algorithm;
  EXPECT_LE(result->steps_to_target, baseline_result->steps_to_target * 3)
      << GetParam().algorithm;
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, CompressedConvergenceTest,
    ::testing::Values(ConvergenceCase{"onebit", StrategyKind::kPs},
                      ConvergenceCase{"terngrad", StrategyKind::kPs},
                      ConvergenceCase{"dgc", StrategyKind::kRing},
                      ConvergenceCase{"tbq", StrategyKind::kPs},
                      ConvergenceCase{"adacomp", StrategyKind::kPs},
                      ConvergenceCase{"fp16", StrategyKind::kRing}));

TEST(DistTrainerTest, RejectsMismatchedDims) {
  DistTrainConfig config = BaseConfig();
  config.model.input_dim = 8;  // task default is 16
  EXPECT_FALSE(DistTrainer::Create(config).ok());
}

TEST(DistTrainerTest, SingleWorkerEqualsLocalTraining) {
  DistTrainConfig config = BaseConfig();
  config.num_workers = 1;
  auto trainer = DistTrainer::Create(config);
  ASSERT_TRUE(trainer.ok());
  auto result = (*trainer)->Train(60, 10, 0.85);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->final_accuracy, 0.85);
}


// Golden bits: FNV-1a hashes of the exact float bits the model and the
// distributed trainer produce, recorded from the one-row-at-a-time forward
// and the two-pass error feedback they replaced. Any kernel change must keep
// every multiply and add in the same order and separately rounded, so these
// hold on every build (sanitizers, forced-scalar codecs) unchanged.
class BitHash {
 public:
  void Add(std::span<const float> values) {
    for (const float v : values) {
      uint32_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      AddBytes(&bits, sizeof(bits));
    }
  }
  void Add(double value) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    AddBytes(&bits, sizeof(bits));
  }
  uint64_t value() const { return hash_; }

 private:
  void AddBytes(const void* data, size_t size) {
    const auto* bytes = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 1099511628211ull;
    }
  }
  uint64_t hash_ = 1469598103934665603ull;
};

struct ForwardGolden {
  int hidden;
  int batch;
  uint64_t logits;     // Mlp::Forward
  uint64_t gradients;  // BackwardCrossEntropy: loss, then every gradient
};

class MlpGoldenBitsTest : public ::testing::TestWithParam<ForwardGolden> {};

TEST_P(MlpGoldenBitsTest, ForwardAndBackwardBitsUnchanged) {
  const ForwardGolden& c = GetParam();
  // Odd layer widths leave a tail after any row block in both layers.
  MlpConfig config;
  config.input_dim = 19;
  config.hidden_dim = c.hidden;
  config.output_dim = 11;
  Mlp mlp(config);
  Rng rng(static_cast<uint64_t>(c.hidden) * 1000 + c.batch);
  // Non-zero biases: every output starts its sum from its bias.
  mlp.mutable_parameters()[1].FillGaussian(rng, 0.5f);
  mlp.mutable_parameters()[3].FillGaussian(rng, 0.5f);
  std::vector<float> inputs(static_cast<size_t>(c.batch) * config.input_dim);
  for (float& v : inputs) {
    v = static_cast<float>(rng.NextGaussian());
  }
  std::vector<int> labels(c.batch);
  for (int& label : labels) {
    label = static_cast<int>(rng.NextBounded(config.output_dim));
  }

  BitHash logits;
  logits.Add(mlp.Forward(inputs, c.batch));
  BitHash gradients;
  auto grads = mlp.MakeGradients();
  gradients.Add(mlp.BackwardCrossEntropy(inputs, labels, c.batch, &grads));
  for (const Tensor& grad : grads) {
    gradients.Add(grad.span());
  }
  EXPECT_EQ(logits.value(), c.logits)
      << "logits: got 0x" << std::hex << logits.value();
  EXPECT_EQ(gradients.value(), c.gradients)
      << "gradients: got 0x" << std::hex << gradients.value();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MlpGoldenBitsTest,
    ::testing::Values(
        ForwardGolden{1, 1, 0xdfa0d6440437565cull, 0x4e5895f7a5d2387ull},
        ForwardGolden{1, 3, 0x65d4844e8b93203dull, 0x1524b248237d6bc0ull},
        ForwardGolden{1, 256, 0x77c66352c1ccd7ccull, 0xad41fd8ac334d66full},
        ForwardGolden{7, 1, 0x436874c2ed5aac17ull, 0x918fafcfeb5a409eull},
        ForwardGolden{7, 3, 0x56998b070b157934ull, 0x7db437c9ddeffd40ull},
        ForwardGolden{7, 256, 0x978e4dd9b6fc548ull, 0xd60ef1b6a3c2f17dull},
        ForwardGolden{8, 1, 0xbc9972bc078037e6ull, 0x591b6a8257761882ull},
        ForwardGolden{8, 3, 0x24240f39fb749ba0ull, 0xc2570dcf61e57ceaull},
        ForwardGolden{8, 256, 0x82fa0702ac1e72deull, 0xfa9148cbedb2a3ceull},
        ForwardGolden{37, 1, 0x6754c84f19e376a3ull, 0xbf23f702d8b69b0full},
        ForwardGolden{37, 3, 0x2f245595ccc3c863ull, 0x90d978b517267d5cull},
        ForwardGolden{37, 256, 0x7183d9839748a5fcull, 0x7ad27becf6a42860ull},
        ForwardGolden{2048, 1, 0x94e2087df48c571eull, 0x8e60ca046d58be99ull},
        ForwardGolden{2048, 3, 0xefaa9e6789641b6aull, 0x7afc48e3b2de4802ull},
        ForwardGolden{2048, 256, 0x811d304575d36277ull,
                      0xa2250d13bb34ae03ull}));

struct TrainerGolden {
  const char* algorithm;  // empty: uncompressed
  StrategyKind strategy;
  int partitions;
  uint64_t bits;  // every step's loss and accuracy, then the final parameters
};

class DistTrainerGoldenBitsTest
    : public ::testing::TestWithParam<TrainerGolden> {};

TEST_P(DistTrainerGoldenBitsTest, LossesAndParametersUnchanged) {
  const TrainerGolden& c = GetParam();
  DistTrainConfig config = BaseConfig();
  config.batch_per_worker = 5;
  config.model.hidden_dim = 37;
  config.algorithm = c.algorithm;
  config.strategy = c.strategy;
  config.partitions = c.partitions;
  config.codec_params.bitwidth = 4;
  config.codec_params.sparsity_ratio = 0.1;
  auto trainer = DistTrainer::Create(config);
  ASSERT_TRUE(trainer.ok()) << trainer.status();
  auto result = (*trainer)->Train(6, 1, 2.0);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->curve.size(), 6u);

  BitHash hash;
  for (const TrainCurvePoint& point : result->curve) {
    hash.Add(point.loss);
    hash.Add(point.accuracy);
  }
  for (const Tensor& param : (*trainer)->model().parameters()) {
    hash.Add(param.span());
  }
  EXPECT_EQ(hash.value(), c.bits) << "got 0x" << std::hex << hash.value();
}

INSTANTIATE_TEST_SUITE_P(
    Runs, DistTrainerGoldenBitsTest,
    ::testing::Values(
        TrainerGolden{"", StrategyKind::kPs, 1, 0x65dec3b46d212ebeull},
        TrainerGolden{"", StrategyKind::kPs, 2, 0x65dec3b46d212ebeull},
        TrainerGolden{"", StrategyKind::kRing, 1, 0x65dec3b46d212ebeull},
        TrainerGolden{"", StrategyKind::kRing, 2, 0xe327a126067e0284ull},
        TrainerGolden{"", StrategyKind::kTree, 1, 0xd455dffda36052d0ull},
        TrainerGolden{"", StrategyKind::kTree, 2, 0xf6dc3c7188117a8ull},
        TrainerGolden{"onebit", StrategyKind::kPs, 1, 0x4c026d8695175672ull},
        TrainerGolden{"onebit", StrategyKind::kPs, 2, 0x97a42c526f374911ull},
        TrainerGolden{"onebit", StrategyKind::kRing, 1, 0x987fb9df12e4e444ull},
        TrainerGolden{"onebit", StrategyKind::kRing, 2, 0x5ecc5969bd3e6bbeull},
        TrainerGolden{"onebit", StrategyKind::kTree, 1, 0x2ddf434bfbae71ull},
        TrainerGolden{"onebit", StrategyKind::kTree, 2, 0x1f72b06ae48ea8cull},
        TrainerGolden{"terngrad", StrategyKind::kPs, 1, 0xf1528cd0d17583d6ull},
        TrainerGolden{"terngrad", StrategyKind::kPs, 2, 0x4bf6f8747c3ee867ull},
        TrainerGolden{"terngrad", StrategyKind::kRing, 1,
                      0x4e210585e84c57a2ull},
        TrainerGolden{"terngrad", StrategyKind::kRing, 2,
                      0x99d7f3a943d4ef88ull},
        TrainerGolden{"terngrad", StrategyKind::kTree, 1,
                      0x56a3626cca232c7aull},
        TrainerGolden{"terngrad", StrategyKind::kTree, 2,
                      0x50fe408fe7f46817ull},
        TrainerGolden{"dgc", StrategyKind::kPs, 1, 0x7109d3c2d2a2c532ull},
        TrainerGolden{"dgc", StrategyKind::kPs, 2, 0x3372e02f589d9433ull},
        TrainerGolden{"dgc", StrategyKind::kRing, 1, 0x708e68f3a3597c61ull},
        TrainerGolden{"dgc", StrategyKind::kRing, 2, 0xaff6d6bf820fa91full},
        TrainerGolden{"dgc", StrategyKind::kTree, 1, 0xb68a10d23a0e3263ull},
        TrainerGolden{"dgc", StrategyKind::kTree, 2, 0x26f47628afe2a507ull}));

}  // namespace
}  // namespace hipress
