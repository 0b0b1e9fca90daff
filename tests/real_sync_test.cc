// Real tensors through the engine's PS, ring and tree task graphs
// (RealSync): exact sums without compression, one consistent pull with it,
// and data-bound graphs that time exactly like timing-only ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/casync/real_sync.h"
#include "src/common/rng.h"
#include "src/common/string_util.h"
#include "src/compress/registry.h"

namespace hipress {
namespace {

std::vector<Tensor> WorkerGradients(int workers, size_t size,
                                    uint64_t seed) {
  Rng root(seed);
  std::vector<Tensor> gradients;
  for (int w = 0; w < workers; ++w) {
    Rng rng = root.Fork(static_cast<uint64_t>(w));
    Tensor tensor("g", size);
    tensor.FillGaussian(rng);
    gradients.push_back(std::move(tensor));
  }
  return gradients;
}

Tensor ExactSum(const std::vector<Tensor>& inputs) {
  Tensor sum("sum", inputs[0].size());
  for (const Tensor& input : inputs) {
    sum.Add(input);
  }
  return sum;
}

// Synchronizes `inputs` once on a fresh cluster of inputs.size() nodes.
StatusOr<SimTime> Sync(StrategyKind strategy, const Compressor* codec,
                       const std::vector<Tensor>& inputs,
                       std::span<float> result, int partitions,
                       bool bulk = true) {
  SyncConfig config;
  config.strategy = strategy;
  config.num_nodes = static_cast<int>(inputs.size());
  config.bulk = bulk;
  RealSync sync(config, codec);
  RealGradient gradient;
  for (const Tensor& input : inputs) {
    gradient.inputs.push_back(input.span());
  }
  gradient.result = result;
  return sync.Run(std::span<const RealGradient>(&gradient, 1), partitions);
}

// Forwards to a codec and keeps the bytes of every Decode (the final pull
// decodes; merges go through DecodeAdd), keyed by the output range.
class RecordingCodec : public Compressor {
 public:
  explicit RecordingCodec(std::unique_ptr<Compressor> inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const override { return inner_->name(); }
  bool is_sparse() const override { return inner_->is_sparse(); }
  StatusOr<size_t> EncodeInto(std::span<const float> gradient,
                              std::span<uint8_t> out) const override {
    return inner_->EncodeInto(gradient, out);
  }
  Status Decode(const ByteBuffer& in, std::span<float> out) const override {
    pulls[out.data()].emplace_back(in.data(), in.data() + in.size());
    return inner_->Decode(in, out);
  }
  Status DecodeAdd(const ByteBuffer& in,
                   std::span<float> accum) const override {
    return inner_->DecodeAdd(in, accum);
  }
  StatusOr<size_t> EncodedElementCount(const ByteBuffer& in) const override {
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

  const Compressor& inner() const { return *inner_; }

  // Decoded payloads by the first element of the range they filled.
  mutable std::map<const float*, std::vector<std::vector<uint8_t>>> pulls;

 private:
  std::unique_ptr<Compressor> inner_;
};

struct RawCase {
  StrategyKind strategy;
  int workers;
  int partitions;
  size_t size;
};

class RawSyncTest : public ::testing::TestWithParam<RawCase> {};

TEST_P(RawSyncTest, MatchesExactSum) {
  const RawCase& param = GetParam();
  const auto inputs =
      WorkerGradients(param.workers, param.size, 42 + param.size);
  const Tensor expected = ExactSum(inputs);
  for (const bool bulk : {true, false}) {
    Tensor result("result", param.size);
    auto time = Sync(param.strategy, nullptr, inputs, result.span(),
                     param.partitions, bulk);
    ASSERT_TRUE(time.ok()) << time.status();
    EXPECT_GT(*time, 0);
    EXPECT_LT(MaxAbsDiff(result.span(), expected.span()), 1e-4)
        << "bulk " << bulk;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RawSyncTest,
    ::testing::Values(RawCase{StrategyKind::kPs, 2, 1, 100},
                      RawCase{StrategyKind::kPs, 4, 3, 1000},
                      RawCase{StrategyKind::kPs, 8, 8, 4096},
                      RawCase{StrategyKind::kPs, 3, 7, 65},
                      RawCase{StrategyKind::kTree, 2, 1, 100},
                      RawCase{StrategyKind::kTree, 5, 3, 1000},
                      RawCase{StrategyKind::kTree, 8, 8, 4096},
                      RawCase{StrategyKind::kRing, 2, 1, 100},
                      RawCase{StrategyKind::kRing, 4, 4, 1000},
                      RawCase{StrategyKind::kRing, 8, 3, 4096},
                      RawCase{StrategyKind::kRing, 5, 5, 63}));

struct CompressedCase {
  StrategyKind strategy;
  const char* algorithm;
  int workers;
  int partitions;
};

class CompressedSyncTest : public ::testing::TestWithParam<CompressedCase> {};

// Every node the aggregate reaches decodes the same pull bytes, and the
// result is what they decode to. A single node pulls its own encoding.
TEST_P(CompressedSyncTest, EveryNodeDecodesTheSamePull) {
  const CompressedCase& param = GetParam();
  CompressorParams codec_params;
  codec_params.sparsity_ratio = 0.05;
  const size_t size = 2048;
  const auto inputs = WorkerGradients(param.workers, size, 7);
  for (const bool bulk : {true, false}) {
    auto inner = CreateCompressor(param.algorithm, codec_params);
    ASSERT_TRUE(inner.ok());
    RecordingCodec codec(std::move(*inner));
    Tensor result("result", size);
    auto time = Sync(param.strategy, &codec, inputs, result.span(),
                     param.partitions, bulk);
    ASSERT_TRUE(time.ok()) << time.status();

    ASSERT_EQ(codec.pulls.size(), static_cast<size_t>(param.partitions));
    for (const auto& [first, pulls] : codec.pulls) {
      ASSERT_EQ(pulls.size(),
                static_cast<size_t>(std::max(1, param.workers - 1)));
      for (const auto& pull : pulls) {
        EXPECT_EQ(pull, pulls[0]) << param.algorithm << " bulk " << bulk;
      }
      const ByteBuffer bytes(pulls[0]);
      std::vector<float> decoded(*codec.inner().EncodedElementCount(bytes));
      ASSERT_TRUE(codec.inner().Decode(bytes, decoded).ok());
      EXPECT_EQ(MaxAbsDiff(std::span(first, decoded.size()), decoded), 0.0);
      if (param.workers == 1) {
        // decode(encode(sum)) with the sum being the lone input.
        ByteBuffer own;
        ASSERT_TRUE(codec.Encode(inputs[0].slice(first - result.data(),
                                                 decoded.size()),
                                 &own)
                        .ok());
        EXPECT_EQ(std::vector<uint8_t>(own.data(), own.data() + own.size()),
                  pulls[0]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsAndTopologies, CompressedSyncTest,
    ::testing::Values(
        CompressedCase{StrategyKind::kPs, "onebit", 4, 2},
        CompressedCase{StrategyKind::kPs, "terngrad", 4, 3},
        CompressedCase{StrategyKind::kPs, "tbq", 3, 1},
        CompressedCase{StrategyKind::kPs, "dgc", 4, 2},
        CompressedCase{StrategyKind::kPs, "graddrop", 4, 2},
        CompressedCase{StrategyKind::kPs, "onebit", 1, 2},
        CompressedCase{StrategyKind::kTree, "onebit", 4, 2},
        CompressedCase{StrategyKind::kTree, "terngrad", 5, 3},
        CompressedCase{StrategyKind::kTree, "dgc", 6, 2},
        CompressedCase{StrategyKind::kTree, "terngrad", 1, 3},
        CompressedCase{StrategyKind::kRing, "onebit", 4, 2},
        CompressedCase{StrategyKind::kRing, "terngrad", 5, 5},
        CompressedCase{StrategyKind::kRing, "tbq", 3, 2},
        CompressedCase{StrategyKind::kRing, "dgc", 4, 1},
        CompressedCase{StrategyKind::kRing, "graddrop", 4, 4},
        CompressedCase{StrategyKind::kRing, "dgc", 1, 2}));

TEST(CompressedSyncAccuracyTest, TernGradStaysWithinAggregateGap) {
  // PS with TernGrad: each of the N-1 pushes quantizes within one gap of
  // its input, the pull adds one more stage; the total deviation from the
  // exact sum is bounded by the sum of stage gaps.
  CompressorParams params;
  params.bitwidth = 8;  // fine quantization for a tight bound
  auto codec = CreateCompressor("terngrad", params);
  ASSERT_TRUE(codec.ok());
  const auto inputs = WorkerGradients(4, 4096, 21);
  Tensor result("result", 4096);
  ASSERT_TRUE(
      Sync(StrategyKind::kPs, codec->get(), inputs, result.span(), 2).ok());
  // Each worker's range is ~[-4.5, 4.5]; gap ~ 9/255 ~ 0.035. Aggregate
  // passes multiply the error; 1.0 is a comfortably tight envelope compared
  // to gradient magnitudes (~4).
  EXPECT_LT(MaxAbsDiff(result.span(), ExactSum(inputs).span()), 1.0);
}

TEST(CompressedSyncAccuracyTest, OnebitPreservesAggregateSignStructure) {
  auto codec = CreateCompressor("onebit");
  ASSERT_TRUE(codec.ok());
  // Strongly-signed inputs: all workers agree on each element's sign.
  Rng rng(5);
  std::vector<Tensor> inputs;
  Tensor signs("s", 512);
  signs.FillGaussian(rng);
  for (int w = 0; w < 4; ++w) {
    Tensor tensor("g", 512);
    for (size_t i = 0; i < 512; ++i) {
      tensor[i] = (signs[i] >= 0 ? 1.0f : -1.0f) *
                  (0.5f + 0.5f * rng.NextFloat());
    }
    inputs.push_back(std::move(tensor));
  }
  Tensor result("result", 512);
  ASSERT_TRUE(
      Sync(StrategyKind::kRing, codec->get(), inputs, result.span(), 2).ok());
  for (size_t i = 0; i < 512; ++i) {
    EXPECT_EQ(result[i] >= 0, signs[i] >= 0) << i;
  }
}

TEST(RealSyncTest, RejectsMismatchedWorkerSizes) {
  std::vector<Tensor> inputs;
  inputs.emplace_back("a", 10);
  inputs.emplace_back("b", 11);
  Tensor result("result", 10);
  EXPECT_FALSE(
      Sync(StrategyKind::kPs, nullptr, inputs, result.span(), 1).ok());
}

TEST(RealSyncTest, RejectsEmptyInput) {
  SyncConfig config;
  config.num_nodes = 2;
  RealSync sync(config, nullptr);
  const RealGradient gradient;
  EXPECT_FALSE(sync.Run(std::span<const RealGradient>(&gradient, 1), 1).ok());
}

TEST(RealSyncTest, MorePartitionsThanElements) {
  const auto inputs = WorkerGradients(3, 5, 11);
  Tensor result("result", 5);
  auto time = Sync(StrategyKind::kRing, nullptr, inputs, result.span(), 16);
  ASSERT_TRUE(time.ok()) << time.status();
  EXPECT_LT(MaxAbsDiff(result.span(), ExactSum(inputs).span()), 1e-4);
}

// Every task's record fields and dependents, in task order.
std::vector<std::vector<uint64_t>> Shape(const TaskGraph& graph) {
  std::vector<std::vector<uint64_t>> shape;
  for (TaskId id = 0; id < graph.size(); ++id) {
    const TaskRecord& task = graph.task(id);
    std::vector<uint64_t>& row = shape.emplace_back(std::vector<uint64_t>{
        static_cast<uint64_t>(task.type), static_cast<uint64_t>(task.node),
        static_cast<uint64_t>(task.peer), task.bytes, task.gradient_id,
        static_cast<uint64_t>(task.pending_deps)});
    for (const TaskId dependent : graph.dependents(id)) {
      row.push_back(dependent);
    }
  }
  return shape;
}

// A data binding adds actions and nothing else: the bound graph has the
// timing-only graph's records and edges, and a timing-only graph keeps no
// real-data fields at all.
TEST(RealSyncTest, BindingDataLeavesTheTimingGraphUnchanged) {
  auto codec = CreateCompressor("onebit");
  ASSERT_TRUE(codec.ok());
  for (const StrategyKind strategy :
       {StrategyKind::kPs, StrategyKind::kRing, StrategyKind::kTree}) {
    for (const bool compress : {false, true}) {
      for (const int n : {1, 2, 3, 4, 8}) {
        for (const int k : {1, 2, 3}) {
          SyncConfig config;
          config.strategy = strategy;
          config.num_nodes = n;
          GradientSync gradient;
          gradient.id = 5;
          gradient.bytes = 4096;
          gradient.compress = compress;
          gradient.partitions = k;
          gradient.rate = 0.05;

          const auto inputs = WorkerGradients(n, 7, 1);
          std::vector<std::span<const float>> spans;
          for (const Tensor& input : inputs) {
            spans.push_back(input.span());
          }
          Tensor result("result", 7);
          SyncWorkspace workspace;
          const SyncData data{spans, result.span(),
                              compress ? codec->get() : nullptr, &workspace};
          TaskGraph timing;
          TaskGraph bound;
          AppendSyncTasks(config, gradient, &timing);
          AppendSyncTasks(config, gradient, &bound, &data);

          const std::string where =
              StrFormat("%s compress=%d n=%d k=%d",
                        StrategyKindName(strategy), compress, n, k);
          EXPECT_EQ(Shape(bound), Shape(timing)) << where;
          for (TaskId id = 0; id < timing.size(); ++id) {
            EXPECT_EQ(timing.data(id), nullptr) << where << " task " << id;
          }
          EXPECT_NE(bound.data(0), nullptr) << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hipress
