#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "src/common/rng.h"
#include "src/compress/adacomp.h"
#include "src/compress/dgc.h"
#include "src/compress/graddrop.h"
#include "src/compress/onebit.h"
#include "src/compress/oss_baselines.h"
#include "src/compress/registry.h"
#include "src/compress/sparse_format.h"
#include "src/compress/tbq.h"
#include "src/compress/terngrad.h"
#include "tests/simd_test_util.h"

namespace hipress {
namespace {

Tensor RandomGradient(size_t size, uint64_t seed, float stddev = 1.0f) {
  Rng rng(seed);
  Tensor tensor("g", size);
  tensor.FillGaussian(rng, stddev);
  return tensor;
}

// ------------------------------------------------------------------ onebit

TEST(OnebitTest, RoundTripValuesAreSignedMeans) {
  OnebitCompressor codec;
  Tensor gradient = RandomGradient(1000, 1);
  ByteBuffer encoded;
  ASSERT_TRUE(codec.Encode(gradient.span(), &encoded).ok());
  std::vector<float> decoded(1000);
  ASSERT_TRUE(codec.Decode(encoded, decoded).ok());

  double pos_sum = 0.0;
  double neg_sum = 0.0;
  size_t pos_count = 0;
  for (size_t i = 0; i < gradient.size(); ++i) {
    if (gradient[i] >= 0) {
      pos_sum += gradient[i];
      ++pos_count;
    } else {
      neg_sum += gradient[i];
    }
  }
  const float pos_mean = static_cast<float>(pos_sum / pos_count);
  const float neg_mean =
      static_cast<float>(neg_sum / (gradient.size() - pos_count));
  for (size_t i = 0; i < gradient.size(); ++i) {
    if (gradient[i] >= 0) {
      EXPECT_FLOAT_EQ(decoded[i], pos_mean) << i;
    } else {
      EXPECT_FLOAT_EQ(decoded[i], neg_mean) << i;
    }
  }
}

TEST(OnebitTest, CompressedSizeIsOneBitPerElementPlusHeader) {
  OnebitCompressor codec;
  EXPECT_EQ(codec.MaxEncodedSize(800), 12u + 100u);
  // ~96.9% reduction for large gradients (Section 2.4).
  EXPECT_NEAR(codec.CompressionRate(1 << 20), 1.0 / 32, 1e-4);
}

TEST(OnebitTest, DecodeAddMatchesDecodePlusAdd) {
  OnebitCompressor codec;
  Tensor gradient = RandomGradient(257, 2);
  ByteBuffer encoded;
  ASSERT_TRUE(codec.Encode(gradient.span(), &encoded).ok());
  std::vector<float> base(257, 0.5f);
  std::vector<float> via_add = base;
  ASSERT_TRUE(codec.DecodeAdd(encoded, via_add).ok());
  std::vector<float> decoded(257);
  ASSERT_TRUE(codec.Decode(encoded, decoded).ok());
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_FLOAT_EQ(via_add[i], base[i] + decoded[i]);
  }
}

TEST(OnebitTest, AllPositiveAndAllNegativeInputs) {
  OnebitCompressor codec;
  Tensor positive("p", 64);
  positive.Fill(2.0f);
  ByteBuffer encoded;
  ASSERT_TRUE(codec.Encode(positive.span(), &encoded).ok());
  std::vector<float> decoded(64);
  ASSERT_TRUE(codec.Decode(encoded, decoded).ok());
  for (float v : decoded) {
    EXPECT_FLOAT_EQ(v, 2.0f);
  }

  Tensor negative("n", 64);
  negative.Fill(-3.0f);
  ASSERT_TRUE(codec.Encode(negative.span(), &encoded).ok());
  ASSERT_TRUE(codec.Decode(encoded, decoded).ok());
  for (float v : decoded) {
    EXPECT_FLOAT_EQ(v, -3.0f);
  }
}

TEST(OnebitTest, RejectsMismatchedOutputSize) {
  OnebitCompressor codec;
  Tensor gradient = RandomGradient(100, 3);
  ByteBuffer encoded;
  ASSERT_TRUE(codec.Encode(gradient.span(), &encoded).ok());
  std::vector<float> wrong(99);
  EXPECT_FALSE(codec.Decode(encoded, wrong).ok());
}

TEST(OnebitTest, RejectsTruncatedBuffer) {
  OnebitCompressor codec;
  Tensor gradient = RandomGradient(100, 4);
  ByteBuffer encoded;
  ASSERT_TRUE(codec.Encode(gradient.span(), &encoded).ok());
  ByteBuffer truncated(
      std::vector<uint8_t>(encoded.data(), encoded.data() + 13));
  std::vector<float> out(100);
  EXPECT_FALSE(codec.Decode(truncated, out).ok());
}

TEST(OnebitTest, EncodedElementCount) {
  OnebitCompressor codec;
  Tensor gradient = RandomGradient(12345, 5);
  ByteBuffer encoded;
  ASSERT_TRUE(codec.Encode(gradient.span(), &encoded).ok());
  auto count = codec.EncodedElementCount(encoded);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 12345u);
}

// --------------------------------------------------------------------- tbq

TEST(TbqTest, QuantizesToThreeLevels) {
  CompressorParams params;
  params.threshold = 0.5f;
  TbqCompressor codec(params);
  Tensor gradient = RandomGradient(1000, 6);
  ByteBuffer encoded;
  ASSERT_TRUE(codec.Encode(gradient.span(), &encoded).ok());
  std::vector<float> decoded(1000);
  ASSERT_TRUE(codec.Decode(encoded, decoded).ok());
  for (size_t i = 0; i < gradient.size(); ++i) {
    if (gradient[i] > 0.5f) {
      EXPECT_FLOAT_EQ(decoded[i], 0.5f);
    } else if (gradient[i] < -0.5f) {
      EXPECT_FLOAT_EQ(decoded[i], -0.5f);
    } else {
      EXPECT_FLOAT_EQ(decoded[i], 0.0f);
    }
  }
}

TEST(TbqTest, TwoBitsPerElement) {
  CompressorParams params;
  TbqCompressor codec(params);
  EXPECT_EQ(codec.MaxEncodedSize(400), 8u + 100u);
  EXPECT_NEAR(codec.CompressionRate(1 << 20), 1.0 / 16, 1e-4);
}

TEST(TbqTest, DecodeAddAccumulates) {
  CompressorParams params;
  params.threshold = 0.1f;
  TbqCompressor codec(params);
  Tensor gradient = RandomGradient(123, 7);
  ByteBuffer encoded;
  ASSERT_TRUE(codec.Encode(gradient.span(), &encoded).ok());
  std::vector<float> accum(123, 1.0f);
  ASSERT_TRUE(codec.DecodeAdd(encoded, accum).ok());
  std::vector<float> decoded(123);
  ASSERT_TRUE(codec.Decode(encoded, decoded).ok());
  for (size_t i = 0; i < accum.size(); ++i) {
    EXPECT_FLOAT_EQ(accum[i], 1.0f + decoded[i]);
  }
}

TEST(TbqTest, ZeroInputEncodesToZeros) {
  CompressorParams params;
  params.threshold = 0.05f;
  TbqCompressor codec(params);
  Tensor zeros("z", 77);
  ByteBuffer encoded;
  ASSERT_TRUE(codec.Encode(zeros.span(), &encoded).ok());
  std::vector<float> decoded(77, 9.0f);
  ASSERT_TRUE(codec.Decode(encoded, decoded).ok());
  for (float v : decoded) {
    EXPECT_FLOAT_EQ(v, 0.0f);
  }
}

// ---------------------------------------------------------------- terngrad

TEST(TernGradTest, ReconstructionWithinOneGap) {
  CompressorParams params;
  params.bitwidth = 2;
  TernGradCompressor codec(params);
  Tensor gradient = RandomGradient(5000, 8);
  ByteBuffer encoded;
  ASSERT_TRUE(codec.Encode(gradient.span(), &encoded).ok());
  std::vector<float> decoded(5000);
  ASSERT_TRUE(codec.Decode(encoded, decoded).ok());

  float min_v = gradient[0];
  float max_v = gradient[0];
  for (size_t i = 0; i < gradient.size(); ++i) {
    min_v = std::min(min_v, gradient[i]);
    max_v = std::max(max_v, gradient[i]);
  }
  const float gap = (max_v - min_v) / 3.0f;
  for (size_t i = 0; i < gradient.size(); ++i) {
    EXPECT_LE(std::abs(decoded[i] - gradient[i]), gap * 1.0001f) << i;
  }
}

TEST(TernGradTest, StochasticRoundingIsUnbiased) {
  // Mean reconstruction error over many elements should be near zero.
  CompressorParams params;
  params.bitwidth = 2;
  TernGradCompressor codec(params);
  Tensor gradient = RandomGradient(200000, 9);
  ByteBuffer encoded;
  ASSERT_TRUE(codec.Encode(gradient.span(), &encoded).ok());
  std::vector<float> decoded(gradient.size());
  ASSERT_TRUE(codec.Decode(encoded, decoded).ok());
  double bias = 0.0;
  for (size_t i = 0; i < gradient.size(); ++i) {
    bias += static_cast<double>(decoded[i]) - gradient[i];
  }
  bias /= static_cast<double>(gradient.size());
  // Gap is ~2.8 for N(0,1) over 200k samples; bias should be tiny.
  EXPECT_LT(std::abs(bias), 0.02);
}

TEST(TernGradTest, ConstantTensorIsExact) {
  CompressorParams params;
  params.bitwidth = 2;
  TernGradCompressor codec(params);
  Tensor constant("c", 50);
  constant.Fill(1.25f);
  ByteBuffer encoded;
  ASSERT_TRUE(codec.Encode(constant.span(), &encoded).ok());
  std::vector<float> decoded(50);
  ASSERT_TRUE(codec.Decode(encoded, decoded).ok());
  for (float v : decoded) {
    EXPECT_FLOAT_EQ(v, 1.25f);
  }
}

TEST(TernGradTest, RejectsInvalidBitwidth) {
  CompressorParams params;
  params.bitwidth = 3;
  TernGradCompressor codec(params);
  Tensor gradient = RandomGradient(10, 10);
  ByteBuffer encoded;
  EXPECT_FALSE(codec.Encode(gradient.span(), &encoded).ok());
}

TEST(TernGradTest, DeterministicForFixedSeed) {
  CompressorParams params;
  params.bitwidth = 2;
  params.seed = 777;
  TernGradCompressor codec(params);
  Tensor gradient = RandomGradient(4096, 11);
  ByteBuffer a;
  ByteBuffer b;
  ASSERT_TRUE(codec.Encode(gradient.span(), &a).ok());
  ASSERT_TRUE(codec.Encode(gradient.span(), &b).ok());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0);
}

class TernGradBitwidthTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(TernGradBitwidthTest, RoundTripBoundScalesWithBitwidth) {
  CompressorParams params;
  params.bitwidth = GetParam();
  TernGradCompressor codec(params);
  Tensor gradient = RandomGradient(10000, 12 + GetParam());
  ByteBuffer encoded;
  ASSERT_TRUE(codec.Encode(gradient.span(), &encoded).ok());
  std::vector<float> decoded(gradient.size());
  ASSERT_TRUE(codec.Decode(encoded, decoded).ok());
  float min_v = gradient[0];
  float max_v = gradient[0];
  for (size_t i = 0; i < gradient.size(); ++i) {
    min_v = std::min(min_v, gradient[i]);
    max_v = std::max(max_v, gradient[i]);
  }
  const float gap =
      (max_v - min_v) / static_cast<float>((1u << GetParam()) - 1);
  double max_err = 0.0;
  for (size_t i = 0; i < gradient.size(); ++i) {
    max_err = std::max(
        max_err, std::abs(static_cast<double>(decoded[i]) - gradient[i]));
  }
  EXPECT_LE(max_err, gap * 1.0001);
  // Higher bitwidth -> bigger payload.
  EXPECT_NEAR(codec.CompressionRate(1 << 20),
              static_cast<double>(GetParam()) / 32.0, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Bitwidths, TernGradBitwidthTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

// --------------------------------------------------------------------- dgc

TEST(DgcTest, KeepsTargetFractionExactPath) {
  CompressorParams params;
  params.sparsity_ratio = 0.01;
  DgcCompressor codec(params);
  Tensor gradient = RandomGradient(10000, 20);
  ByteBuffer encoded;
  ASSERT_TRUE(codec.Encode(gradient.span(), &encoded).ok());
  auto view = SparseParse(encoded);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->count, 10000u);
  EXPECT_EQ(view->k, 100u);
}

TEST(DgcTest, SelectedElementsAreTheLargest) {
  CompressorParams params;
  params.sparsity_ratio = 0.01;
  DgcCompressor codec(params);
  Tensor gradient = RandomGradient(4096, 21);
  ByteBuffer encoded;
  ASSERT_TRUE(codec.Encode(gradient.span(), &encoded).ok());
  auto view = SparseParse(encoded);
  ASSERT_TRUE(view.ok());

  // The smallest selected magnitude must be >= the largest dropped one.
  std::set<uint32_t> selected(view->indices, view->indices + view->k);
  float min_selected = 1e30f;
  for (uint32_t i = 0; i < view->k; ++i) {
    min_selected =
        std::min(min_selected, std::abs(view->values[i]));
  }
  float max_dropped = 0.0f;
  for (size_t i = 0; i < gradient.size(); ++i) {
    if (selected.count(static_cast<uint32_t>(i)) == 0) {
      max_dropped = std::max(max_dropped, std::abs(gradient[i]));
    }
  }
  EXPECT_GE(min_selected, max_dropped);
}

TEST(DgcTest, IndicesAreSortedUniqueAndValuesMatch) {
  CompressorParams params;
  params.sparsity_ratio = 0.005;
  DgcCompressor codec(params);
  Tensor gradient = RandomGradient(50000, 22);
  ByteBuffer encoded;
  ASSERT_TRUE(codec.Encode(gradient.span(), &encoded).ok());
  auto view = SparseParse(encoded);
  ASSERT_TRUE(view.ok());
  for (uint32_t i = 1; i < view->k; ++i) {
    EXPECT_LT(view->indices[i - 1], view->indices[i]);
  }
  for (uint32_t i = 0; i < view->k; ++i) {
    EXPECT_FLOAT_EQ(view->values[i], gradient[view->indices[i]]);
  }
}

TEST(DgcTest, DecodeScattersAndZeroFills) {
  CompressorParams params;
  params.sparsity_ratio = 0.01;
  DgcCompressor codec(params);
  Tensor gradient = RandomGradient(2000, 23);
  ByteBuffer encoded;
  ASSERT_TRUE(codec.Encode(gradient.span(), &encoded).ok());
  std::vector<float> decoded(2000, 42.0f);
  ASSERT_TRUE(codec.Decode(encoded, decoded).ok());
  auto view = SparseParse(encoded);
  ASSERT_TRUE(view.ok());
  std::set<uint32_t> selected(view->indices, view->indices + view->k);
  for (size_t i = 0; i < decoded.size(); ++i) {
    if (selected.count(static_cast<uint32_t>(i)) > 0) {
      EXPECT_FLOAT_EQ(decoded[i], gradient[i]);
    } else {
      EXPECT_FLOAT_EQ(decoded[i], 0.0f);
    }
  }
}

TEST(DgcTest, SampledPathStaysNearTarget) {
  CompressorParams params;
  params.sparsity_ratio = 0.001;
  DgcCompressor codec(params);
  // Large enough to take the sampled-threshold path.
  Tensor gradient = RandomGradient(1 << 20, 24);
  ByteBuffer encoded;
  ASSERT_TRUE(codec.Encode(gradient.span(), &encoded).ok());
  auto view = SparseParse(encoded);
  ASSERT_TRUE(view.ok());
  const double target = 1048576 * 0.001;
  EXPECT_LE(view->k, static_cast<uint32_t>(target) + 1);
  EXPECT_GE(view->k, static_cast<uint32_t>(target * 0.3));
}

TEST(DgcTest, AllZeroGradientStillSendsOneElement) {
  CompressorParams params;
  params.sparsity_ratio = 0.001;
  DgcCompressor codec(params);
  Tensor zeros("z", 1000);
  ByteBuffer encoded;
  ASSERT_TRUE(codec.Encode(zeros.span(), &encoded).ok());
  auto view = SparseParse(encoded);
  ASSERT_TRUE(view.ok());
  EXPECT_GE(view->k, 1u);
}

class DgcRatioTest : public ::testing::TestWithParam<double> {};

TEST_P(DgcRatioTest, CompressionRateTracksRatio) {
  CompressorParams params;
  params.sparsity_ratio = GetParam();
  DgcCompressor codec(params);
  // Sparse payload: 8 bytes per kept element vs 4 per original.
  EXPECT_NEAR(codec.CompressionRate(1 << 20), GetParam() * 2.0, 0.01);
  Tensor gradient = RandomGradient(100000, 25);
  ByteBuffer encoded;
  ASSERT_TRUE(codec.Encode(gradient.span(), &encoded).ok());
  std::vector<float> decoded(gradient.size());
  EXPECT_TRUE(codec.Decode(encoded, decoded).ok());
}

INSTANTIATE_TEST_SUITE_P(Ratios, DgcRatioTest,
                         ::testing::Values(0.001, 0.01, 0.05));

// ---------------------------------------------------------------- graddrop

TEST(GradDropTest, KeepsApproximatelyTargetFraction) {
  CompressorParams params;
  params.sparsity_ratio = 0.01;
  GradDropCompressor codec(params);
  Tensor gradient = RandomGradient(100000, 30);
  ByteBuffer encoded;
  ASSERT_TRUE(codec.Encode(gradient.span(), &encoded).ok());
  auto view = SparseParse(encoded);
  ASSERT_TRUE(view.ok());
  EXPECT_GT(view->k, 100000 * 0.003);
  EXPECT_LT(view->k, 100000 * 0.03);
}

TEST(GradDropTest, RoundTripPreservesKeptValues) {
  CompressorParams params;
  params.sparsity_ratio = 0.02;
  GradDropCompressor codec(params);
  Tensor gradient = RandomGradient(5000, 31);
  ByteBuffer encoded;
  ASSERT_TRUE(codec.Encode(gradient.span(), &encoded).ok());
  std::vector<float> decoded(5000);
  ASSERT_TRUE(codec.Decode(encoded, decoded).ok());
  for (size_t i = 0; i < decoded.size(); ++i) {
    if (decoded[i] != 0.0f) {
      EXPECT_FLOAT_EQ(decoded[i], gradient[i]);
    }
  }
}

TEST(GradDropTest, IsSparseAndDgcToo) {
  CompressorParams params;
  EXPECT_TRUE(GradDropCompressor(params).is_sparse());
  EXPECT_TRUE(DgcCompressor(params).is_sparse());
  EXPECT_FALSE(OnebitCompressor(params).is_sparse());
  EXPECT_FALSE(TbqCompressor(params).is_sparse());
  EXPECT_FALSE(TernGradCompressor(params).is_sparse());
}

// ---------------------------------------------------------------- adacomp

TEST(AdaCompTest, KeepsBinLocalMaxima) {
  CompressorParams params;
  params.threshold = 1.0f;  // selectivity 1.0: only each bin's max survives
  AdaCompCompressor codec(params);
  Tensor gradient = RandomGradient(4 * AdaCompCompressor::kBinSize, 40);
  ByteBuffer encoded;
  ASSERT_TRUE(codec.Encode(gradient.span(), &encoded).ok());
  auto view = SparseParse(encoded);
  ASSERT_TRUE(view.ok());
  // At selectivity 1.0 each bin keeps exactly its argmax (ties aside).
  EXPECT_GE(view->k, 4u);
  EXPECT_LE(view->k, 8u);
  for (uint32_t i = 0; i < view->k; ++i) {
    const size_t bin = view->indices[i] / AdaCompCompressor::kBinSize;
    float local_max = 0.0f;
    const size_t begin = bin * AdaCompCompressor::kBinSize;
    const size_t end =
        std::min(gradient.size(), begin + AdaCompCompressor::kBinSize);
    for (size_t j = begin; j < end; ++j) {
      local_max = std::max(local_max, std::abs(gradient[j]));
    }
    EXPECT_FLOAT_EQ(std::abs(view->values[i]), local_max);
  }
}

TEST(AdaCompTest, LowerSelectivityKeepsMore) {
  Tensor gradient = RandomGradient(1 << 16, 41);
  auto count_kept = [&](float selectivity) {
    CompressorParams params;
    params.threshold = selectivity;
    AdaCompCompressor codec(params);
    ByteBuffer encoded;
    EXPECT_TRUE(codec.Encode(gradient.span(), &encoded).ok());
    auto view = SparseParse(encoded);
    EXPECT_TRUE(view.ok());
    return view->k;
  };
  EXPECT_GT(count_kept(0.5f), count_kept(0.9f));
}

TEST(AdaCompTest, AdaptsToBinSparsity) {
  // A gradient that is flat in one half and spiky in the other: the spiky
  // bins keep ~1 element, the flat bins keep many (everything ties the
  // local max) — the "adaptive" in AdaComp.
  CompressorParams params;
  params.threshold = 0.99f;
  AdaCompCompressor codec(params);
  const size_t bin = AdaCompCompressor::kBinSize;
  Tensor gradient("g", 2 * bin);
  for (size_t i = 0; i < bin; ++i) {
    gradient[i] = 1.0f;  // flat bin: all elements tie
  }
  gradient[bin] = 100.0f;  // spiky bin: single dominant element
  for (size_t i = bin + 1; i < 2 * bin; ++i) {
    gradient[i] = 0.01f;
  }
  ByteBuffer encoded;
  ASSERT_TRUE(codec.Encode(gradient.span(), &encoded).ok());
  auto view = SparseParse(encoded);
  ASSERT_TRUE(view.ok());
  size_t flat = 0;
  size_t spiky = 0;
  for (uint32_t i = 0; i < view->k; ++i) {
    (view->indices[i] < bin ? flat : spiky) += 1;
  }
  EXPECT_EQ(flat, bin);   // whole flat bin survives
  EXPECT_EQ(spiky, 1u);   // only the spike survives
}

TEST(AdaCompTest, ZeroBinsSendNothing) {
  CompressorParams params;
  AdaCompCompressor codec(params);
  Tensor zeros("z", 4096);
  ByteBuffer encoded;
  ASSERT_TRUE(codec.Encode(zeros.span(), &encoded).ok());
  auto view = SparseParse(encoded);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->k, 0u);
}

// ------------------------------------------------------------ sparse format

TEST(SparseFormatTest, RejectsCorruptPayloads) {
  ByteBuffer bogus(std::vector<uint8_t>{1, 2, 3});
  EXPECT_FALSE(SparseParse(bogus).ok());

  // k > count.
  ByteBuffer bad;
  bad.Append<uint32_t>(2);
  bad.Append<uint32_t>(5);
  EXPECT_FALSE(SparseParse(bad).ok());
}

TEST(SparseFormatTest, RejectsOutOfRangeIndexOnDecode) {
  std::vector<uint32_t> indices = {9};  // out of range for count=5
  std::vector<float> values = {1.0f};
  ByteBuffer buffer;
  SparseEncode(5, indices, values, &buffer);
  std::vector<float> out(5);
  EXPECT_FALSE(SparseDecode(buffer, out).ok());
}

TEST(SparseFormatTest, EmptyPayloadRoundTrip) {
  ByteBuffer buffer;
  SparseEncode(0, {}, {}, &buffer);
  auto view = SparseParse(buffer);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->count, 0u);
  EXPECT_EQ(view->k, 0u);
}

// ---------------------------------------------------------------- registry

TEST(RegistryTest, CreatesAllBuiltins) {
  for (const char* name : {"onebit", "tbq", "terngrad", "dgc", "graddrop",
                           "oss-onebit", "oss-tbq", "oss-terngrad",
                           "oss-dgc"}) {
    auto codec = CreateCompressor(name);
    ASSERT_TRUE(codec.ok()) << name;
    EXPECT_EQ((*codec)->name(), name);
  }
}

TEST(RegistryTest, UnknownNameFails) {
  EXPECT_FALSE(CreateCompressor("no-such-algorithm").ok());
}

TEST(RegistryTest, DuplicateRegistrationRejected) {
  auto& registry = CompressorRegistry::Instance();
  const Status status = registry.Register(
      "onebit", [](const CompressorParams& params) {
        return std::make_unique<OnebitCompressor>(params);
      });
  EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
}

TEST(RegistryTest, NamesListsEverything) {
  const auto names = CompressorRegistry::Instance().Names();
  EXPECT_GE(names.size(), 9u);
}

// ----------------------------------------------- parameterized round trips

struct RoundTripCase {
  const char* algorithm;
  size_t size;
};

class RoundTripTest : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(RoundTripTest, EncodeDecodeSucceedsAtAllSizes) {
  const auto& param = GetParam();
  CompressorParams params;
  params.sparsity_ratio = 0.05;
  auto codec = CreateCompressor(param.algorithm, params);
  ASSERT_TRUE(codec.ok());
  Tensor gradient = RandomGradient(param.size, 1000 + param.size);
  ByteBuffer encoded;
  ASSERT_TRUE((*codec)->Encode(gradient.span(), &encoded).ok());
  EXPECT_LE(encoded.size(), (*codec)->MaxEncodedSize(param.size));
  std::vector<float> decoded(param.size);
  ASSERT_TRUE((*codec)->Decode(encoded, decoded).ok());
  auto count = (*codec)->EncodedElementCount(encoded);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, param.size);
}

// ------------------------------------------------------------- golden bytes
//
// FNV-1a fingerprints of encoded sparsifier output, recorded from the
// original scalar implementations. Every SIMD tier must reproduce them
// exactly: the wire bytes, and with them every training result built on
// these codecs, are part of the contract (docs/KERNELS.md).

uint64_t Fnv1a(const ByteBuffer& buffer) {
  uint64_t hash = 1469598103934665603ull;
  for (size_t i = 0; i < buffer.size(); ++i) {
    hash = (hash ^ buffer.data()[i]) * 1099511628211ull;
  }
  return hash;
}

// Magnitudes drawn from five levels, so thousands of elements tie at the
// selection threshold and DGC must trim the overshoot.
Tensor TieHeavyGradient(size_t size) {
  Tensor tensor("ties", size);
  for (size_t i = 0; i < size; ++i) {
    const float magnitude = static_cast<float>((i * 7919) % 5) * 0.25f;
    tensor[i] = (i % 3 == 0) ? -magnitude : magnitude;
  }
  return tensor;
}

struct GoldenCase {
  const char* algorithm;
  unsigned bitwidth;
  double ratio;
  size_t size;
  bool ties;
  uint64_t fingerprint;
};

std::ostream& operator<<(std::ostream& os, const GoldenCase& c) {
  return os << c.algorithm << "/bits" << c.bitwidth << "/ratio" << c.ratio
            << "/n" << c.size << (c.ties ? "/ties" : "");
}

class GoldenBytesTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenBytesTest, EncodedBytesMatchAtEveryTier) {
  const GoldenCase& c = GetParam();
  CompressorParams params;
  params.bitwidth = c.bitwidth;
  params.sparsity_ratio = c.ratio;
  auto codec = CreateCompressor(c.algorithm, params);
  ASSERT_TRUE(codec.ok());
  const Tensor gradient =
      c.ties ? TieHeavyGradient(c.size) : RandomGradient(c.size, 4000 + c.size);
  for (SimdTier tier : AvailableTiers()) {
    SimdTierGuard guard(tier);
    ByteBuffer encoded;
    ASSERT_TRUE((*codec)->Encode(gradient.span(), &encoded).ok());
    EXPECT_EQ(Fnv1a(encoded), c.fingerprint)
        << "tier " << SimdTierName(tier) << ": got 0x" << std::hex
        << Fnv1a(encoded);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sparsifiers, GoldenBytesTest,
    ::testing::Values(
        GoldenCase{"terngrad", 1, 0, 37, false, 0xda9a9f2b71c5aebfull},
        GoldenCase{"terngrad", 2, 0, 37, false, 0x8fd2f90a74ac6e65ull},
        GoldenCase{"terngrad", 4, 0, 37, false, 0xb8ae25c8faf19a0cull},
        GoldenCase{"terngrad", 8, 0, 37, false, 0x71565bdf5c6c59b6ull},
        GoldenCase{"terngrad", 1, 0, 100003, false, 0x7664d0cc2e9f1a7cull},
        GoldenCase{"terngrad", 2, 0, 100003, false, 0x3252d726b9ef6c85ull},
        GoldenCase{"terngrad", 4, 0, 100003, false, 0x933033b986642a36ull},
        GoldenCase{"terngrad", 8, 0, 100003, false, 0x1fa795bb18d04942ull},
        GoldenCase{"dgc", 0, 0.01, 16, false, 0x1bba7309390fd5a5ull},
        GoldenCase{"dgc", 0, 0.01, 1024, false, 0x457fde3dcdda6285ull},
        GoldenCase{"dgc", 0, 0.01, 65536, false, 0xf88c27ba16d5a8f7ull},
        GoldenCase{"dgc", 0, 0.01, 65537, false, 0xb65cd94483f32dbfull},
        GoldenCase{"dgc", 0, 0.01, 131072, false, 0x6794ed5b345632e9ull},
        GoldenCase{"dgc", 0, 0.001, 16, false, 0x1bba7309390fd5a5ull},
        GoldenCase{"dgc", 0, 0.001, 1024, false, 0x58a8d02708ad59b8ull},
        GoldenCase{"dgc", 0, 0.001, 65536, false, 0x1dc2ce70ec528248ull},
        GoldenCase{"dgc", 0, 0.001, 65537, false, 0x688e76c4c7f32aaaull},
        GoldenCase{"dgc", 0, 0.001, 131072, false, 0x5014969e8370a5abull},
        // Gradients the scan splits into shards shorter than its grain.
        GoldenCase{"dgc", 0, 0.01, 300000, false, 0xe5d65737d629b0c4ull},
        GoldenCase{"dgc", 0, 0.001, 300000, false, 0x36f4d9a7a8da2f62ull},
        GoldenCase{"dgc", 0, 0.01, 600000, false, 0x203cce07eeb7821cull},
        GoldenCase{"dgc", 0, 0.001, 600000, false, 0xd3cbf6047dd292daull},
        GoldenCase{"dgc", 0, 0.01, 4096, true, 0x5a99af6f06bba616ull},
        GoldenCase{"dgc", 0, 0.01, 131072, true, 0xa23cd009b098782cull}));

// Non-finite input has one defined outcome, wherever the bad element sits
// (shard starts included) and at every tier: terngrad rejects NaN and
// infinities, whose range cannot be quantized; dgc rejects NaN, which has
// no magnitude order, and ranks infinities like any other magnitude.
TEST(NonFiniteTest, SparsifiersRejectNaNAtEveryPositionAndTier) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  CompressorParams params;
  params.bitwidth = 4;
  params.sparsity_ratio = 0.01;
  const TernGradCompressor terngrad(params);
  const DgcCompressor dgc(params);
  for (size_t n : {1u, 100u, 65536u, 200000u}) {
    for (size_t pos : {size_t{0}, n / 2, size_t{64 * 1024}, n - 1}) {
      if (pos >= n) {
        continue;
      }
      for (SimdTier tier : AvailableTiers()) {
        SimdTierGuard guard(tier);
        Tensor gradient = RandomGradient(n, 50 + n);
        ByteBuffer encoded;
        gradient[pos] = nan;
        EXPECT_EQ(terngrad.Encode(gradient.span(), &encoded).code(),
                  StatusCode::kInvalidArgument)
            << "n=" << n << " pos=" << pos;
        EXPECT_EQ(dgc.Encode(gradient.span(), &encoded).code(),
                  StatusCode::kInvalidArgument)
            << "n=" << n << " pos=" << pos;
        gradient[pos] = -inf;
        EXPECT_EQ(terngrad.Encode(gradient.span(), &encoded).code(),
                  StatusCode::kInvalidArgument)
            << "n=" << n << " pos=" << pos;
        ASSERT_TRUE(dgc.Encode(gradient.span(), &encoded).ok());
        auto view = SparseParse(encoded);
        ASSERT_TRUE(view.ok());
        EXPECT_TRUE(std::find(view->indices, view->indices + view->k,
                              static_cast<uint32_t>(pos)) !=
                    view->indices + view->k)
            << "an infinite element is always among the largest";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndAlgorithms, RoundTripTest,
    ::testing::Values(
        RoundTripCase{"onebit", 1}, RoundTripCase{"onebit", 7},
        RoundTripCase{"onebit", 8}, RoundTripCase{"onebit", 4099},
        RoundTripCase{"tbq", 1}, RoundTripCase{"tbq", 5},
        RoundTripCase{"tbq", 4096}, RoundTripCase{"terngrad", 3},
        RoundTripCase{"terngrad", 4}, RoundTripCase{"terngrad", 4097},
        RoundTripCase{"dgc", 10}, RoundTripCase{"dgc", 65537},
        RoundTripCase{"graddrop", 10}, RoundTripCase{"graddrop", 30000},
        RoundTripCase{"oss-onebit", 9}, RoundTripCase{"oss-tbq", 9},
        RoundTripCase{"oss-terngrad", 9}, RoundTripCase{"oss-dgc", 100}));

}  // namespace
}  // namespace hipress
