#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "src/common/rng.h"
#include "src/compll/dsl_compressor.h"
#include "src/compress/error_feedback.h"
#include "src/compress/onebit.h"
#include "src/compress/registry.h"
#include "src/compress/tbq.h"
#include "tests/simd_test_util.h"

namespace hipress {
namespace {

std::shared_ptr<const Compressor> MakeShared(const char* name,
                                             CompressorParams params = {}) {
  auto codec = CreateCompressor(name, params);
  EXPECT_TRUE(codec.ok());
  return std::shared_ptr<const Compressor>(std::move(codec).value());
}

TEST(ErrorFeedbackTest, ResidualEqualsCompressionError) {
  auto codec = MakeShared("onebit");
  ErrorFeedback feedback(codec);
  Rng rng(1);
  Tensor gradient("g", 100);
  gradient.FillGaussian(rng);

  ByteBuffer encoded;
  std::vector<float> corrected(100);
  ASSERT_TRUE(
      feedback.Apply("g", gradient.span(), corrected, &encoded).ok());

  std::vector<float> decoded(100);
  ASSERT_TRUE(codec->Decode(encoded, decoded).ok());
  const auto residual = feedback.residual("g");
  ASSERT_EQ(residual.size(), 100u);
  for (size_t i = 0; i < 100; ++i) {
    // First step: corrected == gradient, so residual = g - decode(enc(g)).
    EXPECT_NEAR(residual[i], gradient[i] - decoded[i], 1e-6) << i;
  }
}

TEST(ErrorFeedbackTest, ResidualCarriesAcrossSteps) {
  CompressorParams params;
  params.threshold = 10.0f;  // TBQ quantizes everything to zero
  auto codec = MakeShared("tbq", params);
  ErrorFeedback feedback(codec);
  Tensor gradient("g", 10);
  gradient.Fill(1.0f);

  // With tau=10, every encode emits zeros; residual accumulates the full
  // gradient every step: after k steps residual = k * gradient.
  ByteBuffer encoded;
  std::vector<float> corrected(10);
  for (int step = 1; step <= 3; ++step) {
    ASSERT_TRUE(
        feedback.Apply("g", gradient.span(), corrected, &encoded).ok());
    const auto residual = feedback.residual("g");
    for (size_t i = 0; i < 10; ++i) {
      EXPECT_FLOAT_EQ(residual[i], static_cast<float>(step));
    }
  }
}

TEST(ErrorFeedbackTest, AccumulatedTransmissionApproachesAccumulatedGradient) {
  // The defining EF property: sum of decoded transmissions tracks the sum
  // of raw gradients with bounded lag.
  auto codec = MakeShared("onebit");
  ErrorFeedback feedback(codec);
  Rng rng(7);
  const size_t n = 200;
  std::vector<double> gradient_sum(n, 0.0);
  std::vector<double> sent_sum(n, 0.0);
  for (int step = 0; step < 50; ++step) {
    Tensor gradient("g", n);
    gradient.FillGaussian(rng, 0.5f);
    for (size_t i = 0; i < n; ++i) {
      gradient_sum[i] += gradient[i];
    }
    ByteBuffer encoded;
    std::vector<float> corrected(n);
    ASSERT_TRUE(
        feedback.Apply("g", gradient.span(), corrected, &encoded).ok());
    std::vector<float> decoded(n);
    ASSERT_TRUE(codec->Decode(encoded, decoded).ok());
    for (size_t i = 0; i < n; ++i) {
      sent_sum[i] += decoded[i];
    }
  }
  // The gap equals the current residual, which stays bounded.
  const auto residual = feedback.residual("g");
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(sent_sum[i] + residual[i], gradient_sum[i], 1e-3) << i;
  }
}

TEST(ErrorFeedbackTest, IndependentKeysKeepIndependentResiduals) {
  auto codec = MakeShared("onebit");
  ErrorFeedback feedback(codec);
  Tensor a("a", 10);
  a.Fill(1.0f);
  Tensor b("b", 20);
  b.Fill(-1.0f);
  ByteBuffer encoded;
  std::vector<float> corrected_a(10);
  std::vector<float> corrected_b(20);
  ASSERT_TRUE(feedback.Apply("a", a.span(), corrected_a, &encoded).ok());
  ASSERT_TRUE(feedback.Apply("b", b.span(), corrected_b, &encoded).ok());
  EXPECT_EQ(feedback.residual("a").size(), 10u);
  EXPECT_EQ(feedback.residual("b").size(), 20u);
  EXPECT_EQ(feedback.residual("c").size(), 0u);
}

TEST(ErrorFeedbackTest, ResetClearsState) {
  auto codec = MakeShared("onebit");
  ErrorFeedback feedback(codec);
  Tensor gradient("g", 10);
  gradient.Fill(1.0f);
  ByteBuffer encoded;
  std::vector<float> corrected(10);
  ASSERT_TRUE(
      feedback.Apply("g", gradient.span(), corrected, &encoded).ok());
  feedback.Reset();
  EXPECT_EQ(feedback.residual("g").size(), 0u);
}


// The textbook recipe with separate buffers and a zero-filled decode
// buffer, one pass per line: what ErrorFeedback::Apply must equal bit for
// bit.
class TextbookFeedback {
 public:
  Status Step(const Compressor& codec, std::span<const float> gradient,
              std::vector<float>* corrected, ByteBuffer* payload) {
    if (residual_.size() != gradient.size()) {
      residual_.assign(gradient.size(), 0.0f);
    }
    corrected->assign(gradient.size(), 0.0f);
    for (size_t i = 0; i < gradient.size(); ++i) {
      (*corrected)[i] = gradient[i] + residual_[i];
    }
    RETURN_IF_ERROR(codec.Encode(*corrected, payload));
    std::vector<float> decoded(gradient.size(), 0.0f);
    RETURN_IF_ERROR(codec.Decode(*payload, decoded));
    for (size_t i = 0; i < gradient.size(); ++i) {
      residual_[i] = (*corrected)[i] - decoded[i];
    }
    return OkStatus();
  }
  const std::vector<float>& residual() const { return residual_; }

 private:
  std::vector<float> residual_;
};

std::vector<uint8_t> Bytes(const ByteBuffer& buffer) {
  return std::vector<uint8_t>(buffer.data(), buffer.data() + buffer.size());
}

// Gaussian values with signed zeros and subnormals mixed in.
std::vector<float> AwkwardGradient(Rng& rng, size_t n) {
  std::vector<float> g(n);
  for (float& v : g) {
    v = static_cast<float>(rng.NextGaussian() * 0.1);
  }
  const float tiny = std::numeric_limits<float>::denorm_min();
  const float specials[] = {0.0f, -0.0f, tiny, -tiny, 37 * tiny,
                            -std::numeric_limits<float>::min() / 4};
  for (size_t i = 0; i < n; i += 3) {
    g[i] = specials[(i / 3) % std::size(specials)];
  }
  return g;
}

class ErrorFeedbackEquivalenceTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ErrorFeedbackEquivalenceTest, ApplyMatchesTextbookRecipeBitForBit) {
  ASSERT_TRUE(compll::DslCompressor::RegisterBuiltinsIntoRegistry().ok());
  CompressorParams params;
  params.bitwidth = 4;
  params.sparsity_ratio = 0.1;
  auto codec = MakeShared(GetParam(), params);
  ASSERT_NE(codec, nullptr);
  for (const size_t n : {1, 3, 15, 17, 100, 1003}) {
    ErrorFeedback feedback(codec);
    TextbookFeedback textbook;
    Rng rng(n);
    for (int step = 0; step < 4; ++step) {
      const std::vector<float> gradient = AwkwardGradient(rng, n);
      std::vector<float> corrected(n);
      ByteBuffer payload;
      ASSERT_TRUE(feedback.Apply("g", gradient, corrected, &payload).ok());
      std::vector<float> want_corrected;
      ByteBuffer want_payload;
      ASSERT_TRUE(
          textbook.Step(*codec, gradient, &want_corrected, &want_payload)
              .ok());
      EXPECT_TRUE(SameBits(corrected, want_corrected))
          << "corrected, n " << n << " step " << step;
      EXPECT_EQ(Bytes(payload), Bytes(want_payload))
          << "payload, n " << n << " step " << step;
      EXPECT_TRUE(SameBits(feedback.residual("g"), textbook.residual()))
          << "residual, n " << n << " step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Codecs, ErrorFeedbackEquivalenceTest,
                         ::testing::Values("onebit", "terngrad", "dgc",
                                           "graddrop", "dsl-terngrad"));

}  // namespace
}  // namespace hipress
