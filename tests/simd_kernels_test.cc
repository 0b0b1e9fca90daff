// Cross-tier bit-identity tests for the hand-vectorized codec kernels
// (src/compress/simd_kernels.h). Every primitive is run at every SIMD tier
// the host supports and compared bit-for-bit against the scalar tier — on
// unaligned spans, on lengths that are not a multiple of any vector width,
// and on adversarial values (NaN, ±inf, ±0, subnormals, threshold ties).
#include "src/compress/simd_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/bitops.h"
#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/compress/compressor.h"
#include "src/compress/fp16.h"
#include "tests/simd_test_util.h"

namespace hipress {
namespace {

// Lengths that straddle every vector width (8, 16) and the reduce block.
const size_t kLengths[] = {0,  1,  7,   8,   9,    15,   16,  17,
                           31, 32, 33,  63,  64,   65,   100, 1023,
                           4095, 4096, 4097, 10000};

// Fills n floats starting at an intentionally misaligned pointer: the
// backing store is over-allocated and the span starts one element in, so
// every vector load/store in the kernels must tolerate arbitrary alignment.
class UnalignedSpan {
 public:
  explicit UnalignedSpan(size_t n) : storage_(n + 1), n_(n) {}
  float* data() { return storage_.data() + 1; }
  const float* data() const { return storage_.data() + 1; }
  size_t size() const { return n_; }

 private:
  std::vector<float> storage_;
  size_t n_;
};

void FillAdversarial(float* x, size_t n, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    switch (rng.NextBounded(12)) {
      case 0:
        x[i] = 0.0f;
        break;
      case 1:
        x[i] = -0.0f;
        break;
      case 2:
        x[i] = std::numeric_limits<float>::quiet_NaN();
        break;
      case 3:
        x[i] = std::numeric_limits<float>::infinity();
        break;
      case 4:
        x[i] = -std::numeric_limits<float>::infinity();
        break;
      case 5:
        x[i] = std::numeric_limits<float>::denorm_min();
        break;
      case 6:
        x[i] = -std::numeric_limits<float>::denorm_min();
        break;
      case 7:
        x[i] = 0.5f;  // exactly the TBQ threshold used below
        break;
      case 8:
        x[i] = -0.5f;
        break;
      case 9:
        x[i] = 65520.0f;  // fp16 overflow boundary (ties to inf)
        break;
      default:
        x[i] = static_cast<float>(rng.NextGaussian()) * 2.0f;
        break;
    }
  }
}

// Bit-pattern comparison: EXPECT_EQ on doubles rejects NaN == NaN, but a
// NaN sum (gradient containing NaN) must still be the *same* NaN bits.
uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(SimdKernelsTest, OnebitSignStatsBitIdenticalAcrossTiers) {
  for (size_t n : kLengths) {
    UnalignedSpan x(n);
    FillAdversarial(x.data(), n, /*seed=*/n * 7919 + 1);
    simd::SignStats ref;
    {
      SimdTierGuard guard(SimdTier::kScalar);
      ref = simd::OnebitSignStats(x.data(), n);
    }
    for (SimdTier tier : AvailableTiers()) {
      SimdTierGuard guard(tier);
      const simd::SignStats got = simd::OnebitSignStats(x.data(), n);
      // Exact bit equality: the lane schedule is fixed across tiers.
      EXPECT_EQ(DoubleBits(ref.pos_sum), DoubleBits(got.pos_sum))
          << "n=" << n << " tier=" << SimdTierName(tier);
      EXPECT_EQ(DoubleBits(ref.neg_sum), DoubleBits(got.neg_sum))
          << "n=" << n << " tier=" << SimdTierName(tier);
      EXPECT_EQ(ref.pos_count, got.pos_count)
          << "n=" << n << " tier=" << SimdTierName(tier);
    }
  }
}

TEST(SimdKernelsTest, OnebitPackUnpackBitIdenticalAcrossTiers) {
  for (size_t n : kLengths) {
    UnalignedSpan x(n);
    FillAdversarial(x.data(), n, /*seed=*/n * 104729 + 2);
    const size_t packed_bytes = PackedBytes(n, 1);
    std::vector<uint8_t> ref_packed(packed_bytes, 0xee);
    std::vector<float> ref_out(n), ref_accum(n, 0.25f);
    {
      SimdTierGuard guard(SimdTier::kScalar);
      simd::OnebitPackSigns(x.data(), n, ref_packed.data(), packed_bytes);
      simd::OnebitUnpackSigns(ref_packed.data(), n, -1.5f, 2.5f,
                              ref_out.data());
      simd::OnebitUnpackSignsAdd(ref_packed.data(), n, -1.5f, 2.5f,
                                 ref_accum.data());
    }
    for (SimdTier tier : AvailableTiers()) {
      SimdTierGuard guard(tier);
      std::vector<uint8_t> packed(packed_bytes, 0xee);
      simd::OnebitPackSigns(x.data(), n, packed.data(), packed_bytes);
      EXPECT_EQ(ref_packed, packed)
          << "n=" << n << " tier=" << SimdTierName(tier);
      std::vector<float> out(n), accum(n, 0.25f);
      simd::OnebitUnpackSigns(packed.data(), n, -1.5f, 2.5f, out.data());
      simd::OnebitUnpackSignsAdd(packed.data(), n, -1.5f, 2.5f,
                                 accum.data());
      EXPECT_TRUE(SameBits(ref_out, out))
          << "n=" << n << " tier=" << SimdTierName(tier);
      EXPECT_TRUE(SameBits(ref_accum, accum))
          << "n=" << n << " tier=" << SimdTierName(tier);
    }
  }
}

TEST(SimdKernelsTest, TbqPackUnpackBitIdenticalAcrossTiers) {
  for (float tau : {0.5f, 0.0f}) {
    for (size_t n : kLengths) {
      UnalignedSpan x(n);
      FillAdversarial(x.data(), n, /*seed=*/n * 31337 + 3);
      const size_t packed_bytes = PackedBytes(n, 2);
      std::vector<uint8_t> ref_packed(packed_bytes, 0xee);
      std::vector<float> ref_out(n), ref_accum(n, -0.75f);
      {
        SimdTierGuard guard(SimdTier::kScalar);
        simd::TbqPackCodes(x.data(), n, tau, ref_packed.data(),
                           packed_bytes);
        simd::TbqUnpackCodes(ref_packed.data(), n, tau, ref_out.data());
        simd::TbqUnpackCodesAdd(ref_packed.data(), n, tau,
                                ref_accum.data());
      }
      for (SimdTier tier : AvailableTiers()) {
        SimdTierGuard guard(tier);
        std::vector<uint8_t> packed(packed_bytes, 0xee);
        simd::TbqPackCodes(x.data(), n, tau, packed.data(), packed_bytes);
        EXPECT_EQ(ref_packed, packed)
            << "n=" << n << " tau=" << tau << " tier=" << SimdTierName(tier);
        std::vector<float> out(n), accum(n, -0.75f);
        simd::TbqUnpackCodes(packed.data(), n, tau, out.data());
        simd::TbqUnpackCodesAdd(packed.data(), n, tau, accum.data());
        EXPECT_TRUE(SameBits(ref_out, out))
            << "n=" << n << " tau=" << tau << " tier=" << SimdTierName(tier);
        EXPECT_TRUE(SameBits(ref_accum, accum))
            << "n=" << n << " tau=" << tau << " tier=" << SimdTierName(tier);
      }
    }
  }
}

TEST(SimdKernelsTest, Fp16EncodeBitIdenticalAcrossTiers) {
  for (size_t n : kLengths) {
    UnalignedSpan x(n);
    FillAdversarial(x.data(), n, /*seed=*/n * 65537 + 4);
    std::vector<uint16_t> ref(n);
    {
      SimdTierGuard guard(SimdTier::kScalar);
      simd::Fp16Encode(x.data(), n, ref.data(), n);
    }
    for (SimdTier tier : AvailableTiers()) {
      SimdTierGuard guard(tier);
      std::vector<uint16_t> got(n);
      simd::Fp16Encode(x.data(), n, got.data(), n);
      EXPECT_EQ(ref, got) << "n=" << n << " tier=" << SimdTierName(tier);
    }
  }
}

// The scalar FloatToHalf must mirror the F16C/AVX-512 hardware conversion
// on *every* interesting bit pattern, not just the random mix above: sweep
// all 65536 upper-half patterns (which cover every sign/exponent and the
// mantissa bits that select the rounding case) with the low mantissa bits
// varied, and compare the vector tiers against scalar.
TEST(SimdKernelsTest, Fp16EncodeHardwareSemanticsSweep) {
  if (SimdHostTier() == SimdTier::kScalar) {
    GTEST_SKIP() << "no vector tier on this host";
  }
  constexpr size_t kN = 1u << 16;
  std::vector<float> x(4 * kN);
  for (uint32_t upper = 0; upper < kN; ++upper) {
    // Low bits chosen to exercise RNE ties: all-zero, guard-bit-only,
    // sticky-only, and all-ones.
    const uint32_t lows[4] = {0x0000u, 0x1000u, 0x0001u, 0xffffu};
    for (int j = 0; j < 4; ++j) {
      const uint32_t bits = (upper << 16) | lows[j];
      std::memcpy(&x[4 * upper + j], &bits, sizeof(float));
    }
  }
  std::vector<uint16_t> scalar_out(x.size());
  {
    SimdTierGuard guard(SimdTier::kScalar);
    simd::Fp16Encode(x.data(), x.size(), scalar_out.data(), x.size());
  }
  for (SimdTier tier : AvailableTiers()) {
    if (tier == SimdTier::kScalar) {
      continue;
    }
    SimdTierGuard guard(tier);
    std::vector<uint16_t> got(x.size());
    simd::Fp16Encode(x.data(), x.size(), got.data(), x.size());
    for (size_t i = 0; i < x.size(); ++i) {
      uint32_t bits;
      std::memcpy(&bits, &x[i], sizeof(bits));
      ASSERT_EQ(scalar_out[i], got[i])
          << "input bits 0x" << std::hex << bits << " tier "
          << SimdTierName(tier);
    }
  }
}

// Decode of every possible half pattern must match across tiers, including
// signaling NaNs (which the hardware quiets).
TEST(SimdKernelsTest, Fp16DecodeAllPatternsBitIdenticalAcrossTiers) {
  constexpr size_t kN = 1u << 16;
  std::vector<uint16_t> halves(kN);
  for (uint32_t h = 0; h < kN; ++h) {
    halves[h] = static_cast<uint16_t>(h);
  }
  std::vector<float> ref(kN);
  {
    SimdTierGuard guard(SimdTier::kScalar);
    simd::Fp16Decode(halves.data(), kN, ref.data());
  }
  for (SimdTier tier : AvailableTiers()) {
    SimdTierGuard guard(tier);
    std::vector<float> got(kN);
    simd::Fp16Decode(halves.data(), kN, got.data());
    for (size_t i = 0; i < kN; ++i) {
      uint32_t ref_bits, got_bits;
      std::memcpy(&ref_bits, &ref[i], sizeof(ref_bits));
      std::memcpy(&got_bits, &got[i], sizeof(got_bits));
      ASSERT_EQ(ref_bits, got_bits)
          << "half 0x" << std::hex << i << " tier " << SimdTierName(tier);
    }
  }
}

TEST(SimdKernelsTest, Fp16DecodeAddMatchesAcrossTiers) {
  const size_t n = 4097;
  std::vector<float> src(n);
  FillAdversarial(src.data(), n, /*seed=*/99);
  std::vector<uint16_t> halves(n);
  simd::Fp16Encode(src.data(), n, halves.data(), n);
  std::vector<float> ref(n, 0.125f);
  {
    SimdTierGuard guard(SimdTier::kScalar);
    simd::Fp16DecodeAdd(halves.data(), n, ref.data());
  }
  for (SimdTier tier : AvailableTiers()) {
    SimdTierGuard guard(tier);
    std::vector<float> accum(n, 0.125f);
    simd::Fp16DecodeAdd(halves.data(), n, accum.data());
    EXPECT_TRUE(SameBits(ref, accum))
        << "tier=" << SimdTierName(tier);
  }
}

// ------------------------------------------------------------- terngrad

uint32_t FloatBits(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(SimdKernelsTest, TotalOrderMinMaxBitIdenticalAcrossTiers) {
  for (size_t n : kLengths) {
    if (n == 0) {
      continue;
    }
    UnalignedSpan x(n);
    FillAdversarial(x.data(), n, /*seed=*/n * 7 + 5);
    simd::FloatRange ref;
    {
      SimdTierGuard guard(SimdTier::kScalar);
      ref = simd::TotalOrderMinMax(x.data(), n);
    }
    for (SimdTier tier : AvailableTiers()) {
      SimdTierGuard guard(tier);
      const simd::FloatRange got = simd::TotalOrderMinMax(x.data(), n);
      EXPECT_EQ(FloatBits(ref.min), FloatBits(got.min))
          << "n=" << n << " tier=" << SimdTierName(tier);
      EXPECT_EQ(FloatBits(ref.max), FloatBits(got.max))
          << "n=" << n << " tier=" << SimdTierName(tier);
    }
  }
}

TEST(SimdKernelsTest, TotalOrderMinMaxOrdersSignedZeroAndNaN) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> zeros = {0.0f, -0.0f, 0.0f};
  const std::vector<float> with_nan = {1.0f, nan, -inf};
  for (SimdTier tier : AvailableTiers()) {
    SimdTierGuard guard(tier);
    const simd::FloatRange z = simd::TotalOrderMinMax(zeros.data(), 3);
    EXPECT_TRUE(std::signbit(z.min));
    EXPECT_FALSE(std::signbit(z.max));
    const simd::FloatRange r = simd::TotalOrderMinMax(with_nan.data(), 3);
    EXPECT_EQ(r.min, -inf);
    EXPECT_TRUE(std::isnan(r.max));
    // Merging is order-independent.
    const simd::FloatRange a{-0.0f, 1.0f};
    const simd::FloatRange b{0.0f, 2.0f};
    EXPECT_EQ(FloatBits(simd::MergeRanges(a, b).min),
              FloatBits(simd::MergeRanges(b, a).min));
  }
}

// The quantizer as the original codec wrote it: HashUniform, floor, then
// clamp to the top level. Defined for finite inputs inside [min, max].
std::vector<uint32_t> ReferenceLevels(const float* x, size_t n,
                                      uint64_t first_index,
                                      const simd::TernGradScale& scale) {
  const uint32_t levels = (1u << scale.bits) - 1;
  std::vector<uint32_t> q(n);
  for (size_t i = 0; i < n; ++i) {
    const float r = (x[i] - scale.min) * scale.inv_gap;
    const float u = HashUniform(scale.seed, first_index + i);
    q[i] = std::min(static_cast<uint32_t>(std::floor(r + u)), levels);
  }
  return q;
}

TEST(SimdKernelsTest, TernGradQuantizeMatchesHashUniformReference) {
  for (unsigned bits : {1u, 2u, 4u, 8u}) {
    const size_t n = 1000;
    std::vector<float> x(n);
    Rng rng(bits);
    for (float& v : x) {
      v = static_cast<float>(rng.NextGaussian());
    }
    const simd::FloatRange range = simd::TotalOrderMinMax(x.data(), n);
    const float gap = (range.max - range.min) /
                      static_cast<float>((1u << bits) - 1);
    const simd::TernGradScale scale{range.min, 1.0f / gap, bits, 99};
    const uint64_t first_index = 8 * 4001;
    const std::vector<uint32_t> want =
        ReferenceLevels(x.data(), n, first_index, scale);
    std::vector<uint8_t> expected(PackedBytes(n, bits), 0);
    for (size_t i = 0; i < n; ++i) {
      expected[i * bits / 8] |=
          static_cast<uint8_t>(want[i] << ((i * bits) % 8));
    }
    for (SimdTier tier : AvailableTiers()) {
      SimdTierGuard guard(tier);
      std::vector<uint8_t> packed(expected.size(), 0xee);
      simd::TernGradQuantizePack(x.data(), n, first_index, scale,
                                 packed.data(), packed.size());
      EXPECT_EQ(expected, packed)
          << "bits=" << bits << " tier=" << SimdTierName(tier);
    }
  }
}

TEST(SimdKernelsTest, TernGradPackUnpackBitIdenticalAcrossTiers) {
  // The last scale is pathological (infinite inv_gap): every t is inf or
  // NaN and must clamp the same way on every tier.
  const simd::TernGradScale scales[] = {
      {-1.25f, 0.8f, 0, 7},
      {0.0f, std::numeric_limits<float>::infinity(), 0, 3}};
  for (unsigned bits : {1u, 2u, 4u, 8u}) {
    for (simd::TernGradScale scale : scales) {
      scale.bits = bits;
      for (size_t n : kLengths) {
        UnalignedSpan x(n);
        FillAdversarial(x.data(), n, /*seed=*/n * 3 + bits);
        const size_t packed_bytes = PackedBytes(n, bits);
        const uint64_t first_index = n * 8;
        std::vector<uint8_t> ref_packed(packed_bytes, 0xee);
        std::vector<float> ref_out(n), ref_accum(n, 0.5f);
        {
          SimdTierGuard guard(SimdTier::kScalar);
          simd::TernGradQuantizePack(x.data(), n, first_index, scale,
                                     ref_packed.data(), packed_bytes);
          simd::TernGradUnpack(ref_packed.data(), n, bits, -1.25f, 0.3f,
                               ref_out.data());
          simd::TernGradUnpackAdd(ref_packed.data(), n, bits, -1.25f, 0.3f,
                                  ref_accum.data());
        }
        for (SimdTier tier : AvailableTiers()) {
          SimdTierGuard guard(tier);
          std::vector<uint8_t> packed(packed_bytes, 0xee);
          simd::TernGradQuantizePack(x.data(), n, first_index, scale,
                                     packed.data(), packed_bytes);
          EXPECT_EQ(ref_packed, packed) << "bits=" << bits << " n=" << n
                                        << " tier=" << SimdTierName(tier);
          std::vector<float> out(n), accum(n, 0.5f);
          simd::TernGradUnpack(packed.data(), n, bits, -1.25f, 0.3f,
                               out.data());
          simd::TernGradUnpackAdd(packed.data(), n, bits, -1.25f, 0.3f,
                                  accum.data());
          EXPECT_TRUE(SameBits(ref_out, out))
              << "bits=" << bits << " n=" << n
              << " tier=" << SimdTierName(tier);
          EXPECT_TRUE(SameBits(ref_accum, accum))
              << "bits=" << bits << " n=" << n
              << " tier=" << SimdTierName(tier);
        }
      }
    }
  }
}

TEST(SimdKernelsTest, TernGradUnpackIsMinPlusLevelTimesGap) {
  // Every byte value, so every level appears at every position.
  std::vector<uint8_t> packed(256);
  for (size_t i = 0; i < packed.size(); ++i) {
    packed[i] = static_cast<uint8_t>(i);
  }
  const float min = -0.731f;
  const float gap = 0.0917f;
  for (unsigned bits : {1u, 2u, 4u, 8u}) {
    const size_t n = packed.size() * 8 / bits;
    for (SimdTier tier : AvailableTiers()) {
      SimdTierGuard guard(tier);
      std::vector<float> out(n);
      simd::TernGradUnpack(packed.data(), n, bits, min, gap, out.data());
      for (size_t i = 0; i < n; ++i) {
        const uint32_t q =
            (packed[i * bits / 8] >> ((i * bits) % 8)) & ((1u << bits) - 1);
        const float want = min + static_cast<float>(q) * gap;
        ASSERT_EQ(FloatBits(want), FloatBits(out[i]))
            << "bits=" << bits << " i=" << i << " tier=" << SimdTierName(tier);
      }
    }
  }
}

// -------------------------------------------------------------------- dgc

float FromBits(uint32_t bits) {
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Checks KthLargestMagnitude against a full sort for a spread of k, at
// every tier.
void ExpectKthLargestMatchesSort(const std::vector<float>& x,
                                 const std::string& label) {
  const size_t n = x.size();
  std::vector<uint32_t> sorted(n);
  uint32_t want_max = 0;
  for (size_t i = 0; i < n; ++i) {
    sorted[i] = FloatBits(x[i]) & 0x7fffffffu;
    want_max = std::max(want_max, sorted[i]);
  }
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  std::vector<uint32_t> scratch(n);
  for (SimdTier tier : AvailableTiers()) {
    SimdTierGuard guard(tier);
    for (size_t k = 1; k <= n; k += 1 + n / 40) {
      uint32_t max_key = 0;
      ASSERT_EQ(sorted[k - 1], simd::KthLargestMagnitude(x.data(), n, k,
                                                         scratch.data(),
                                                         &max_key))
          << label << " n=" << n << " k=" << k
          << " tier=" << SimdTierName(tier);
      ASSERT_EQ(want_max, max_key) << label << " tier=" << SimdTierName(tier);
    }
  }
}

TEST(SimdKernelsTest, KthLargestMagnitudeMatchesSortAtEveryTier) {
  for (size_t n : {1u, 5u, 64u, 65u, 1000u, 8191u, 8192u, 20000u}) {
    Rng rng(n);
    std::vector<float> gaussian(n), ties(n), wide(n);
    for (size_t i = 0; i < n; ++i) {
      gaussian[i] = static_cast<float>(rng.NextGaussian());
      // Few distinct magnitudes: most ranks sit inside long runs of ties.
      ties[i] = static_cast<float>(rng.NextBounded(6)) *
                (rng.NextBounded(2) == 0 ? 0.25f : -0.25f);
      // Any finite bit pattern, infinities included.
      wide[i] = FromBits(static_cast<uint32_t>(rng.NextU64()) % 0x7f800001u);
    }
    ExpectKthLargestMatchesSort(gaussian, "gaussian");
    ExpectKthLargestMatchesSort(ties, "ties");
    ExpectKthLargestMatchesSort(wide, "wide");
  }
}

TEST(SimdKernelsTest, KthLargestMagnitudeSurvivesMisleadingSample) {
  // Every element the strided sample reads is tiny and the rest are large,
  // so the sampled bracket is wrong and the selection must fall back.
  const size_t n = 1 << 15;
  const size_t stride = n / 1024;
  Rng rng(5);
  std::vector<float> x(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = i % stride == 0 ? 1e-6f
                           : 1.0f + static_cast<float>(rng.NextGaussian());
  }
  ExpectKthLargestMatchesSort(x, "misleading");
}

TEST(SimdKernelsTest, SelectAtLeastBitIdenticalAcrossTiers) {
  const uint32_t thresholds[] = {0u, 1u, FloatBits(0.5f), FloatBits(2.0f),
                                 simd::kInfMagnitudeKey, 0xffffffffu};
  for (size_t n : kLengths) {
    UnalignedSpan x(n);
    FillAdversarial(x.data(), n, /*seed=*/n * 13 + 7);
    for (uint32_t threshold : thresholds) {
      const uint32_t first_index = 1000;
      std::vector<uint32_t> want;
      uint32_t want_max = 0;
      for (size_t i = 0; i < n; ++i) {
        const uint32_t key = FloatBits(x.data()[i]) & 0x7fffffffu;
        want_max = std::max(want_max, key);
        if (key >= threshold) {
          want.push_back(first_index + static_cast<uint32_t>(i));
        }
      }
      for (SimdTier tier : AvailableTiers()) {
        SimdTierGuard guard(tier);
        std::vector<uint32_t> out(n);
        uint32_t max_key = 0;
        const size_t count = simd::SelectAtLeast(
            x.data(), n, threshold, first_index, out.data(), &max_key);
        out.resize(count);
        EXPECT_EQ(want, out) << "n=" << n << " threshold=" << threshold
                             << " tier=" << SimdTierName(tier);
        EXPECT_EQ(want_max, max_key)
            << "n=" << n << " tier=" << SimdTierName(tier);
      }
    }
  }
}

// Misreported capacity is a contract violation, not a recoverable error:
// the pack kernels must abort rather than scribble past the buffer at
// vector width.
TEST(SimdKernelsDeathTest, OnebitPackAbortsOnMisreportedCapacity) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  std::vector<float> x(64, 1.0f);
  std::vector<uint8_t> out(PackedBytes(x.size(), 1));
  EXPECT_DEATH(
      simd::OnebitPackSigns(x.data(), x.size(), out.data(), out.size() - 1),
      "misreported output capacity");
}

TEST(SimdKernelsDeathTest, TbqPackAbortsOnMisreportedCapacity) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  std::vector<float> x(64, 1.0f);
  std::vector<uint8_t> out(PackedBytes(x.size(), 2));
  EXPECT_DEATH(
      simd::TbqPackCodes(x.data(), x.size(), 0.5f, out.data(),
                         out.size() - 1),
      "misreported output capacity");
}

TEST(SimdKernelsDeathTest, Fp16EncodeAbortsOnMisreportedCapacity) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  std::vector<float> x(64, 1.0f);
  std::vector<uint16_t> out(x.size());
  EXPECT_DEATH(simd::Fp16Encode(x.data(), x.size(), out.data(), x.size() - 1),
               "misreported output capacity");
}

TEST(SimdKernelsDeathTest, TernGradPackAbortsOnMisreportedCapacity) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  std::vector<float> x(64, 1.0f);
  std::vector<uint8_t> out(PackedBytes(x.size(), 4));
  const simd::TernGradScale scale{0.0f, 1.0f, 4, 0};
  EXPECT_DEATH(simd::TernGradQuantizePack(x.data(), x.size(), 0, scale,
                                          out.data(), out.size() - 1),
               "misreported output capacity");
}

}  // namespace
}  // namespace hipress
