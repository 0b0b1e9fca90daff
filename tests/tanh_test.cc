// The MLP's tanh (src/minidnn/tanh.h): every SIMD tier must return the
// bits of the scalar transcription of glibc's tanhf, on a sweep of all bit
// patterns, around every branch threshold, on the special values and at
// every tail length. The opt-in exhaustive test also checks the scalar and
// vector kernels against the host's std::tanh on all 2^32 inputs.
#include "src/minidnn/tanh.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "tests/simd_test_util.h"

#ifdef __GLIBC__
#include <gnu/libc-version.h>
#endif

namespace hipress {
namespace {

float FromWord(uint32_t word) { return std::bit_cast<float>(word); }
uint32_t ToWord(float value) { return std::bit_cast<uint32_t>(value); }

constexpr uint32_t kSign = 0x80000000u;

// Runs every available tier on `inputs` and expects Tanhf's bits.
void ExpectTiersMatchScalar(const std::vector<float>& inputs) {
  for (const SimdTier tier : AvailableTiers()) {
    std::vector<float> got = inputs;
    TanhInPlace(got.data(), got.size(), tier);
    size_t mismatches = 0;
    for (size_t i = 0; i < inputs.size(); ++i) {
      const float want = Tanhf(inputs[i]);
      if (ToWord(got[i]) != ToWord(want) && mismatches++ == 0) {
        ADD_FAILURE() << SimdTierName(tier) << ": tanh(0x" << std::hex
                      << ToWord(inputs[i]) << ") = 0x" << ToWord(got[i])
                      << ", scalar 0x" << ToWord(want);
      }
    }
    EXPECT_EQ(mismatches, 0u) << SimdTierName(tier) << " of "
                              << inputs.size() << " inputs";
  }
}

TEST(TanhTest, StridedSweepOfAllBitPatternsMatchesScalar) {
  // About a million patterns, every exponent and sign, NaNs included.
  constexpr uint64_t kStride = 4093;
  std::vector<float> inputs;
  for (uint64_t word = 17; word < (uint64_t{1} << 32); word += kStride) {
    inputs.push_back(FromWord(static_cast<uint32_t>(word)));
  }
  ExpectTiersMatchScalar(inputs);
}

TEST(TanhTest, BranchThresholdsMatchScalar) {
  // tanhf's branches on |x| (2^-55, 1, 22) and expm1f's on its argument
  // (2^-25, 0.5 ln2, 1.5 ln2, 27 ln2). tanh calls expm1 with 2|x|, so each
  // threshold is also swept at half its value (exponent minus one).
  const uint32_t thresholds[] = {0x24000000, 0x33000000, 0x3eb17218,
                                 0x3f800000, 0x3f851592, 0x4195b844,
                                 0x41b00000};
  std::vector<uint32_t> centers;
  for (const uint32_t t : thresholds) {
    centers.push_back(t);
    centers.push_back(t - (1u << 23));
  }
  // expm1's reduction picks k = trunc(y / ln2 + 0.5), and its result takes
  // a different formula from k = 23 and above k = 56: y = 22.5 ln2 and
  // 56.5 ln2, so x = y / 2.
  centers.push_back(ToWord(static_cast<float>(11.25 * std::log(2.0))));
  centers.push_back(ToWord(static_cast<float>(28.25 * std::log(2.0))));
  std::vector<float> inputs;
  for (const uint32_t center : centers) {
    for (int ulps = -4096; ulps <= 4096; ++ulps) {
      const uint32_t word = center + static_cast<uint32_t>(ulps);
      inputs.push_back(FromWord(word));
      inputs.push_back(FromWord(word | kSign));
    }
  }
  ExpectTiersMatchScalar(inputs);
}

TEST(TanhTest, SpecialValues) {
  const uint32_t words[] = {
      0x00000000,  // +0
      0x00000001,  // smallest subnormal
      0x00000123, 0x00400000,
      0x007fffff,  // largest subnormal
      0x00800000,  // FLT_MIN
      0x7f7fffff,  // FLT_MAX
      0x7f800000,  // inf
      0x7fc00000,  // quiet NaN
      0x7fc12345,  // quiet NaN with a payload
      0x7f800001,  // signaling NaN
      0x7fa00000,
  };
  std::vector<float> inputs;
  for (const uint32_t word : words) {
    inputs.push_back(FromWord(word));
    inputs.push_back(FromWord(word | kSign));
  }
  ExpectTiersMatchScalar(inputs);

  EXPECT_EQ(ToWord(Tanhf(0.0f)), 0x00000000u);
  EXPECT_EQ(ToWord(Tanhf(-0.0f)), 0x80000000u);
  EXPECT_EQ(Tanhf(FromWord(0x00000001)), FromWord(0x00000001));
  EXPECT_EQ(Tanhf(INFINITY), 1.0f);
  EXPECT_EQ(Tanhf(-INFINITY), -1.0f);
  EXPECT_EQ(Tanhf(22.0f), 1.0f);
  EXPECT_EQ(Tanhf(-FromWord(0x7f7fffff)), -1.0f);
  EXPECT_TRUE(std::isnan(Tanhf(NAN)));
}

TEST(TanhTest, EveryTailLengthMatchesScalarAndStaysInBounds) {
  Rng rng(11);
  const float kGuard = FromWord(0x7fc0dead);
  std::vector<size_t> lengths = {100, 1001, 2048};
  for (size_t n = 0; n <= 40; ++n) {
    lengths.push_back(n);
  }
  for (const size_t n : lengths) {
    std::vector<float> inputs(n);
    for (float& v : inputs) {
      v = static_cast<float>(8.0 * rng.NextGaussian());
    }
    for (const SimdTier tier : AvailableTiers()) {
      // One element of slack on each side, and an unaligned start.
      std::vector<float> buffer(n + 2, kGuard);
      std::copy(inputs.begin(), inputs.end(), buffer.begin() + 1);
      TanhInPlace(buffer.data() + 1, n, tier);
      EXPECT_EQ(ToWord(buffer.front()), ToWord(kGuard));
      EXPECT_EQ(ToWord(buffer.back()), ToWord(kGuard));
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(ToWord(buffer[i + 1]), ToWord(Tanhf(inputs[i])))
            << SimdTierName(tier) << " n=" << n << " i=" << i;
      }
    }
  }
}

// All 2^32 inputs against the host's std::tanh, for the scalar kernel and
// every vector tier. It takes about a minute on four cores, so it runs only
// on request:
//   HIPRESS_TANH_FULL_SWEEP=1 ./build/tests/tanh_test --gtest_filter='*Libm*'
// A mismatch means the host's tanhf is not the fdlibm code transcribed in
// src/minidnn/tanh.cc (another libm, or a newer glibc), not that the tiers
// disagree: that is what the tests above check.
TEST(TanhTest, MatchesLibmOnEveryInput) {
  if (std::getenv("HIPRESS_TANH_FULL_SWEEP") == nullptr) {
    GTEST_SKIP() << "set HIPRESS_TANH_FULL_SWEEP=1 to run";
  }
  std::string libc = "unknown libc";
#ifdef __GLIBC__
  libc = std::string("glibc ") + gnu_get_libc_version();
#endif
  const std::vector<SimdTier> tiers = AvailableTiers();
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  constexpr uint64_t kTotal = uint64_t{1} << 32;
  constexpr size_t kChunk = 4096;
  // mismatches[thread][tier]
  std::vector<std::vector<uint64_t>> mismatches(
      threads, std::vector<uint64_t>(tiers.size(), 0));
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<float> inputs(kChunk);
      std::vector<float> want(kChunk);
      std::vector<float> got(kChunk);
      for (uint64_t base = t * kChunk; base < kTotal;
           base += uint64_t{threads} * kChunk) {
        for (size_t i = 0; i < kChunk; ++i) {
          inputs[i] = FromWord(static_cast<uint32_t>(base + i));
          want[i] = std::tanh(inputs[i]);
        }
        for (size_t k = 0; k < tiers.size(); ++k) {
          got = inputs;
          TanhInPlace(got.data(), kChunk, tiers[k]);
          for (size_t i = 0; i < kChunk; ++i) {
            mismatches[t][k] += ToWord(got[i]) != ToWord(want[i]);
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  for (size_t k = 0; k < tiers.size(); ++k) {
    uint64_t total = 0;
    for (unsigned t = 0; t < threads; ++t) {
      total += mismatches[t][k];
    }
    std::printf("%s: %s tier, %llu of 2^32 inputs differ from std::tanh\n",
                libc.c_str(), std::string(SimdTierName(tiers[k])).c_str(),
                static_cast<unsigned long long>(total));
    EXPECT_EQ(total, 0u) << SimdTierName(tiers[k]) << " on " << libc;
  }
}

}  // namespace
}  // namespace hipress
