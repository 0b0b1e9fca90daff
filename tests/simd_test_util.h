// Helpers for tests that run a kernel or codec at every SIMD tier the host
// supports and compare the results bit for bit.
#ifndef HIPRESS_TESTS_SIMD_TEST_UTIL_H_
#define HIPRESS_TESTS_SIMD_TEST_UTIL_H_

#include <cstring>
#include <span>
#include <vector>

#include "src/common/simd.h"

namespace hipress {

// Scalar first, then every vector tier the host CPU supports.
inline std::vector<SimdTier> AvailableTiers() {
  std::vector<SimdTier> tiers = {SimdTier::kScalar};
  if (SimdHostTier() >= SimdTier::kAvx2) {
    tiers.push_back(SimdTier::kAvx2);
  }
  if (SimdHostTier() >= SimdTier::kAvx512) {
    tiers.push_back(SimdTier::kAvx512);
  }
  return tiers;
}

// Bitwise equality of two float arrays, NaN payloads included. Empty
// arrays compare equal without touching their (possibly null) data.
inline bool SameBits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// Forces the dispatch tier for the guard's lifetime.
class SimdTierGuard {
 public:
  explicit SimdTierGuard(SimdTier tier) { SimdTierOverride(tier); }
  ~SimdTierGuard() { ClearSimdTierOverride(); }
  SimdTierGuard(const SimdTierGuard&) = delete;
  SimdTierGuard& operator=(const SimdTierGuard&) = delete;
};

}  // namespace hipress

#endif  // HIPRESS_TESTS_SIMD_TEST_UTIL_H_
