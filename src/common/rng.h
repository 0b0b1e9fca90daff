// Deterministic, seedable RNG (SplitMix64 seeding a xoshiro256** core).
// All stochastic behaviour in the library — stochastic rounding in
// quantizers, sampling in DGC threshold estimation, synthetic workloads —
// goes through this so runs are reproducible.
#ifndef HIPRESS_SRC_COMMON_RNG_H_
#define HIPRESS_SRC_COMMON_RNG_H_

#include <cstdint>

namespace hipress {

// SplitMix64's output finalizer, a bijective 64-bit mix: Rng's seeding,
// FaultUniform and HashUniform all draw through it.
inline uint64_t SplitMix64Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Uniform 64-bit value.
  uint64_t NextU64();

  // Uniform 32-bit value.
  uint32_t NextU32() { return static_cast<uint32_t>(NextU64() >> 32); }

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform float in [0, 1).
  float NextFloat();

  // Uniform integer in [0, bound). bound must be > 0.
  uint64_t NextBounded(uint64_t bound);

  // Uniform double in [lo, hi).
  double NextUniform(double lo, double hi);

  // Standard normal (Box-Muller, no caching for determinism of call counts).
  double NextGaussian();

  // Derives an independent stream for the given id (e.g., per-node RNGs).
  Rng Fork(uint64_t stream_id) const;

 private:
  uint64_t state_[4];
};

}  // namespace hipress

#endif  // HIPRESS_SRC_COMMON_RNG_H_
