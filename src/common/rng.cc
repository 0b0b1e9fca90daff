#include "src/common/rng.h"

#include <cmath>

namespace hipress {
namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  return SplitMix64Mix(state);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) {
    word = SplitMix64(sm);
  }
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

float Rng::NextFloat() {
  return static_cast<float>(NextU64() >> 40) * 0x1.0p-24f;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = NextU64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

double Rng::NextUniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  double u1 = NextDouble();
  while (u1 <= 0.0) {
    u1 = NextDouble();
  }
  const double u2 = NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

Rng Rng::Fork(uint64_t stream_id) const {
  Rng copy = *this;
  // Mix the stream id into a fresh seed derived from this generator's state.
  uint64_t seed = copy.NextU64() ^ (stream_id * 0x9e3779b97f4a7c15ULL + 1);
  return Rng(seed);
}

}  // namespace hipress
