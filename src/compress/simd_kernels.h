// Hand-vectorized inner loops for the built-in codecs: onebit, TBQ, fp16,
// TernGrad and DGC (docs/KERNELS.md). Every primitive ships three variants — scalar,
// AVX2, AVX-512 — selected per call from ActiveSimdTier(); the variants are
// bit-identical by construction, so the dispatch tier changes throughput
// only, never a single output byte.
//
// Determinism contract (what makes cross-tier and cross-machine encoded
// bytes reproducible):
//   * Reductions (OnebitSignStats) follow a fixed 8-lane schedule — lane j
//     accumulates elements with index ≡ j (mod 8) in double precision and
//     the lanes merge in ascending order. The scalar variant executes the
//     exact same schedule, so AVX2 (2×4 double lanes) and AVX-512 (1×8)
//     produce the same sums to the last bit. Callers that parallelize must
//     shard on kReduceBlockElements boundaries and merge block partials in
//     block order (see OnebitCompressor::EncodeInto).
//   * Pack/unpack primitives are per-element maps with no cross-lane
//     arithmetic; shards must be aligned to whole output byte groups
//     (8 elements for 1-bit, 4 for 2-bit) so no two shards touch one byte.
//   * fp16 conversion uses IEEE round-to-nearest-even everywhere; the
//     scalar FloatToHalf in fp16.h mirrors the F16C/AVX-512 hardware
//     semantics bit for bit, including NaN payload truncation.
//   * TernGrad's stochastic rounding hashes each element's global index,
//     so a shard passes its first index and the bytes cannot depend on
//     how the range was split. DGC's selection is exact, so whichever
//     path finds the k-th largest key returns the same key.
//   * Float arithmetic is never contracted: a multiply followed by an add
//     is two roundings on every tier (this file is built with
//     -ffp-contract=off), so TernGrad's quantizer and decoder match the
//     scalar expressions exactly.
//
// Capacity is a hard contract: each pack kernel CHECK-aborts when the
// caller-reported output capacity cannot hold the packed bytes — a lying
// capacity would otherwise scribble past the buffer at vector width.
#ifndef HIPRESS_SRC_COMPRESS_SIMD_KERNELS_H_
#define HIPRESS_SRC_COMPRESS_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "src/common/simd.h"

namespace hipress::simd {

// Fixed block size for deterministic parallel reductions: callers compute
// one partial per 4096-element block (in parallel) and merge the partials
// in block order, making the result independent of both thread count and
// SIMD tier.
inline constexpr size_t kReduceBlockElements = 4096;

// ------------------------------------------------------------------ onebit

struct SignStats {
  double pos_sum = 0.0;
  double neg_sum = 0.0;
  uint64_t pos_count = 0;
};

// 8-lane deterministic signed-sum/count over x[0..n). NaNs count as
// negative (matching `v >= 0.0f` being false).
SignStats OnebitSignStats(const float* x, size_t n);

// Packs sign bits (x[i] >= 0) into out, 8 elements per byte, LSB first;
// trailing bits of a partial final byte are zero. CHECK-aborts unless
// out_bytes >= PackedBytes(n, 1).
void OnebitPackSigns(const float* x, size_t n, uint8_t* out,
                     size_t out_bytes);

// out[i] = bit_i ? pos : neg (overwrite) / accum[i] += ... (fused add).
void OnebitUnpackSigns(const uint8_t* packed, size_t n, float neg, float pos,
                       float* out);
void OnebitUnpackSignsAdd(const uint8_t* packed, size_t n, float neg,
                          float pos, float* accum);

// --------------------------------------------------------------------- tbq

// Packs ternary codes (0: |x| <= tau, 1: x > tau, 2: x < -tau) into out,
// 4 elements per byte, 2 bits each, LSB first. CHECK-aborts unless
// out_bytes >= PackedBytes(n, 2).
void TbqPackCodes(const float* x, size_t n, float tau, uint8_t* out,
                  size_t out_bytes);

// out[i] = {0, +tau, -tau}[code_i] (overwrite) / accum[i] += ... .
void TbqUnpackCodes(const uint8_t* packed, size_t n, float tau, float* out);
void TbqUnpackCodesAdd(const uint8_t* packed, size_t n, float tau,
                       float* accum);

// -------------------------------------------------------------------- fp16

// IEEE binary16 conversion, round-to-nearest-even; bit-identical to the
// scalar FloatToHalf/HalfToFloat in fp16.h on every input including NaN
// payloads and subnormal ties. CHECK-aborts unless out_capacity >= n.
void Fp16Encode(const float* x, size_t n, uint16_t* out, size_t out_capacity);
void Fp16Decode(const uint16_t* halves, size_t n, float* out);
void Fp16DecodeAdd(const uint16_t* halves, size_t n, float* accum);

// ---------------------------------------------------------------- terngrad

// IEEE-754 totalOrder key of a float: signed integer order of the keys is
// -NaN < -inf < ... < -0 < +0 < ... < +inf < +NaN. The map is its own
// inverse.
inline int32_t TotalOrderKey(float v) {
  int32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits ^ static_cast<int32_t>(static_cast<uint32_t>(bits >> 31) >> 1);
}

// Smallest and largest element under totalOrder, so the answer does not
// depend on visiting order: -0 is below +0, and a NaN lands on an end.
struct FloatRange {
  float min = 0.0f;
  float max = 0.0f;
};

// Range of x[0..n); n must be >= 1.
FloatRange TotalOrderMinMax(const float* x, size_t n);

inline FloatRange MergeRanges(FloatRange a, FloatRange b) {
  return {TotalOrderKey(b.min) < TotalOrderKey(a.min) ? b.min : a.min,
          TotalOrderKey(b.max) > TotalOrderKey(a.max) ? b.max : a.max};
}

// Stochastic rounding parameters: level(x_i) = clamp(trunc(t), 0, levels)
// with t = (x_i - min) * inv_gap + u_i, where u_i is the element-indexed
// SplitMix64 uniform HashUniform(seed, i) and a NaN t clamps to levels.
struct TernGradScale {
  float min = 0.0f;
  float inv_gap = 0.0f;
  unsigned bits = 2;  // 1, 2, 4 or 8
  uint64_t seed = 0;
};

// Quantizes x[0..n), whose global element indices start at first_index,
// and packs the levels LSB-first at scale.bits per element; x[0] lands at
// bit 0 of out[0] and a partial final byte is zero-padded. CHECK-aborts
// unless out_bytes >= PackedBytes(n, scale.bits).
void TernGradQuantizePack(const float* x, size_t n, uint64_t first_index,
                          const TernGradScale& scale, uint8_t* out,
                          size_t out_bytes);

// out[i] = min + float(level_i) * gap (overwrite) / accum[i] += ... .
void TernGradUnpack(const uint8_t* packed, size_t n, unsigned bits, float min,
                    float gap, float* out);
void TernGradUnpackAdd(const uint8_t* packed, size_t n, unsigned bits,
                       float min, float gap, float* accum);

// --------------------------------------------------------------------- dgc

// Magnitude keys: the bit pattern of |x| with the sign cleared. For
// non-NaN floats key order is magnitude order, and keys above
// kInfMagnitudeKey are NaNs.
inline constexpr uint32_t kInfMagnitudeKey = 0x7f800000u;

inline uint32_t MagnitudeKey(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits & 0x7fffffffu;
}

// The k-th largest MagnitudeKey of x[0..n) (1 <= k <= n), exactly: read
// back as a float it is the k-th largest |x|. A strided sample brackets the
// answer so one vector pass leaves few candidates for a radix select
// (docs/KERNELS.md). scratch must hold n keys; *max_key receives the
// largest key of x, so callers can reject NaN without another pass.
uint32_t KthLargestMagnitude(const float* x, size_t n, size_t k,
                             uint32_t* scratch, uint32_t* max_key);

// Appends, in ascending order, first_index + i for every i with
// MagnitudeKey(x[i]) >= threshold_key to out, and returns how many. out
// must hold n entries. *max_key receives the largest key seen (so callers
// can reject NaN input without another pass).
size_t SelectAtLeast(const float* x, size_t n, uint32_t threshold_key,
                     uint32_t first_index, uint32_t* out, uint32_t* max_key);

}  // namespace hipress::simd

#endif  // HIPRESS_SRC_COMPRESS_SIMD_KERNELS_H_
