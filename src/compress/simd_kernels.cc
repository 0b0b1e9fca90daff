#include "src/compress/simd_kernels.h"

#include <algorithm>
#include <array>
#include <climits>
#include <cmath>
#include <cstring>
#include <functional>

#include "src/common/bitops.h"
#include "src/common/logging.h"
#include "src/compress/fp16.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(HIPRESS_FORCE_SCALAR)
#define HIPRESS_SIMD_X86 1
// GCC 12's AVX-512 headers self-initialize their "undefined" vectors
// (`__m512i __Y = __Y;`), which the uninitialized-use warnings flag once
// the intrinsics are inlined: a false positive, silenced for them only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#define HIPRESS_TARGET_AVX2 __attribute__((target("avx2,fma,f16c")))
#define HIPRESS_TARGET_AVX512 \
  __attribute__((target("avx512f,avx512bw,avx512vl,f16c")))
#endif

namespace hipress::simd {
namespace {

// Interleaves an 8-bit mask into the even bit positions of a 16-bit word
// (bit i -> bit 2i); OR a second spread mask shifted left by one to build
// the 2-bit-per-element TBQ group.
constexpr uint32_t Spread8(uint32_t v) {
  v &= 0xffu;
  v = (v | (v << 4)) & 0x0f0fu;
  v = (v | (v << 2)) & 0x3333u;
  v = (v | (v << 1)) & 0x5555u;
  return v;
}

constexpr uint32_t Spread16(uint32_t v) {
  v &= 0xffffu;
  v = (v | (v << 8)) & 0x00ff00ffu;
  v = (v | (v << 4)) & 0x0f0f0f0fu;
  v = (v | (v << 2)) & 0x33333333u;
  v = (v | (v << 1)) & 0x55555555u;
  return v;
}

// --------------------------------------------------------- scalar variants
//
// The scalar variants are the semantic reference: they execute the exact
// lane schedule the vector variants implement, so every tier produces the
// same bits (docs/KERNELS.md "Determinism" section).

SignStats OnebitSignStatsScalar(const float* x, size_t n) {
  double pos[8] = {0.0};
  double neg[8] = {0.0};
  uint64_t cnt[8] = {0};
  const size_t n8 = n & ~size_t{7};
  for (size_t i = 0; i < n8; i += 8) {
    for (size_t j = 0; j < 8; ++j) {
      const double v = static_cast<double>(x[i + j]);
      if (x[i + j] >= 0.0f) {
        pos[j] += v;
        ++cnt[j];
      } else {
        neg[j] += v;
      }
    }
  }
  for (size_t j = 0; j < n - n8; ++j) {
    const double v = static_cast<double>(x[n8 + j]);
    if (x[n8 + j] >= 0.0f) {
      pos[j] += v;
      ++cnt[j];
    } else {
      neg[j] += v;
    }
  }
  SignStats stats;
  for (size_t j = 0; j < 8; ++j) {
    stats.pos_sum += pos[j];
    stats.neg_sum += neg[j];
    stats.pos_count += cnt[j];
  }
  return stats;
}

void OnebitPackSignsScalar(const float* x, size_t n, uint8_t* out) {
  const size_t num_bytes = PackedBytes(n, 1);
  for (size_t b = 0; b < num_bytes; ++b) {
    const size_t base = b * 8;
    const size_t limit = n - base < 8 ? n - base : 8;
    uint8_t byte = 0;
    for (size_t i = 0; i < limit; ++i) {
      if (x[base + i] >= 0.0f) {
        byte |= static_cast<uint8_t>(1u << i);
      }
    }
    out[b] = byte;
  }
}

template <bool kAccumulate>
void OnebitUnpackScalar(const uint8_t* packed, size_t n, float neg, float pos,
                        float* out) {
  for (size_t i = 0; i < n; ++i) {
    const float v = ((packed[i >> 3] >> (i & 7)) & 1u) ? pos : neg;
    if constexpr (kAccumulate) {
      out[i] += v;
    } else {
      out[i] = v;
    }
  }
}

void TbqPackCodesScalar(const float* x, size_t n, float tau, uint8_t* out) {
  const float ntau = -tau;
  const size_t num_bytes = PackedBytes(n, 2);
  for (size_t b = 0; b < num_bytes; ++b) {
    const size_t base = b * 4;
    const size_t limit = n - base < 4 ? n - base : 4;
    uint8_t byte = 0;
    for (size_t i = 0; i < limit; ++i) {
      const float v = x[base + i];
      uint8_t code = 0;
      if (v > tau) {
        code = 1;
      } else if (v < ntau) {
        code = 2;
      }
      byte |= static_cast<uint8_t>(code << (2 * i));
    }
    out[b] = byte;
  }
}

template <bool kAccumulate>
void TbqUnpackScalar(const uint8_t* packed, size_t n, float tau, float* out) {
  const float ntau = -tau;
  for (size_t i = 0; i < n; ++i) {
    const uint8_t code = (packed[i >> 2] >> (2 * (i & 3))) & 3u;
    const float v = code == 1 ? tau : (code == 2 ? ntau : 0.0f);
    if constexpr (kAccumulate) {
      out[i] += v;
    } else {
      out[i] = v;
    }
  }
}

void Fp16EncodeScalar(const float* x, size_t n, uint16_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = FloatToHalf(x[i]);
  }
}

template <bool kAccumulate>
void Fp16DecodeScalar(const uint16_t* halves, size_t n, float* out) {
  for (size_t i = 0; i < n; ++i) {
    if constexpr (kAccumulate) {
      out[i] += HalfToFloat(halves[i]);
    } else {
      out[i] = HalfToFloat(halves[i]);
    }
  }
}

// Inverse of TotalOrderKey (the map is an involution on the bits).
float FromTotalOrderKey(int32_t key) {
  const int32_t bits =
      key ^ static_cast<int32_t>(static_cast<uint32_t>(key >> 31) >> 1);
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

FloatRange TotalOrderMinMaxScalar(const float* x, size_t n) {
  int32_t lo = TotalOrderKey(x[0]);
  int32_t hi = lo;
  for (size_t i = 1; i < n; ++i) {
    const int32_t key = TotalOrderKey(x[i]);
    lo = key < lo ? key : lo;
    hi = key > hi ? key : hi;
  }
  return {FromTotalOrderKey(lo), FromTotalOrderKey(hi)};
}

// HashUniform's SplitMix64 constants (src/compress/compressor.cc).
constexpr uint64_t kHashGolden = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kHashMix1 = 0xbf58476d1ce4e5b9ULL;
constexpr uint64_t kHashMix2 = 0x94d049bb133111ebULL;

// The 24 bits HashUniform(seed, index) scales into [0, 1). Its final
// `z ^= z >> 31` only changes bits 0..32, so it is skipped here and in the
// vector variants.
inline uint32_t HashTop24(uint64_t seed, uint64_t index) {
  uint64_t z = seed + index * kHashGolden;
  z = (z ^ (z >> 30)) * kHashMix1;
  z = (z ^ (z >> 27)) * kHashMix2;
  return static_cast<uint32_t>(z >> 40);
}

inline uint32_t TernGradLevel(float x, uint64_t index,
                              const TernGradScale& scale, float levels) {
  const float r = (x - scale.min) * scale.inv_gap;
  float t = r + static_cast<float>(HashTop24(scale.seed, index)) * 0x1.0p-24f;
  t = t < levels ? t : levels;  // NaN clamps to levels
  t = t > 0.0f ? t : 0.0f;
  return static_cast<uint32_t>(t);
}

void TernGradQuantizePackScalar(const float* x, size_t n, uint64_t first_index,
                                const TernGradScale& scale, uint8_t* out) {
  const unsigned bits = scale.bits;
  const unsigned per_byte = 8 / bits;
  const float levels = static_cast<float>((1u << bits) - 1);
  const size_t num_bytes = PackedBytes(n, bits);
  for (size_t b = 0; b < num_bytes; ++b) {
    const size_t base = b * per_byte;
    const size_t limit = n - base < per_byte ? n - base : per_byte;
    uint8_t byte = 0;
    for (size_t i = 0; i < limit; ++i) {
      const uint32_t q =
          TernGradLevel(x[base + i], first_index + base + i, scale, levels);
      byte |= static_cast<uint8_t>(q << (i * bits));
    }
    out[b] = byte;
  }
}

template <bool kAccumulate>
void TernGradUnpackScalar(const uint8_t* packed, size_t n, unsigned bits,
                          float min, float gap, float* out) {
  const uint32_t mask = (1u << bits) - 1;
  for (size_t i = 0; i < n; ++i) {
    const size_t bit = i * bits;
    const uint32_t q = (packed[bit >> 3] >> (bit & 7)) & mask;
    const float v = min + static_cast<float>(q) * gap;
    if constexpr (kAccumulate) {
      out[i] += v;
    } else {
      out[i] = v;
    }
  }
}

// One pass of the bracketed selection over x: counts keys above hi, copies
// keys in [lo, hi] (lo <= hi) to within_keys in order, and tracks the
// largest key.
struct BracketCounts {
  size_t above = 0;
  size_t within = 0;
  uint32_t max_key = 0;
};

BracketCounts BracketPassScalar(const float* x, size_t n, uint32_t lo,
                                uint32_t hi, uint32_t* within_keys) {
  BracketCounts counts;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t key = MagnitudeKey(x[i]);
    counts.max_key = key > counts.max_key ? key : counts.max_key;
    counts.above += key > hi;
    within_keys[counts.within] = key;
    counts.within += key - lo <= hi - lo;  // unsigned: lo <= key <= hi
  }
  return counts;
}

// Compacts keys[0..n) in place, in order, to those in [lo, hi]; returns
// how many remain.
size_t KeepInRangeScalar(uint32_t* keys, size_t n, uint32_t lo, uint32_t hi) {
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t key = keys[i];
    keys[kept] = key;
    kept += key - lo <= hi - lo;
  }
  return kept;
}

size_t SelectAtLeastScalar(const float* x, size_t n, uint32_t threshold_key,
                           uint32_t first_index, uint32_t* out,
                           uint32_t* max_key) {
  size_t count = 0;
  uint32_t seen = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t key = MagnitudeKey(x[i]);
    seen = key > seen ? key : seen;
    out[count] = first_index + static_cast<uint32_t>(i);
    count += key >= threshold_key;
  }
  *max_key = seen;
  return count;
}

#ifdef HIPRESS_SIMD_X86

// ----------------------------------------------------------- AVX2 variants

// kCompressLut[m] lists the positions of m's set bits in ascending order,
// one per byte (AVX2 has no compress instruction).
constexpr std::array<uint64_t, 256> MakeCompressLut() {
  std::array<uint64_t, 256> lut{};
  for (uint32_t m = 0; m < 256; ++m) {
    unsigned slot = 0;
    for (uint32_t lane = 0; lane < 8; ++lane) {
      if ((m >> lane) & 1u) {
        lut[m] |= static_cast<uint64_t>(lane) << (8 * slot++);
      }
    }
  }
  return lut;
}
constexpr std::array<uint64_t, 256> kCompressLut = MakeCompressLut();

HIPRESS_TARGET_AVX2 SignStats OnebitSignStatsAvx2(const float* x, size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d pos_lo = zero, pos_hi = zero, neg_lo = zero, neg_hi = zero;
  __m256i cnt_lo = _mm256_setzero_si256(), cnt_hi = _mm256_setzero_si256();
  const size_t n8 = n & ~size_t{7};
  for (size_t i = 0; i < n8; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256d dlo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
    const __m256d dhi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
    const __m256d ge_lo = _mm256_cmp_pd(dlo, zero, _CMP_GE_OQ);
    const __m256d ge_hi = _mm256_cmp_pd(dhi, zero, _CMP_GE_OQ);
    pos_lo = _mm256_add_pd(pos_lo, _mm256_and_pd(ge_lo, dlo));
    pos_hi = _mm256_add_pd(pos_hi, _mm256_and_pd(ge_hi, dhi));
    neg_lo = _mm256_add_pd(neg_lo, _mm256_andnot_pd(ge_lo, dlo));
    neg_hi = _mm256_add_pd(neg_hi, _mm256_andnot_pd(ge_hi, dhi));
    // Comparison masks are all-ones (-1); subtracting increments the count.
    cnt_lo = _mm256_sub_epi64(cnt_lo, _mm256_castpd_si256(ge_lo));
    cnt_hi = _mm256_sub_epi64(cnt_hi, _mm256_castpd_si256(ge_hi));
  }
  alignas(32) double pos[8], neg[8];
  alignas(32) uint64_t cnt[8];
  _mm256_store_pd(pos, pos_lo);
  _mm256_store_pd(pos + 4, pos_hi);
  _mm256_store_pd(neg, neg_lo);
  _mm256_store_pd(neg + 4, neg_hi);
  _mm256_store_si256(reinterpret_cast<__m256i*>(cnt), cnt_lo);
  _mm256_store_si256(reinterpret_cast<__m256i*>(cnt + 4), cnt_hi);
  for (size_t j = 0; j < n - n8; ++j) {
    const double v = static_cast<double>(x[n8 + j]);
    if (x[n8 + j] >= 0.0f) {
      pos[j] += v;
      ++cnt[j];
    } else {
      neg[j] += v;
    }
  }
  SignStats stats;
  for (size_t j = 0; j < 8; ++j) {
    stats.pos_sum += pos[j];
    stats.neg_sum += neg[j];
    stats.pos_count += cnt[j];
  }
  return stats;
}

HIPRESS_TARGET_AVX2 void OnebitPackSignsAvx2(const float* x, size_t n,
                                             uint8_t* out) {
  const __m256 zero = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const int mask = _mm256_movemask_ps(_mm256_cmp_ps(v, zero, _CMP_GE_OQ));
    out[i >> 3] = static_cast<uint8_t>(mask);
  }
  if (i < n) {
    OnebitPackSignsScalar(x + i, n - i, out + (i >> 3));
  }
}

template <bool kAccumulate>
HIPRESS_TARGET_AVX2 void OnebitUnpackAvx2(const uint8_t* packed, size_t n,
                                          float neg, float pos, float* out) {
  const __m256i bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256 posv = _mm256_set1_ps(pos);
  const __m256 negv = _mm256_set1_ps(neg);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i bits = _mm256_set1_epi32(packed[i >> 3]);
    const __m256i sel =
        _mm256_cmpeq_epi32(_mm256_and_si256(bits, bit), bit);
    const __m256 v =
        _mm256_blendv_ps(negv, posv, _mm256_castsi256_ps(sel));
    if constexpr (kAccumulate) {
      _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(out + i), v));
    } else {
      _mm256_storeu_ps(out + i, v);
    }
  }
  if (i < n) {
    OnebitUnpackScalar<kAccumulate>(packed + (i >> 3), n - i, neg, pos,
                                    out + i);
  }
}

HIPRESS_TARGET_AVX2 void TbqPackCodesAvx2(const float* x, size_t n, float tau,
                                          uint8_t* out) {
  const __m256 tauv = _mm256_set1_ps(tau);
  const __m256 ntauv = _mm256_set1_ps(-tau);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const uint32_t plus = static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_cmp_ps(v, tauv, _CMP_GT_OQ)));
    const uint32_t minus = static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_cmp_ps(v, ntauv, _CMP_LT_OQ)));
    const uint32_t group = Spread8(plus) | (Spread8(minus) << 1);
    out[i >> 2] = static_cast<uint8_t>(group);
    out[(i >> 2) + 1] = static_cast<uint8_t>(group >> 8);
  }
  if (i < n) {
    TbqPackCodesScalar(x + i, n - i, tau, out + (i >> 2));
  }
}

template <bool kAccumulate>
HIPRESS_TARGET_AVX2 void TbqUnpackAvx2(const uint8_t* packed, size_t n,
                                       float tau, float* out) {
  const __m256i shifts = _mm256_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14);
  const __m256i three = _mm256_set1_epi32(3);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i two = _mm256_set1_epi32(2);
  const __m256 tauv = _mm256_set1_ps(tau);
  const __m256 ntauv = _mm256_set1_ps(-tau);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint32_t word = static_cast<uint32_t>(packed[i >> 2]) |
                          (static_cast<uint32_t>(packed[(i >> 2) + 1]) << 8);
    const __m256i codes = _mm256_and_si256(
        _mm256_srlv_epi32(_mm256_set1_epi32(static_cast<int>(word)), shifts),
        three);
    const __m256 isp =
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(codes, one));
    const __m256 ism =
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(codes, two));
    const __m256 v = _mm256_or_ps(_mm256_and_ps(isp, tauv),
                                  _mm256_and_ps(ism, ntauv));
    if constexpr (kAccumulate) {
      _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(out + i), v));
    } else {
      _mm256_storeu_ps(out + i, v);
    }
  }
  if (i < n) {
    TbqUnpackScalar<kAccumulate>(packed + (i >> 2), n - i, tau, out + i);
  }
}

HIPRESS_TARGET_AVX2 void Fp16EncodeAvx2(const float* x, size_t n,
                                        uint16_t* out) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h = _mm256_cvtps_ph(
        _mm256_loadu_ps(x + i), _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), h);
  }
  if (i < n) {
    Fp16EncodeScalar(x + i, n - i, out + i);
  }
}

template <bool kAccumulate>
HIPRESS_TARGET_AVX2 void Fp16DecodeAvx2(const uint16_t* halves, size_t n,
                                        float* out) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(halves + i)));
    if constexpr (kAccumulate) {
      _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(out + i), v));
    } else {
      _mm256_storeu_ps(out + i, v);
    }
  }
  if (i < n) {
    Fp16DecodeScalar<kAccumulate>(halves + i, n - i, out + i);
  }
}

HIPRESS_TARGET_AVX2 inline __m256i TotalOrderKeysAvx2(__m256i bits) {
  return _mm256_xor_si256(bits,
                          _mm256_srli_epi32(_mm256_srai_epi32(bits, 31), 1));
}

HIPRESS_TARGET_AVX2 FloatRange TotalOrderMinMaxAvx2(const float* x,
                                                    size_t n) {
  __m256i lo = _mm256_set1_epi32(INT32_MAX);
  __m256i hi = _mm256_set1_epi32(INT32_MIN);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i key = TotalOrderKeysAvx2(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i)));
    lo = _mm256_min_epi32(lo, key);
    hi = _mm256_max_epi32(hi, key);
  }
  alignas(32) int32_t los[8], his[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(los), lo);
  _mm256_store_si256(reinterpret_cast<__m256i*>(his), hi);
  int32_t l = INT32_MAX;
  int32_t h = INT32_MIN;
  for (size_t j = 0; j < 8; ++j) {
    l = los[j] < l ? los[j] : l;
    h = his[j] > h ? his[j] : h;
  }
  for (; i < n; ++i) {
    const int32_t key = TotalOrderKey(x[i]);
    l = key < l ? key : l;
    h = key > h ? key : h;
  }
  return {FromTotalOrderKey(l), FromTotalOrderKey(h)};
}

// a * c mod 2^64 per 64-bit lane, from three 32x32->64 multiplies.
HIPRESS_TARGET_AVX2 inline __m256i Mul64Avx2(__m256i a, uint64_t c) {
  const __m256i c_lo = _mm256_set1_epi64x(static_cast<int64_t>(c & 0xffffffffu));
  const __m256i c_hi = _mm256_set1_epi64x(static_cast<int64_t>(c >> 32));
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), c_lo),
                       _mm256_mul_epu32(a, c_hi));
  return _mm256_add_epi64(_mm256_mul_epu32(a, c_lo),
                          _mm256_slli_epi64(cross, 32));
}

// HashTop24 of four 64-bit states (seed + index * kHashGolden).
HIPRESS_TARGET_AVX2 inline __m256i HashTop24Avx2(__m256i z) {
  z = Mul64Avx2(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)), kHashMix1);
  z = Mul64Avx2(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)), kHashMix2);
  return _mm256_srli_epi64(z, 40);
}

// Packs eight levels (one per 32-bit lane) into kBits bytes.
template <unsigned kBits>
HIPRESS_TARGET_AVX2 inline void PackLevelsAvx2(__m256i q, uint8_t* out) {
  if constexpr (kBits == 1) {
    out[0] = static_cast<uint8_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_slli_epi32(q, 31))));
  } else if constexpr (kBits == 2) {
    const uint32_t bit0 = static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_slli_epi32(q, 31))));
    const uint32_t bit1 = static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_slli_epi32(q, 30))));
    const uint32_t group = Spread8(bit0) | (Spread8(bit1) << 1);
    out[0] = static_cast<uint8_t>(group);
    out[1] = static_cast<uint8_t>(group >> 8);
  } else if constexpr (kBits == 4) {
    // Fold each odd level into the high nibble of its even neighbour, then
    // gather the low byte of every 64-bit lane.
    const __m256i pairs = _mm256_or_si256(q, _mm256_srli_epi64(q, 28));
    const __m256i bytes = _mm256_shuffle_epi8(
        pairs, _mm256_setr_epi8(0, 8, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                                -1, -1, -1, -1, 0, 8, -1, -1, -1, -1, -1, -1,
                                -1, -1, -1, -1, -1, -1, -1, -1));
    const uint16_t lo = static_cast<uint16_t>(_mm256_extract_epi16(bytes, 0));
    const uint16_t hi = static_cast<uint16_t>(_mm256_extract_epi16(bytes, 8));
    std::memcpy(out, &lo, sizeof(lo));
    std::memcpy(out + 2, &hi, sizeof(hi));
  } else {
    const __m256i words = _mm256_packus_epi32(q, q);
    const __m256i bytes = _mm256_packus_epi16(words, words);
    const uint32_t lo = static_cast<uint32_t>(_mm256_extract_epi32(bytes, 0));
    const uint32_t hi = static_cast<uint32_t>(_mm256_extract_epi32(bytes, 4));
    std::memcpy(out, &lo, sizeof(lo));
    std::memcpy(out + 4, &hi, sizeof(hi));
  }
}

template <unsigned kBits>
HIPRESS_TARGET_AVX2 void TernGradQuantizePackAvx2(const float* x, size_t n,
                                                  uint64_t first_index,
                                                  const TernGradScale& scale,
                                                  uint8_t* out) {
  const __m256 minv = _mm256_set1_ps(scale.min);
  const __m256 inv_gap = _mm256_set1_ps(scale.inv_gap);
  const __m256 levels = _mm256_set1_ps(static_cast<float>((1u << kBits) - 1));
  const __m256 zero = _mm256_setzero_ps();
  const __m256 unit = _mm256_set1_ps(0x1.0p-24f);
  const __m256i golden = _mm256_set1_epi64x(static_cast<int64_t>(kHashGolden));
  const __m256i step =
      _mm256_set1_epi64x(static_cast<int64_t>(8 * kHashGolden));
  // Hash states of elements i, i+2, i+4, i+6; the odd ones are one golden
  // step further. Shifting the odd hashes into the high halves puts all
  // eight in element order.
  const auto state = [&](uint64_t offset) {
    return static_cast<int64_t>(scale.seed +
                                (first_index + offset) * kHashGolden);
  };
  __m256i z_even = _mm256_setr_epi64x(state(0), state(2), state(4), state(6));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i h = _mm256_or_si256(
        HashTop24Avx2(z_even),
        _mm256_slli_epi64(HashTop24Avx2(_mm256_add_epi64(z_even, golden)),
                          32));
    z_even = _mm256_add_epi64(z_even, step);
    const __m256 u = _mm256_mul_ps(_mm256_cvtepi32_ps(h), unit);
    const __m256 r = _mm256_mul_ps(
        _mm256_sub_ps(_mm256_loadu_ps(x + i), minv), inv_gap);
    const __m256 t =
        _mm256_max_ps(_mm256_min_ps(_mm256_add_ps(r, u), levels), zero);
    PackLevelsAvx2<kBits>(_mm256_cvttps_epi32(t), out + i * kBits / 8);
  }
  if (i < n) {
    TernGradQuantizePackScalar(x + i, n - i, first_index + i, scale,
                               out + i * kBits / 8);
  }
}

template <unsigned kBits, bool kAccumulate>
HIPRESS_TARGET_AVX2 void TernGradUnpackAvx2(const uint8_t* packed, size_t n,
                                            float min, float gap, float* out) {
  const __m256 minv = _mm256_set1_ps(min);
  const __m256 gapv = _mm256_set1_ps(gap);
  const __m256i shifts =
      _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                         _mm256_set1_epi32(kBits));
  const __m256i mask = _mm256_set1_epi32((1 << kBits) - 1);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint8_t* group = packed + i * kBits / 8;
    __m256i q;
    if constexpr (kBits == 8) {
      q = _mm256_cvtepu8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(group)));
    } else {
      uint32_t word = 0;
      std::memcpy(&word, group, kBits);
      q = _mm256_and_si256(
          _mm256_srlv_epi32(_mm256_set1_epi32(static_cast<int>(word)), shifts),
          mask);
    }
    const __m256 v =
        _mm256_add_ps(minv, _mm256_mul_ps(_mm256_cvtepi32_ps(q), gapv));
    if constexpr (kAccumulate) {
      _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(out + i), v));
    } else {
      _mm256_storeu_ps(out + i, v);
    }
  }
  if (i < n) {
    TernGradUnpackScalar<kAccumulate>(packed + i * kBits / 8, n - i, kBits,
                                      min, gap, out + i);
  }
}

HIPRESS_TARGET_AVX2 inline uint32_t MaxLaneAvx2(__m256i v) {
  alignas(32) uint32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  uint32_t max = 0;
  for (uint32_t lane : lanes) {
    max = lane > max ? lane : max;
  }
  return max;
}

// Lane permutation that moves the lanes selected by an 8-bit mask to the
// front, in order.
HIPRESS_TARGET_AVX2 inline __m256i CompressPermutationAvx2(uint32_t mask) {
  return _mm256_cvtepu8_epi32(
      _mm_cvtsi64_si128(static_cast<int64_t>(kCompressLut[mask])));
}

// Unsigned a > b for AVX2, which only compares signed lanes.
HIPRESS_TARGET_AVX2 inline __m256i GreaterUnsignedAvx2(__m256i a, __m256i b) {
  const __m256i sign = _mm256_set1_epi32(INT32_MIN);
  return _mm256_cmpgt_epi32(_mm256_xor_si256(a, sign),
                            _mm256_xor_si256(b, sign));
}

// Compaction here and below is branch-free: each step stores a full
// vector at the output cursor, which never passes the input index, so the
// store stays inside the n-entry output.
HIPRESS_TARGET_AVX2 BracketCounts BracketPassAvx2(const float* x, size_t n,
                                                  uint32_t lo, uint32_t hi,
                                                  uint32_t* within_keys) {
  const __m256i abs_mask = _mm256_set1_epi32(0x7fffffff);
  const __m256i lov = _mm256_set1_epi32(static_cast<int>(lo));
  const __m256i hiv = _mm256_set1_epi32(static_cast<int>(hi));
  const __m256i width = _mm256_set1_epi32(static_cast<int>(hi - lo));
  // Compare masks are -1 per hit, so subtracting them counts per lane.
  __m256i above = _mm256_setzero_si256();
  __m256i seen = _mm256_setzero_si256();
  size_t within = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i key = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i)),
        abs_mask);
    seen = _mm256_max_epu32(seen, key);
    above = _mm256_sub_epi32(above, GreaterUnsignedAvx2(key, hiv));
    const uint32_t outside = static_cast<uint32_t>(_mm256_movemask_ps(
        _mm256_castsi256_ps(
            GreaterUnsignedAvx2(_mm256_sub_epi32(key, lov), width))));
    const uint32_t m = ~outside & 0xffu;
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(within_keys + within),
        _mm256_permutevar8x32_epi32(key, CompressPermutationAvx2(m)));
    within += static_cast<size_t>(__builtin_popcount(m));
  }
  BracketCounts counts =
      BracketPassScalar(x + i, n - i, lo, hi, within_keys + within);
  alignas(32) uint32_t above_lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(above_lanes), above);
  for (uint32_t lane : above_lanes) {
    counts.above += lane;
  }
  counts.within += within;
  const uint32_t max = MaxLaneAvx2(seen);
  counts.max_key = counts.max_key > max ? counts.max_key : max;
  return counts;
}

// In-place compaction: the store at `kept` never reaches past the vector
// just loaded, because kept <= i.
HIPRESS_TARGET_AVX2 size_t KeepInRangeAvx2(uint32_t* keys, size_t n,
                                           uint32_t lo, uint32_t hi) {
  const __m256i lov = _mm256_set1_epi32(static_cast<int>(lo));
  const __m256i width = _mm256_set1_epi32(static_cast<int>(hi - lo));
  size_t kept = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i key =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    const uint32_t outside = static_cast<uint32_t>(_mm256_movemask_ps(
        _mm256_castsi256_ps(
            GreaterUnsignedAvx2(_mm256_sub_epi32(key, lov), width))));
    const uint32_t m = ~outside & 0xffu;
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(keys + kept),
        _mm256_permutevar8x32_epi32(key, CompressPermutationAvx2(m)));
    kept += static_cast<size_t>(__builtin_popcount(m));
  }
  for (; i < n; ++i) {
    const uint32_t key = keys[i];
    keys[kept] = key;
    kept += key - lo <= hi - lo;
  }
  return kept;
}

HIPRESS_TARGET_AVX2 size_t SelectAtLeastAvx2(const float* x, size_t n,
                                             uint32_t threshold_key,
                                             uint32_t first_index,
                                             uint32_t* out,
                                             uint32_t* max_key) {
  const __m256i abs_mask = _mm256_set1_epi32(0x7fffffff);
  const __m256i threshold =
      _mm256_set1_epi32(static_cast<int>(threshold_key));
  const __m256i eight = _mm256_set1_epi32(8);
  __m256i index =
      _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(first_index)),
                       _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  __m256i seen = _mm256_setzero_si256();
  size_t count = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i key = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i)),
        abs_mask);
    seen = _mm256_max_epu32(seen, key);
    // key >= threshold, unsigned: max(key, threshold) == key.
    const __m256i at_least =
        _mm256_cmpeq_epi32(_mm256_max_epu32(key, threshold), key);
    const uint32_t m = static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(at_least)));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + count),
        _mm256_permutevar8x32_epi32(index, CompressPermutationAvx2(m)));
    count += static_cast<size_t>(__builtin_popcount(m));
    index = _mm256_add_epi32(index, eight);
  }
  uint32_t tail_max = 0;
  count += SelectAtLeastScalar(x + i, n - i, threshold_key,
                               first_index + static_cast<uint32_t>(i),
                               out + count, &tail_max);
  const uint32_t max = MaxLaneAvx2(seen);
  *max_key = tail_max > max ? tail_max : max;
  return count;
}

// -------------------------------------------------------- AVX-512 variants

HIPRESS_TARGET_AVX512 SignStats OnebitSignStatsAvx512(const float* x,
                                                      size_t n) {
  // Same 8-lane schedule as scalar/AVX2: one zmm of 8 doubles per step.
  const __m512d zero = _mm512_setzero_pd();
  __m512d pos_acc = zero, neg_acc = zero;
  __m512i cnt_acc = _mm512_setzero_si512();
  const __m512i one64 = _mm512_set1_epi64(1);
  const size_t n8 = n & ~size_t{7};
  for (size_t i = 0; i < n8; i += 8) {
    const __m512d d = _mm512_cvtps_pd(_mm256_loadu_ps(x + i));
    const __mmask8 ge = _mm512_cmp_pd_mask(d, zero, _CMP_GE_OQ);
    pos_acc = _mm512_add_pd(pos_acc, _mm512_maskz_mov_pd(ge, d));
    neg_acc = _mm512_add_pd(
        neg_acc, _mm512_maskz_mov_pd(static_cast<__mmask8>(~ge), d));
    cnt_acc = _mm512_add_epi64(cnt_acc, _mm512_maskz_mov_epi64(ge, one64));
  }
  alignas(64) double pos[8], neg[8];
  alignas(64) uint64_t cnt[8];
  _mm512_store_pd(pos, pos_acc);
  _mm512_store_pd(neg, neg_acc);
  _mm512_store_si512(cnt, cnt_acc);
  for (size_t j = 0; j < n - n8; ++j) {
    const double v = static_cast<double>(x[n8 + j]);
    if (x[n8 + j] >= 0.0f) {
      pos[j] += v;
      ++cnt[j];
    } else {
      neg[j] += v;
    }
  }
  SignStats stats;
  for (size_t j = 0; j < 8; ++j) {
    stats.pos_sum += pos[j];
    stats.neg_sum += neg[j];
    stats.pos_count += cnt[j];
  }
  return stats;
}

HIPRESS_TARGET_AVX512 void OnebitPackSignsAvx512(const float* x, size_t n,
                                                 uint8_t* out) {
  const __m512 zero = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __mmask16 m =
        _mm512_cmp_ps_mask(_mm512_loadu_ps(x + i), zero, _CMP_GE_OQ);
    const uint16_t bits = static_cast<uint16_t>(m);
    out[i >> 3] = static_cast<uint8_t>(bits);
    out[(i >> 3) + 1] = static_cast<uint8_t>(bits >> 8);
  }
  if (i < n) {
    OnebitPackSignsScalar(x + i, n - i, out + (i >> 3));
  }
}

template <bool kAccumulate>
HIPRESS_TARGET_AVX512 void OnebitUnpackAvx512(const uint8_t* packed, size_t n,
                                              float neg, float pos,
                                              float* out) {
  const __m512 posv = _mm512_set1_ps(pos);
  const __m512 negv = _mm512_set1_ps(neg);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __mmask16 m = static_cast<__mmask16>(
        static_cast<uint32_t>(packed[i >> 3]) |
        (static_cast<uint32_t>(packed[(i >> 3) + 1]) << 8));
    const __m512 v = _mm512_mask_blend_ps(m, negv, posv);
    if constexpr (kAccumulate) {
      _mm512_storeu_ps(out + i, _mm512_add_ps(_mm512_loadu_ps(out + i), v));
    } else {
      _mm512_storeu_ps(out + i, v);
    }
  }
  if (i < n) {
    OnebitUnpackScalar<kAccumulate>(packed + (i >> 3), n - i, neg, pos,
                                    out + i);
  }
}

HIPRESS_TARGET_AVX512 void TbqPackCodesAvx512(const float* x, size_t n,
                                              float tau, uint8_t* out) {
  const __m512 tauv = _mm512_set1_ps(tau);
  const __m512 ntauv = _mm512_set1_ps(-tau);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 v = _mm512_loadu_ps(x + i);
    const uint32_t plus = _mm512_cmp_ps_mask(v, tauv, _CMP_GT_OQ);
    const uint32_t minus = _mm512_cmp_ps_mask(v, ntauv, _CMP_LT_OQ);
    const uint32_t group = Spread16(plus) | (Spread16(minus) << 1);
    std::memcpy(out + (i >> 2), &group, sizeof(group));
  }
  if (i < n) {
    TbqPackCodesScalar(x + i, n - i, tau, out + (i >> 2));
  }
}

template <bool kAccumulate>
HIPRESS_TARGET_AVX512 void TbqUnpackAvx512(const uint8_t* packed, size_t n,
                                           float tau, float* out) {
  const __m512i shifts = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18,
                                           20, 22, 24, 26, 28, 30);
  const __m512i three = _mm512_set1_epi32(3);
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i two = _mm512_set1_epi32(2);
  const __m512 tauv = _mm512_set1_ps(tau);
  const __m512 ntauv = _mm512_set1_ps(-tau);
  const __m512 zerov = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    uint32_t group;
    std::memcpy(&group, packed + (i >> 2), sizeof(group));
    const __m512i codes = _mm512_and_si512(
        _mm512_srlv_epi32(_mm512_set1_epi32(static_cast<int>(group)), shifts),
        three);
    const __mmask16 isp = _mm512_cmpeq_epi32_mask(codes, one);
    const __mmask16 ism = _mm512_cmpeq_epi32_mask(codes, two);
    __m512 v = _mm512_mask_blend_ps(isp, zerov, tauv);
    v = _mm512_mask_blend_ps(ism, v, ntauv);
    if constexpr (kAccumulate) {
      _mm512_storeu_ps(out + i, _mm512_add_ps(_mm512_loadu_ps(out + i), v));
    } else {
      _mm512_storeu_ps(out + i, v);
    }
  }
  if (i < n) {
    TbqUnpackScalar<kAccumulate>(packed + (i >> 2), n - i, tau, out + i);
  }
}

HIPRESS_TARGET_AVX512 void Fp16EncodeAvx512(const float* x, size_t n,
                                            uint16_t* out) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i h = _mm512_cvtps_ph(
        _mm512_loadu_ps(x + i), _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), h);
  }
  if (i < n) {
    Fp16EncodeScalar(x + i, n - i, out + i);
  }
}

template <bool kAccumulate>
HIPRESS_TARGET_AVX512 void Fp16DecodeAvx512(const uint16_t* halves, size_t n,
                                            float* out) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 v = _mm512_cvtph_ps(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(halves + i)));
    if constexpr (kAccumulate) {
      _mm512_storeu_ps(out + i, _mm512_add_ps(_mm512_loadu_ps(out + i), v));
    } else {
      _mm512_storeu_ps(out + i, v);
    }
  }
  if (i < n) {
    Fp16DecodeScalar<kAccumulate>(halves + i, n - i, out + i);
  }
}

HIPRESS_TARGET_AVX512 FloatRange TotalOrderMinMaxAvx512(const float* x,
                                                        size_t n) {
  __m512i lo = _mm512_set1_epi32(INT32_MAX);
  __m512i hi = _mm512_set1_epi32(INT32_MIN);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i bits = _mm512_loadu_si512(x + i);
    const __m512i key = _mm512_xor_si512(
        bits, _mm512_srli_epi32(_mm512_srai_epi32(bits, 31), 1));
    lo = _mm512_min_epi32(lo, key);
    hi = _mm512_max_epi32(hi, key);
  }
  int32_t l = _mm512_reduce_min_epi32(lo);
  int32_t h = _mm512_reduce_max_epi32(hi);
  for (; i < n; ++i) {
    const int32_t key = TotalOrderKey(x[i]);
    l = key < l ? key : l;
    h = key > h ? key : h;
  }
  return {FromTotalOrderKey(l), FromTotalOrderKey(h)};
}

HIPRESS_TARGET_AVX512 inline __m512i Mul64Avx512(__m512i a, uint64_t c) {
  const __m512i c_lo = _mm512_set1_epi64(static_cast<int64_t>(c & 0xffffffffu));
  const __m512i c_hi = _mm512_set1_epi64(static_cast<int64_t>(c >> 32));
  const __m512i cross =
      _mm512_add_epi64(_mm512_mul_epu32(_mm512_srli_epi64(a, 32), c_lo),
                       _mm512_mul_epu32(a, c_hi));
  return _mm512_add_epi64(_mm512_mul_epu32(a, c_lo),
                          _mm512_slli_epi64(cross, 32));
}

HIPRESS_TARGET_AVX512 inline __m512i HashTop24Avx512(__m512i z) {
  z = Mul64Avx512(_mm512_xor_si512(z, _mm512_srli_epi64(z, 30)), kHashMix1);
  z = Mul64Avx512(_mm512_xor_si512(z, _mm512_srli_epi64(z, 27)), kHashMix2);
  return _mm512_srli_epi64(z, 40);
}

// Packs sixteen levels (one per 32-bit lane) into 2 * kBits bytes.
template <unsigned kBits>
HIPRESS_TARGET_AVX512 inline void PackLevelsAvx512(__m512i q, uint8_t* out) {
  if constexpr (kBits == 1) {
    const uint16_t bits = _mm512_test_epi32_mask(q, q);
    std::memcpy(out, &bits, sizeof(bits));
  } else if constexpr (kBits == 2) {
    const uint32_t bit0 =
        _cvtmask16_u32(_mm512_test_epi32_mask(q, _mm512_set1_epi32(1)));
    const uint32_t bit1 =
        _cvtmask16_u32(_mm512_test_epi32_mask(q, _mm512_set1_epi32(2)));
    const uint32_t group = Spread16(bit0) | (Spread16(bit1) << 1);
    std::memcpy(out, &group, sizeof(group));
  } else if constexpr (kBits == 4) {
    // Odd levels into the high nibble of their even neighbour, then the
    // low byte of every 64-bit lane.
    const __m512i pairs = _mm512_or_si512(q, _mm512_srli_epi64(q, 28));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out),
                     _mm512_cvtepi64_epi8(pairs));
  } else {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                     _mm512_cvtepi32_epi8(q));
  }
}

template <unsigned kBits>
HIPRESS_TARGET_AVX512 void TernGradQuantizePackAvx512(
    const float* x, size_t n, uint64_t first_index, const TernGradScale& scale,
    uint8_t* out) {
  const __m512 minv = _mm512_set1_ps(scale.min);
  const __m512 inv_gap = _mm512_set1_ps(scale.inv_gap);
  const __m512 levels = _mm512_set1_ps(static_cast<float>((1u << kBits) - 1));
  const __m512 zero = _mm512_setzero_ps();
  const __m512 unit = _mm512_set1_ps(0x1.0p-24f);
  const __m512i golden = _mm512_set1_epi64(static_cast<int64_t>(kHashGolden));
  const __m512i step =
      _mm512_set1_epi64(static_cast<int64_t>(16 * kHashGolden));
  // Same even/odd split as the AVX2 variant, over sixteen elements.
  const auto state = [&](uint64_t offset) {
    return static_cast<int64_t>(scale.seed +
                                (first_index + offset) * kHashGolden);
  };
  __m512i z_even =
      _mm512_setr_epi64(state(0), state(2), state(4), state(6), state(8),
                        state(10), state(12), state(14));
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i h = _mm512_or_si512(
        HashTop24Avx512(z_even),
        _mm512_slli_epi64(HashTop24Avx512(_mm512_add_epi64(z_even, golden)),
                          32));
    z_even = _mm512_add_epi64(z_even, step);
    const __m512 u = _mm512_mul_ps(_mm512_cvtepi32_ps(h), unit);
    const __m512 r = _mm512_mul_ps(
        _mm512_sub_ps(_mm512_loadu_ps(x + i), minv), inv_gap);
    const __m512 t =
        _mm512_max_ps(_mm512_min_ps(_mm512_add_ps(r, u), levels), zero);
    PackLevelsAvx512<kBits>(_mm512_cvttps_epi32(t), out + i * kBits / 8);
  }
  if (i < n) {
    TernGradQuantizePackScalar(x + i, n - i, first_index + i, scale,
                               out + i * kBits / 8);
  }
}

template <unsigned kBits, bool kAccumulate>
HIPRESS_TARGET_AVX512 void TernGradUnpackAvx512(const uint8_t* packed,
                                                size_t n, float min, float gap,
                                                float* out) {
  const __m512 minv = _mm512_set1_ps(min);
  const __m512 gapv = _mm512_set1_ps(gap);
  const __m512i shifts = _mm512_mullo_epi32(
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
      _mm512_set1_epi32(kBits));
  const __m512i mask = _mm512_set1_epi32((1 << kBits) - 1);
  const __m128i low_nibbles = _mm_set1_epi8(0x0f);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8_t* group = packed + i * kBits / 8;
    __m512i q;
    if constexpr (kBits == 8) {
      q = _mm512_cvtepu8_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(group)));
    } else if constexpr (kBits == 4) {
      // Interleave low and high nibbles back into element order.
      const __m128i bytes =
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(group));
      q = _mm512_cvtepu8_epi32(_mm_unpacklo_epi8(
          _mm_and_si128(bytes, low_nibbles),
          _mm_and_si128(_mm_srli_epi16(bytes, 4), low_nibbles)));
    } else {
      uint32_t word = 0;
      std::memcpy(&word, group, 2 * kBits);
      q = _mm512_and_si512(
          _mm512_srlv_epi32(_mm512_set1_epi32(static_cast<int>(word)), shifts),
          mask);
    }
    const __m512 v =
        _mm512_add_ps(minv, _mm512_mul_ps(_mm512_cvtepi32_ps(q), gapv));
    if constexpr (kAccumulate) {
      _mm512_storeu_ps(out + i, _mm512_add_ps(_mm512_loadu_ps(out + i), v));
    } else {
      _mm512_storeu_ps(out + i, v);
    }
  }
  if (i < n) {
    TernGradUnpackScalar<kAccumulate>(packed + i * kBits / 8, n - i, kBits,
                                      min, gap, out + i);
  }
}

// Set lanes in a compare mask. The explicit zero-extending conversion
// matters: GCC 12 can spill a __mmask16 with a 16-bit store and reload it
// for popcnt as 32 bits, counting two stray bytes.
HIPRESS_TARGET_AVX512 inline size_t MaskCount(__mmask16 m) {
  return static_cast<size_t>(__builtin_popcount(_cvtmask16_u32(m)));
}

HIPRESS_TARGET_AVX512 BracketCounts BracketPassAvx512(const float* x,
                                                      size_t n, uint32_t lo,
                                                      uint32_t hi,
                                                      uint32_t* within_keys) {
  const __m512i abs_mask = _mm512_set1_epi32(0x7fffffff);
  const __m512i lov = _mm512_set1_epi32(static_cast<int>(lo));
  const __m512i hiv = _mm512_set1_epi32(static_cast<int>(hi));
  const __m512i width = _mm512_set1_epi32(static_cast<int>(hi - lo));
  const __m512i one = _mm512_set1_epi32(1);
  __m512i above = _mm512_setzero_si512();
  __m512i seen = _mm512_setzero_si512();
  size_t within = 0;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i key = _mm512_and_si512(_mm512_loadu_si512(x + i), abs_mask);
    seen = _mm512_max_epu32(seen, key);
    above = _mm512_mask_add_epi32(above, _mm512_cmpgt_epu32_mask(key, hiv),
                                  above, one);
    const __mmask16 m =
        _mm512_cmple_epu32_mask(_mm512_sub_epi32(key, lov), width);
    _mm512_storeu_si512(within_keys + within,
                        _mm512_maskz_compress_epi32(m, key));
    within += MaskCount(m);
  }
  BracketCounts counts =
      BracketPassScalar(x + i, n - i, lo, hi, within_keys + within);
  counts.above += static_cast<uint32_t>(_mm512_reduce_add_epi32(above));
  counts.within += within;
  const uint32_t max = _mm512_reduce_max_epu32(seen);
  counts.max_key = counts.max_key > max ? counts.max_key : max;
  return counts;
}

HIPRESS_TARGET_AVX512 size_t KeepInRangeAvx512(uint32_t* keys, size_t n,
                                               uint32_t lo, uint32_t hi) {
  const __m512i lov = _mm512_set1_epi32(static_cast<int>(lo));
  const __m512i width = _mm512_set1_epi32(static_cast<int>(hi - lo));
  size_t kept = 0;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i key = _mm512_loadu_si512(keys + i);
    const __mmask16 m =
        _mm512_cmple_epu32_mask(_mm512_sub_epi32(key, lov), width);
    _mm512_storeu_si512(keys + kept, _mm512_maskz_compress_epi32(m, key));
    kept += MaskCount(m);
  }
  for (; i < n; ++i) {
    const uint32_t key = keys[i];
    keys[kept] = key;
    kept += key - lo <= hi - lo;
  }
  return kept;
}

HIPRESS_TARGET_AVX512 size_t SelectAtLeastAvx512(const float* x, size_t n,
                                                 uint32_t threshold_key,
                                                 uint32_t first_index,
                                                 uint32_t* out,
                                                 uint32_t* max_key) {
  const __m512i abs_mask = _mm512_set1_epi32(0x7fffffff);
  const __m512i threshold =
      _mm512_set1_epi32(static_cast<int>(threshold_key));
  const __m512i sixteen = _mm512_set1_epi32(16);
  __m512i index = _mm512_add_epi32(
      _mm512_set1_epi32(static_cast<int>(first_index)),
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
  __m512i seen = _mm512_setzero_si512();
  size_t count = 0;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i key = _mm512_and_si512(_mm512_loadu_si512(x + i), abs_mask);
    seen = _mm512_max_epu32(seen, key);
    const __mmask16 m = _mm512_cmpge_epu32_mask(key, threshold);
    _mm512_storeu_si512(out + count, _mm512_maskz_compress_epi32(m, index));
    count += MaskCount(m);
    index = _mm512_add_epi32(index, sixteen);
  }
  uint32_t tail_max = 0;
  count += SelectAtLeastScalar(x + i, n - i, threshold_key,
                               first_index + static_cast<uint32_t>(i),
                               out + count, &tail_max);
  const uint32_t max = _mm512_reduce_max_epu32(seen);
  *max_key = tail_max > max ? tail_max : max;
  return count;
}

#endif  // HIPRESS_SIMD_X86

}  // namespace

// ------------------------------------------------------------- dispatchers

// Returns variant(args...) for the active tier.
#ifdef HIPRESS_SIMD_X86
#define HIPRESS_DISPATCH(scalar, avx2, avx512, ...) \
  switch (ActiveSimdTier()) {                       \
    case SimdTier::kAvx512:                         \
      return avx512(__VA_ARGS__);                   \
    case SimdTier::kAvx2:                           \
      return avx2(__VA_ARGS__);                     \
    case SimdTier::kScalar:                         \
      break;                                        \
  }                                                 \
  return scalar(__VA_ARGS__)
#else
#define HIPRESS_DISPATCH(scalar, avx2, avx512, ...) return scalar(__VA_ARGS__)
#endif

SignStats OnebitSignStats(const float* x, size_t n) {
  HIPRESS_DISPATCH(OnebitSignStatsScalar, OnebitSignStatsAvx2,
                   OnebitSignStatsAvx512, x, n);
}

void OnebitPackSigns(const float* x, size_t n, uint8_t* out,
                     size_t out_bytes) {
  CHECK_GE(out_bytes, PackedBytes(n, 1))
      << "onebit pack: misreported output capacity";
  HIPRESS_DISPATCH(OnebitPackSignsScalar, OnebitPackSignsAvx2,
                   OnebitPackSignsAvx512, x, n, out);
}

void OnebitUnpackSigns(const uint8_t* packed, size_t n, float neg, float pos,
                       float* out) {
  HIPRESS_DISPATCH(OnebitUnpackScalar<false>, OnebitUnpackAvx2<false>,
                   OnebitUnpackAvx512<false>, packed, n, neg, pos, out);
}

void OnebitUnpackSignsAdd(const uint8_t* packed, size_t n, float neg,
                          float pos, float* accum) {
  HIPRESS_DISPATCH(OnebitUnpackScalar<true>, OnebitUnpackAvx2<true>,
                   OnebitUnpackAvx512<true>, packed, n, neg, pos, accum);
}

void TbqPackCodes(const float* x, size_t n, float tau, uint8_t* out,
                  size_t out_bytes) {
  CHECK_GE(out_bytes, PackedBytes(n, 2))
      << "tbq pack: misreported output capacity";
  HIPRESS_DISPATCH(TbqPackCodesScalar, TbqPackCodesAvx2, TbqPackCodesAvx512, x,
                   n, tau, out);
}

void TbqUnpackCodes(const uint8_t* packed, size_t n, float tau, float* out) {
  HIPRESS_DISPATCH(TbqUnpackScalar<false>, TbqUnpackAvx2<false>,
                   TbqUnpackAvx512<false>, packed, n, tau, out);
}

void TbqUnpackCodesAdd(const uint8_t* packed, size_t n, float tau,
                       float* accum) {
  HIPRESS_DISPATCH(TbqUnpackScalar<true>, TbqUnpackAvx2<true>,
                   TbqUnpackAvx512<true>, packed, n, tau, accum);
}

void Fp16Encode(const float* x, size_t n, uint16_t* out,
                size_t out_capacity) {
  CHECK_GE(out_capacity, n) << "fp16 encode: misreported output capacity";
  HIPRESS_DISPATCH(Fp16EncodeScalar, Fp16EncodeAvx2, Fp16EncodeAvx512, x, n,
                   out);
}

void Fp16Decode(const uint16_t* halves, size_t n, float* out) {
  HIPRESS_DISPATCH(Fp16DecodeScalar<false>, Fp16DecodeAvx2<false>,
                   Fp16DecodeAvx512<false>, halves, n, out);
}

void Fp16DecodeAdd(const uint16_t* halves, size_t n, float* accum) {
  HIPRESS_DISPATCH(Fp16DecodeScalar<true>, Fp16DecodeAvx2<true>,
                   Fp16DecodeAvx512<true>, halves, n, accum);
}

FloatRange TotalOrderMinMax(const float* x, size_t n) {
  CHECK_GE(n, 1u) << "TotalOrderMinMax of an empty range";
  HIPRESS_DISPATCH(TotalOrderMinMaxScalar, TotalOrderMinMaxAvx2,
                   TotalOrderMinMaxAvx512, x, n);
}

namespace {

template <unsigned kBits>
void TernGradQuantizePackBits(const float* x, size_t n, uint64_t first_index,
                              const TernGradScale& scale, uint8_t* out) {
  HIPRESS_DISPATCH(TernGradQuantizePackScalar, TernGradQuantizePackAvx2<kBits>,
                   TernGradQuantizePackAvx512<kBits>, x, n, first_index, scale,
                   out);
}

template <unsigned kBits, bool kAccumulate>
void TernGradUnpackBits(const uint8_t* packed, size_t n, float min, float gap,
                        float* out) {
  const auto scalar = [](const uint8_t* p, size_t count, float lo, float step,
                         float* dst) {
    TernGradUnpackScalar<kAccumulate>(p, count, kBits, lo, step, dst);
  };
  HIPRESS_DISPATCH(scalar, (TernGradUnpackAvx2<kBits, kAccumulate>),
                   (TernGradUnpackAvx512<kBits, kAccumulate>), packed, n, min,
                   gap, out);
}

template <bool kAccumulate>
void TernGradUnpackAny(const uint8_t* packed, size_t n, unsigned bits,
                       float min, float gap, float* out) {
  switch (bits) {
    case 1:
      return TernGradUnpackBits<1, kAccumulate>(packed, n, min, gap, out);
    case 2:
      return TernGradUnpackBits<2, kAccumulate>(packed, n, min, gap, out);
    case 4:
      return TernGradUnpackBits<4, kAccumulate>(packed, n, min, gap, out);
    case 8:
      return TernGradUnpackBits<8, kAccumulate>(packed, n, min, gap, out);
  }
  CHECK(false) << "terngrad unpack: bitwidth must be 1/2/4/8, got " << bits;
}

BracketCounts BracketPass(const float* x, size_t n, uint32_t lo, uint32_t hi,
                          uint32_t* within_keys) {
  HIPRESS_DISPATCH(BracketPassScalar, BracketPassAvx2, BracketPassAvx512, x, n,
                   lo, hi, within_keys);
}

size_t KeepInRange(uint32_t* keys, size_t n, uint32_t lo, uint32_t hi) {
  HIPRESS_DISPATCH(KeepInRangeScalar, KeepInRangeAvx2, KeepInRangeAvx512, keys,
                   n, lo, hi);
}

// Exact k-th largest by radix select, most significant digit first: count
// each digit value, walk down from the largest until k is reached, keep
// only that digit's keys and repeat. The chosen digits spell the answer.
uint32_t RadixSelect(uint32_t* keys, size_t n, size_t k) {
  struct Digit {
    unsigned shift;
    unsigned bits;
  };
  constexpr Digit kDigits[] = {{21, 11}, {10, 11}, {0, 10}};
  uint32_t histogram[1u << 11];
  uint32_t prefix = 0;
  for (const Digit& d : kDigits) {
    const uint32_t mask = (1u << d.bits) - 1;
    std::fill(histogram, histogram + mask + 1, 0u);
    uint32_t digit = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t v = (keys[i] >> d.shift) & mask;
      ++histogram[v];
      digit = v > digit ? v : digit;
    }
    while (histogram[digit] < k) {
      k -= histogram[digit];
      --digit;
    }
    prefix |= digit << d.shift;
    if (d.shift > 0 && histogram[digit] < n) {
      n = KeepInRange(keys, n, prefix, prefix | ((1u << d.shift) - 1));
    }
  }
  return prefix;
}

// Narrows the search before any histogram: the ranks around k's expected
// place in a strided sample of x give a key range [lo, hi]. One vector pass
// counts the keys above it and copies those inside it to `within`. If the
// k-th largest must lie inside, the radix select runs on those alone.
// Returns false when the sample guessed wrong.
bool BracketedSelect(const float* x, size_t n, size_t k, uint32_t* within,
                     uint32_t* max_key, uint32_t* answer) {
  constexpr size_t kSample = 1024;
  // k's expected rank in the sample, widened by about three standard
  // deviations of a binomial count.
  const double rank = static_cast<double>(k) * kSample / static_cast<double>(n);
  const double margin = 3.0 * std::sqrt(rank) + 4.0;
  if (rank + margin >= static_cast<double>(kSample)) {
    return false;  // the range would hold nearly every key
  }
  const size_t stride = n / kSample;
  std::array<uint32_t, kSample> sample;
  for (size_t j = 0; j < kSample; ++j) {
    sample[j] = MagnitudeKey(x[j * stride]);
  }
  const size_t lo_rank = static_cast<size_t>(std::ceil(rank + margin));
  std::nth_element(sample.begin(), sample.begin() + (lo_rank - 1),
                   sample.end(), std::greater<>());
  const uint32_t lo = sample[lo_rank - 1];
  uint32_t hi = UINT32_MAX;
  if (rank - margin >= 1.0) {
    const size_t hi_rank = static_cast<size_t>(std::floor(rank - margin));
    std::nth_element(sample.begin(), sample.begin() + (hi_rank - 1),
                     sample.begin() + (lo_rank - 1), std::greater<>());
    hi = sample[hi_rank - 1];
  }
  const BracketCounts counts = BracketPass(x, n, lo, hi, within);
  *max_key = counts.max_key;
  if (counts.above >= k || counts.above + counts.within < k) {
    return false;
  }
  *answer = lo == hi ? lo : RadixSelect(within, counts.within, k - counts.above);
  return true;
}

}  // namespace

void TernGradQuantizePack(const float* x, size_t n, uint64_t first_index,
                          const TernGradScale& scale, uint8_t* out,
                          size_t out_bytes) {
  CHECK_GE(out_bytes, PackedBytes(n, scale.bits))
      << "terngrad pack: misreported output capacity";
  switch (scale.bits) {
    case 1:
      return TernGradQuantizePackBits<1>(x, n, first_index, scale, out);
    case 2:
      return TernGradQuantizePackBits<2>(x, n, first_index, scale, out);
    case 4:
      return TernGradQuantizePackBits<4>(x, n, first_index, scale, out);
    case 8:
      return TernGradQuantizePackBits<8>(x, n, first_index, scale, out);
  }
  CHECK(false) << "terngrad pack: bitwidth must be 1/2/4/8, got " << scale.bits;
}

void TernGradUnpack(const uint8_t* packed, size_t n, unsigned bits, float min,
                    float gap, float* out) {
  TernGradUnpackAny<false>(packed, n, bits, min, gap, out);
}

void TernGradUnpackAdd(const uint8_t* packed, size_t n, unsigned bits,
                       float min, float gap, float* accum) {
  TernGradUnpackAny<true>(packed, n, bits, min, gap, accum);
}

uint32_t KthLargestMagnitude(const float* x, size_t n, size_t k,
                             uint32_t* scratch, uint32_t* max_key) {
  CHECK(k >= 1 && k <= n) << "KthLargestMagnitude: k=" << k << " of n=" << n;
  uint32_t answer;
  if (n >= 8 * 1024 && BracketedSelect(x, n, k, scratch, max_key, &answer)) {
    return answer;
  }
  // Every key: the widest bracket keeps all of them.
  *max_key = BracketPass(x, n, 0, UINT32_MAX, scratch).max_key;
  // Tiny inputs: a histogram pass costs more than comparing.
  if (n <= 64) {
    std::nth_element(scratch, scratch + (k - 1), scratch + n,
                     std::greater<>());
    return scratch[k - 1];
  }
  return RadixSelect(scratch, n, k);
}

size_t SelectAtLeast(const float* x, size_t n, uint32_t threshold_key,
                     uint32_t first_index, uint32_t* out, uint32_t* max_key) {
  HIPRESS_DISPATCH(SelectAtLeastScalar, SelectAtLeastAvx2, SelectAtLeastAvx512,
                   x, n, threshold_key, first_index, out, max_key);
}

#undef HIPRESS_DISPATCH

}  // namespace hipress::simd
