#include "src/minidnn/tanh.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(HIPRESS_FORCE_SCALAR)
#define HIPRESS_TANH_SIMD_X86 1
#include <immintrin.h>
#endif

// This file is built with -ffp-contract=off: every multiply and add below
// rounds on its own, as in the C code it transcribes.
namespace hipress {
namespace {

constexpr float FromWord(uint32_t word) { return std::bit_cast<float>(word); }
constexpr uint32_t ToWord(float value) {
  return std::bit_cast<uint32_t>(value);
}

// fdlibm's float constants, by bit pattern.
constexpr float kOne = 1.0f;
constexpr float kTwo = 2.0f;
constexpr float kTiny = 1.0e-30f;
constexpr float kHuge = 1.0e+30f;
constexpr float kOverflow = FromWord(0x42b17180);  // 88.7216796875
constexpr float kLn2Hi = FromWord(0x3f317180);
constexpr float kLn2Lo = FromWord(0x3717f7d1);
constexpr float kInvLn2 = FromWord(0x3fb8aa3b);
// Scaled coefficients of expm1's rational approximation.
constexpr float kQ1 = FromWord(0xbd088889);
constexpr float kQ2 = FromWord(0x3ad00d01);
constexpr float kQ3 = FromWord(0xb8a670cd);
constexpr float kQ4 = FromWord(0x36867e54);
constexpr float kQ5 = FromWord(0xb457edbb);

// glibc's __expm1f (s_expm1f.c), without its errno and exception-flag side
// effects.
float Expm1f(float x) {
  const uint32_t word = ToWord(x);
  const uint32_t xsb = word & 0x80000000u;
  const uint32_t hx = word & 0x7fffffffu;

  // Huge and non-finite arguments.
  if (hx >= 0x4195b844u) {    // |x| >= 27 ln2
    if (hx >= 0x42b17218u) {  // |x| >= 88.721...
      if (hx > 0x7f800000u) {
        return x + x;  // NaN
      }
      if (hx == 0x7f800000u) {
        return xsb == 0 ? x : -1.0f;  // exp(+-inf) - 1 = {inf, -1}
      }
      if (x > kOverflow) {
        return kHuge * kHuge;
      }
    }
    if (xsb != 0) {
      return kTiny - kOne;  // x < -27 ln2: -1
    }
  }

  // Argument reduction: x = k ln2 + (hi - lo), with c the error of hi - lo.
  int32_t k = 0;
  float c = 0.0f;
  if (hx > 0x3eb17218u) {  // |x| > 0.5 ln2
    float hi;
    float lo;
    if (hx < 0x3f851592u) {  // and |x| < 1.5 ln2
      if (xsb == 0) {
        hi = x - kLn2Hi;
        lo = kLn2Lo;
        k = 1;
      } else {
        hi = x + kLn2Hi;
        lo = -kLn2Lo;
        k = -1;
      }
    } else {
      k = static_cast<int32_t>(kInvLn2 * x + (xsb == 0 ? 0.5f : -0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // t * ln2_hi is exact here
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // |x| < 2^-25: x itself
    const float t = kHuge + x;
    return x - (t - kHuge);
  }

  // x is now in the primary range.
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      kOne + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) {
    return x - (x * e - hxs);  // c is 0
  }
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) {
    return 0.5f * (x - e) - 0.5f;
  }
  if (k == 1) {
    if (x < -0.25f) {
      return -2.0f * (e - (x + 0.5f));
    }
    return kOne + 2.0f * (x - e);
  }
  // Adding k << 23 to the word adds k to the exponent.
  const uint32_t scale = static_cast<uint32_t>(k) << 23;
  if (k <= -2 || k > 56) {
    const float y = kOne - (e - x);
    return FromWord(ToWord(y) + scale) - kOne;
  }
  float y;
  if (k < 23) {
    t = FromWord(0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    y = t - (e - x);
  } else {
    t = FromWord(static_cast<uint32_t>(0x7f - k) << 23);  // 2^-k
    y = x - (e + t);
    y += kOne;
  }
  return FromWord(ToWord(y) + scale);
}

#ifdef HIPRESS_TANH_SIMD_X86
// The operations the lane kernel needs, for each vector width. Masks are
// all-ones lanes on AVX2 and mask registers on AVX-512; bit operations go
// through integer vectors, which AVX-512F has for floats only with DQ.
#define HIPRESS_LANE_OP(isa) \
  __attribute__((target(isa), always_inline)) static inline

struct Avx2Ops {
  using V = __m256;
  using I = __m256i;
  using M = __m256i;
  static constexpr size_t kLanes = 8;
  HIPRESS_LANE_OP("avx2") V Load(const float* p) { return _mm256_loadu_ps(p); }
  HIPRESS_LANE_OP("avx2") void Store(float* p, V v) { _mm256_storeu_ps(p, v); }
  HIPRESS_LANE_OP("avx2") V F(float f) { return _mm256_set1_ps(f); }
  HIPRESS_LANE_OP("avx2") I N(int32_t n) { return _mm256_set1_epi32(n); }
  HIPRESS_LANE_OP("avx2") V Add(V a, V b) { return _mm256_add_ps(a, b); }
  HIPRESS_LANE_OP("avx2") V Sub(V a, V b) { return _mm256_sub_ps(a, b); }
  HIPRESS_LANE_OP("avx2") V Mul(V a, V b) { return _mm256_mul_ps(a, b); }
  HIPRESS_LANE_OP("avx2") V Div(V a, V b) { return _mm256_div_ps(a, b); }
  HIPRESS_LANE_OP("avx2") I Word(V a) { return _mm256_castps_si256(a); }
  HIPRESS_LANE_OP("avx2") V Float(I a) { return _mm256_castsi256_ps(a); }
  HIPRESS_LANE_OP("avx2") I And(I a, I b) { return _mm256_and_si256(a, b); }
  HIPRESS_LANE_OP("avx2") I Xor(I a, I b) { return _mm256_xor_si256(a, b); }
  HIPRESS_LANE_OP("avx2") I Or(I a, I b) { return _mm256_or_si256(a, b); }
  HIPRESS_LANE_OP("avx2") I AddN(I a, I b) { return _mm256_add_epi32(a, b); }
  HIPRESS_LANE_OP("avx2") I SubN(I a, I b) { return _mm256_sub_epi32(a, b); }
  HIPRESS_LANE_OP("avx2") I Shl23(I a) { return _mm256_slli_epi32(a, 23); }
  HIPRESS_LANE_OP("avx2") I Srlv(I a, I b) { return _mm256_srlv_epi32(a, b); }
  HIPRESS_LANE_OP("avx2") I Trunc(V a) { return _mm256_cvttps_epi32(a); }
  HIPRESS_LANE_OP("avx2") V Convert(I a) { return _mm256_cvtepi32_ps(a); }
  HIPRESS_LANE_OP("avx2") M Lt(I a, I b) { return _mm256_cmpgt_epi32(b, a); }
  HIPRESS_LANE_OP("avx2") M Gt(I a, I b) { return _mm256_cmpgt_epi32(a, b); }
  HIPRESS_LANE_OP("avx2") M Eq(I a, I b) { return _mm256_cmpeq_epi32(a, b); }
  HIPRESS_LANE_OP("avx2") bool Any(M m) { return !_mm256_testz_si256(m, m); }
  // m ? a : b, lane by lane.
  HIPRESS_LANE_OP("avx2") V Select(M m, V a, V b) {
    return _mm256_blendv_ps(b, a, _mm256_castsi256_ps(m));
  }
  HIPRESS_LANE_OP("avx2") I SelectN(M m, I a, I b) {
    return _mm256_blendv_epi8(b, a, m);
  }
};

struct Avx512Ops {
  using V = __m512;
  using I = __m512i;
  using M = __mmask16;
  static constexpr size_t kLanes = 16;
  // The maskz forms with every lane set are the plain instructions; the
  // unmasked intrinsics trip GCC 12's -Wmaybe-uninitialized.
  static constexpr M kAll = 0xffff;
  HIPRESS_LANE_OP("avx512f") V Load(const float* p) {
    return _mm512_loadu_ps(p);
  }
  HIPRESS_LANE_OP("avx512f") void Store(float* p, V v) {
    _mm512_storeu_ps(p, v);
  }
  HIPRESS_LANE_OP("avx512f") V F(float f) { return _mm512_set1_ps(f); }
  HIPRESS_LANE_OP("avx512f") I N(int32_t n) { return _mm512_set1_epi32(n); }
  HIPRESS_LANE_OP("avx512f") V Add(V a, V b) { return _mm512_add_ps(a, b); }
  HIPRESS_LANE_OP("avx512f") V Sub(V a, V b) { return _mm512_sub_ps(a, b); }
  HIPRESS_LANE_OP("avx512f") V Mul(V a, V b) { return _mm512_mul_ps(a, b); }
  HIPRESS_LANE_OP("avx512f") V Div(V a, V b) { return _mm512_div_ps(a, b); }
  HIPRESS_LANE_OP("avx512f") I Word(V a) { return _mm512_castps_si512(a); }
  HIPRESS_LANE_OP("avx512f") V Float(I a) { return _mm512_castsi512_ps(a); }
  HIPRESS_LANE_OP("avx512f") I And(I a, I b) { return _mm512_and_si512(a, b); }
  HIPRESS_LANE_OP("avx512f") I Xor(I a, I b) { return _mm512_xor_si512(a, b); }
  HIPRESS_LANE_OP("avx512f") I Or(I a, I b) { return _mm512_or_si512(a, b); }
  HIPRESS_LANE_OP("avx512f") I AddN(I a, I b) {
    return _mm512_add_epi32(a, b);
  }
  HIPRESS_LANE_OP("avx512f") I SubN(I a, I b) {
    return _mm512_sub_epi32(a, b);
  }
  HIPRESS_LANE_OP("avx512f") I Shl23(I a) {
    return _mm512_maskz_slli_epi32(kAll, a, 23);
  }
  HIPRESS_LANE_OP("avx512f") I Srlv(I a, I b) {
    return _mm512_maskz_srlv_epi32(kAll, a, b);
  }
  HIPRESS_LANE_OP("avx512f") I Trunc(V a) {
    return _mm512_maskz_cvttps_epi32(kAll, a);
  }
  HIPRESS_LANE_OP("avx512f") V Convert(I a) {
    return _mm512_maskz_cvtepi32_ps(kAll, a);
  }
  HIPRESS_LANE_OP("avx512f") M Lt(I a, I b) {
    return _mm512_cmplt_epi32_mask(a, b);
  }
  HIPRESS_LANE_OP("avx512f") M Gt(I a, I b) {
    return _mm512_cmpgt_epi32_mask(a, b);
  }
  HIPRESS_LANE_OP("avx512f") M Eq(I a, I b) {
    return _mm512_cmpeq_epi32_mask(a, b);
  }
  HIPRESS_LANE_OP("avx512f") bool Any(M m) { return m != 0; }
  HIPRESS_LANE_OP("avx512f") V Select(M m, V a, V b) {
    return _mm512_mask_blend_ps(m, b, a);
  }
  HIPRESS_LANE_OP("avx512f") I SelectN(M m, I a, I b) {
    return _mm512_mask_blend_epi32(m, b, a);
  }
};
#undef HIPRESS_LANE_OP

// Tanhf in every lane: each branch of Tanhf and Expm1f computed in all
// lanes (same operations, same order) and picked by mask. Only the
// branches tanh reaches are kept: its expm1 argument y is 2|x| in [2, 44)
// or -2|x| in (-2, 0), so expm1's huge/non-finite filter and its k = 1
// case never apply. A partial last block runs on a zero-padded copy.
#define HIPRESS_TANH_LANES(name, isa, O)                                     \
  __attribute__((target(isa))) void name(float* values, size_t n) {          \
    using V = O::V;                                                          \
    using I = O::I;                                                          \
    constexpr size_t kLanes = O::kLanes;                                     \
    const I sign = O::N(INT32_MIN);                                          \
    float tail[kLanes];                                                      \
    for (size_t i = 0; i < n; i += kLanes) {                                 \
      const size_t count = std::min(kLanes, n - i);                          \
      float* p = values + i;                                                 \
      if (count < kLanes) {                                                  \
        std::fill(tail, tail + kLanes, 0.0f);                                \
        std::memcpy(tail, p, count * sizeof(float));                         \
        p = tail;                                                            \
      }                                                                      \
      const V x = O::Load(p);                                                \
      const I jx = O::Word(x);                                               \
      const I ix = O::And(jx, O::N(0x7fffffff));                             \
      const V ax = O::Float(ix);                                             \
      const auto big = O::Gt(ix, O::N(0x3f7fffff)); /* |x| >= 1 */           \
      const V y = O::Select(big, O::Mul(O::F(kTwo), ax),                     \
                            O::Mul(O::F(-kTwo), ax));                        \
      /* expm1(y). Reduction: k = +-1 for 0.5 ln2 < |y| < 1.5 ln2, */        \
      /* trunc(y / ln2 +- 0.5) above, 0 below. */                            \
      const I jy = O::Word(y);                                               \
      const I hy = O::And(jy, O::N(0x7fffffff));                             \
      const V half = O::Float(O::Or(O::And(jy, sign), O::Word(O::F(0.5f)))); \
      I k = O::Trunc(O::Add(O::Mul(O::F(kInvLn2), y), half));                \
      k = O::SelectN(O::Lt(hy, O::N(0x3f851592)),                            \
                     O::SelectN(O::Lt(jy, O::N(0)), O::N(-1), O::N(1)), k);  \
      k = O::SelectN(O::Gt(hy, O::N(0x3eb17218)), k, O::N(0));               \
      const V t = O::Convert(k);                                             \
      const V hi = O::Sub(y, O::Mul(t, O::F(kLn2Hi)));                       \
      const V lo = O::Mul(t, O::F(kLn2Lo));                                  \
      const V xr = O::Sub(hi, lo);                                           \
      const V c = O::Sub(O::Sub(hi, xr), lo); /* +0 when k == 0 */           \
      const V hfx = O::Mul(O::F(0.5f), xr);                                  \
      const V hxs = O::Mul(xr, hfx);                                         \
      V r1 = O::Add(O::F(kQ4), O::Mul(hxs, O::F(kQ5)));                      \
      r1 = O::Add(O::F(kQ3), O::Mul(hxs, r1));                               \
      r1 = O::Add(O::F(kQ2), O::Mul(hxs, r1));                               \
      r1 = O::Add(O::F(kQ1), O::Mul(hxs, r1));                               \
      r1 = O::Add(O::F(kOne), O::Mul(hxs, r1));                              \
      const V rt = O::Sub(O::F(3.0f), O::Mul(r1, hfx));                      \
      V e = O::Mul(hxs, O::Div(O::Sub(r1, rt),                               \
                               O::Sub(O::F(6.0f), O::Mul(xr, rt))));         \
      /* With c == +0 this is k == 0's x * e - hxs, bit for bit. */          \
      e = O::Sub(O::Sub(O::Mul(xr, O::Sub(e, c)), c), hxs);                  \
      const V u = O::Sub(xr, e);                    /* k == 0 */             \
      const V km1 = O::Sub(O::Mul(O::F(0.5f), u), O::F(0.5f)); /* k == -1 */ \
      const I scale = O::Shl23(k);                                           \
      /* 1 - 2^-k for k < 23. A shift count out of 0..31 gives 0, so */      \
      /* k <= -2 and k > 56 get 1.0f, their branch's constant. */            \
      const V low = O::Float(                                                \
          O::SubN(O::N(0x3f800000), O::Srlv(O::N(0x1000000), k)));           \
      const V ylow = O::Float(O::AddN(                                       \
          O::Word(O::Sub(low, O::Sub(e, xr))), scale));                      \
      const V pow2 = O::Float(O::Shl23(O::SubN(O::N(0x7f), k))); /* 2^-k */  \
      const V yhigh = O::Float(O::AddN(                                      \
          O::Word(O::Add(O::Sub(xr, O::Add(e, pow2)), O::F(kOne))), scale)); \
      const V yfar = O::Sub(ylow, O::F(kOne));                               \
      V t1 = O::Select(O::Lt(k, O::N(23)), ylow, yhigh);                     \
      t1 = O::Select(O::Lt(k, O::N(-1)), yfar, t1);                          \
      t1 = O::Select(O::Gt(k, O::N(56)), yfar, t1);                          \
      t1 = O::Select(O::Eq(k, O::N(-1)), km1, t1);                           \
      t1 = O::Select(O::Eq(k, O::N(0)), u, t1);                              \
      t1 = O::Select(O::Lt(hy, O::N(0x33000000)), y, t1);                    \
      /* tanh: 1 - 2 / (t1 + 2) for |x| >= 1, -t1 / (t1 + 2) below. */       \
      const V q = O::Div(O::Select(big, O::F(kTwo),                          \
                                   O::Float(O::Xor(O::Word(t1), sign))),     \
                         O::Add(t1, O::F(kTwo)));                            \
      V z = O::Select(big, O::Sub(O::F(kOne), q), q);                        \
      z = O::Select(O::Gt(ix, O::N(0x41afffff)), O::F(kOne - kTiny), z);     \
      z = O::Float(O::Xor(O::Word(z), O::And(jx, sign)));                    \
      /* |x| < 2^-55, +-0 included. */                                       \
      z = O::Select(O::Lt(ix, O::N(0x24000000)),                             \
                    O::Mul(x, O::Add(O::F(kOne), x)), z);                    \
      const auto special = O::Gt(ix, O::N(0x7f7fffff)); /* inf, NaN */       \
      if (O::Any(special)) {                                                 \
        const V inv = O::Div(O::F(kOne), x);                                 \
        z = O::Select(special,                                               \
                      O::Select(O::Lt(jx, O::N(0)), O::Sub(inv, O::F(kOne)), \
                                O::Add(inv, O::F(kOne))),                    \
                      z);                                                    \
      }                                                                      \
      O::Store(p, z);                                                        \
      if (count < kLanes) {                                                  \
        std::memcpy(values + i, tail, count * sizeof(float));                \
      }                                                                      \
    }                                                                        \
  }

HIPRESS_TANH_LANES(TanhAvx2, "avx2", Avx2Ops)
HIPRESS_TANH_LANES(TanhAvx512, "avx512f", Avx512Ops)
#undef HIPRESS_TANH_LANES
#endif  // HIPRESS_TANH_SIMD_X86

}  // namespace

float Tanhf(float x) {
  const uint32_t jx = ToWord(x);
  const uint32_t ix = jx & 0x7fffffffu;
  const bool negative = (jx >> 31) != 0;

  if (ix >= 0x7f800000u) {  // tanh(+-inf) = +-1, tanh(NaN) = NaN
    return negative ? kOne / x - kOne : kOne / x + kOne;
  }
  float z;
  if (ix < 0x41b00000u) {  // |x| < 22
    if (ix == 0) {
      return x;  // +-0
    }
    if (ix < 0x24000000u) {  // |x| < 2^-55
      return x * (kOne + x);
    }
    if (ix >= 0x3f800000u) {  // |x| >= 1
      const float t = Expm1f(kTwo * std::fabs(x));
      z = kOne - kTwo / (t + kTwo);
    } else {
      const float t = Expm1f(-kTwo * std::fabs(x));
      z = -t / (t + kTwo);
    }
  } else {
    z = kOne - kTiny;  // |x| >= 22: +-1
  }
  return negative ? -z : z;
}

void TanhInPlace(float* values, size_t n, SimdTier tier) {
#ifdef HIPRESS_TANH_SIMD_X86
  switch (tier) {
    case SimdTier::kAvx512:
      TanhAvx512(values, n);
      return;
    case SimdTier::kAvx2:
      TanhAvx2(values, n);
      return;
    case SimdTier::kScalar:
      break;
  }
#endif
  for (size_t i = 0; i < n; ++i) {
    values[i] = Tanhf(values[i]);
  }
}

}  // namespace hipress
