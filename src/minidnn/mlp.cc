#include "src/minidnn/mlp.h"

#include <algorithm>
#include <cmath>

#include "src/common/buffer_pool.h"
#include "src/common/logging.h"
#include "src/common/simd.h"
#include "src/minidnn/tanh.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(HIPRESS_FORCE_SCALAR)
#define HIPRESS_MLP_SIMD_X86 1
#include <immintrin.h>
#endif

namespace hipress {
namespace {

// The forward products. Every output is bias[r] + w[r][0] * x[0] +
// w[r][1] * x[1] + ..., summed in ascending column order with each
// multiply and add rounded on its own (no FMA: AVX-512F has FMA
// instructions, and this file is built with -ffp-contract=off so the
// compiler never fuses). The kernels only change which independent sums
// run side by side, so every tier produces the bits of a one-row-at-a-time
// dot product (docs/KERNELS.md).
constexpr int kRowBlock = 8;

// out[r] for one sample x, r < rows, with w row-major [rows][cols].
// Advancing kRowBlock rows together (unrolled, so the sums stay in
// registers) means no add waits on the one before it in the same row.
void AffineRows(const float* __restrict w, const float* __restrict bias,
                const float* __restrict x, int rows, int cols,
                float* __restrict out) {
  const size_t stride = static_cast<size_t>(cols);
  int r = 0;
  for (; r + kRowBlock <= rows; r += kRowBlock) {
    const float* block = w + static_cast<size_t>(r) * stride;
    float acc[kRowBlock];
#pragma GCC unroll 8
    for (int b = 0; b < kRowBlock; ++b) {
      acc[b] = bias[r + b];
    }
    for (int i = 0; i < cols; ++i) {
      const float xi = x[i];
#pragma GCC unroll 8
      for (int b = 0; b < kRowBlock; ++b) {
        acc[b] += block[b * stride + i] * xi;
      }
    }
#pragma GCC unroll 8
    for (int b = 0; b < kRowBlock; ++b) {
      out[r + b] = acc[b];
    }
  }
  for (; r < rows; ++r) {
    const float* row = w + static_cast<size_t>(r) * stride;
    float sum = bias[r];
    for (int i = 0; i < cols; ++i) {
      sum += row[i] * x[i];
    }
    out[r] = sum;
  }
}

// The same products for a block of samples, one per vector lane: xt is
// [cols][lanes] (the block's inputs transposed) and out_t [rows][lanes].
using AffineLanesFn = void (*)(const float* w, const float* bias,
                               const float* xt, int rows, int cols,
                               float* out_t);

#ifdef HIPRESS_MLP_SIMD_X86
// One variant per vector width: isa is the target attribute, V the
// register type, and Set1, Load, Store, Add and Mul its intrinsics.
#define HIPRESS_AFFINE_LANES(name, isa, V, lanes, Set1, Load, Store, Add,    \
                             Mul)                                           \
  __attribute__((target(isa))) void name(                                  \
      const float* __restrict w, const float* __restrict bias,              \
      const float* __restrict xt, int rows, int cols,                       \
      float* __restrict out_t) {                                            \
    const size_t stride = static_cast<size_t>(cols);                        \
    int r = 0;                                                              \
    for (; r + kRowBlock <= rows; r += kRowBlock) {                         \
      const float* block = w + static_cast<size_t>(r) * stride;             \
      V acc[kRowBlock];                                                     \
      _Pragma("GCC unroll 8") for (int b = 0; b < kRowBlock; ++b) {         \
        acc[b] = Set1(bias[r + b]);                                         \
      }                                                                     \
      for (int i = 0; i < cols; ++i) {                                      \
        const V xv = Load(xt + static_cast<size_t>(i) * lanes);             \
        _Pragma("GCC unroll 8") for (int b = 0; b < kRowBlock; ++b) {       \
          acc[b] = Add(acc[b], Mul(Set1(block[b * stride + i]), xv));       \
        }                                                                   \
      }                                                                     \
      _Pragma("GCC unroll 8") for (int b = 0; b < kRowBlock; ++b) {         \
        Store(out_t + static_cast<size_t>(r + b) * lanes, acc[b]);          \
      }                                                                     \
    }                                                                       \
    for (; r < rows; ++r) {                                                 \
      const float* row = w + static_cast<size_t>(r) * stride;               \
      V sum = Set1(bias[r]);                                                \
      for (int i = 0; i < cols; ++i) {                                      \
        sum = Add(sum, Mul(Set1(row[i]),                                    \
                           Load(xt + static_cast<size_t>(i) * lanes)));     \
      }                                                                     \
      Store(out_t + static_cast<size_t>(r) * lanes, sum);                   \
    }                                                                       \
  }

HIPRESS_AFFINE_LANES(AffineLanesAvx2, "avx2", __m256, 8, _mm256_set1_ps,
                     _mm256_loadu_ps, _mm256_storeu_ps, _mm256_add_ps,
                     _mm256_mul_ps)
HIPRESS_AFFINE_LANES(AffineLanesAvx512, "avx512f", __m512, 16,
                     _mm512_set1_ps, _mm512_loadu_ps, _mm512_storeu_ps,
                     _mm512_add_ps, _mm512_mul_ps)
#undef HIPRESS_AFFINE_LANES
#endif  // HIPRESS_MLP_SIMD_X86

struct LaneKernel {
  int lanes = 0;  // 0: no vector tier, every sample runs AffineRows
  AffineLanesFn affine = nullptr;
};

LaneKernel LaneKernelFor(SimdTier tier) {
#ifdef HIPRESS_MLP_SIMD_X86
  switch (tier) {
    case SimdTier::kAvx512:
      return {16, AffineLanesAvx512};
    case SimdTier::kAvx2:
      return {8, AffineLanesAvx2};
    case SimdTier::kScalar:
      break;
  }
#endif
  return {};
}

// Hidden activations for one batch; returned alongside logits so backward
// can reuse them. Pool-backed so the per-step forward/backward passes stop
// allocating once the pool is warm.
struct ForwardState {
  PooledFloats hidden;  // batch x hidden (post-tanh)
  PooledFloats logits;  // batch x output
};

ForwardState RunForward(const MlpConfig& config,
                        const std::vector<Tensor>& params,
                        const std::vector<float>& inputs, int batch,
                        Workspace& ws) {
  const int in = config.input_dim;
  const int hid = config.hidden_dim;
  const int out = config.output_dim;
  const float* w1 = params[0].data();
  const float* b1 = params[1].data();
  const float* w2 = params[2].data();
  const float* b2 = params[3].data();
  // Every element of both buffers is written below.
  ForwardState state;
  state.hidden = ws.floats(static_cast<size_t>(batch) * hid);
  state.logits = ws.floats(static_cast<size_t>(batch) * out);

  // Whole blocks of samples go through the vector tier with the block kept
  // transposed ([feature][sample]) between the layers; the rest one by one.
  // tanh runs at the same tier, with the bits of every other tier.
  int s = 0;
  const SimdTier tier = ActiveSimdTier();
  const LaneKernel kernel = LaneKernelFor(tier);
  if (kernel.lanes > 0 && batch >= kernel.lanes) {
    const size_t lanes = static_cast<size_t>(kernel.lanes);
    PooledFloats xt = ws.floats(in * lanes);
    PooledFloats ht = ws.floats(hid * lanes);
    PooledFloats zt = ws.floats(out * lanes);
    for (; s + kernel.lanes <= batch; s += kernel.lanes) {
      const float* x = &inputs[static_cast<size_t>(s) * in];
      float* h = &state.hidden[static_cast<size_t>(s) * hid];
      float* z = &state.logits[static_cast<size_t>(s) * out];
      for (size_t l = 0; l < lanes; ++l) {
        for (int i = 0; i < in; ++i) {
          xt[i * lanes + l] = x[l * in + i];
        }
      }
      kernel.affine(w1, b1, xt.data(), hid, in, ht.data());
      TanhInPlace(ht.data(), hid * lanes, tier);
      for (int j = 0; j < hid; ++j) {
        for (size_t l = 0; l < lanes; ++l) {
          h[l * hid + j] = ht[j * lanes + l];
        }
      }
      kernel.affine(w2, b2, ht.data(), out, hid, zt.data());
      for (size_t l = 0; l < lanes; ++l) {
        for (int k = 0; k < out; ++k) {
          z[l * out + k] = zt[k * lanes + l];
        }
      }
    }
  }
  for (; s < batch; ++s) {
    const float* x = &inputs[static_cast<size_t>(s) * in];
    float* h = &state.hidden[static_cast<size_t>(s) * hid];
    float* z = &state.logits[static_cast<size_t>(s) * out];
    AffineRows(w1, b1, x, hid, in, h);
    TanhInPlace(h, hid, tier);
    AffineRows(w2, b2, h, out, hid, z);
  }
  return state;
}

}  // namespace

Mlp::Mlp(const MlpConfig& config) : config_(config) {
  Rng rng(config.init_seed);
  const int in = config.input_dim;
  const int hid = config.hidden_dim;
  const int out = config.output_dim;
  params_.emplace_back("w1", static_cast<size_t>(hid) * in);
  params_.emplace_back("b1", static_cast<size_t>(hid));
  params_.emplace_back("w2", static_cast<size_t>(out) * hid);
  params_.emplace_back("b2", static_cast<size_t>(out));
  // Xavier-style init.
  const float s1 = std::sqrt(2.0f / static_cast<float>(in + hid));
  const float s2 = std::sqrt(2.0f / static_cast<float>(hid + out));
  params_[0].FillGaussian(rng, s1);
  params_[2].FillGaussian(rng, s2);
}

std::vector<float> Mlp::Forward(const std::vector<float>& inputs,
                                int batch) const {
  Workspace ws;
  const ForwardState state = RunForward(config_, params_, inputs, batch, ws);
  return std::vector<float>(state.logits.begin(), state.logits.end());
}

double Mlp::BackwardCrossEntropy(const std::vector<float>& inputs,
                                 const std::vector<int>& labels, int batch,
                                 std::vector<Tensor>* grads) const {
  CHECK_EQ(grads->size(), params_.size());
  const int in = config_.input_dim;
  const int hid = config_.hidden_dim;
  const int out = config_.output_dim;
  Workspace ws;
  const ForwardState state = RunForward(config_, params_, inputs, batch, ws);
  const Tensor& w2 = params_[2];
  Tensor& gw1 = (*grads)[0];
  Tensor& gb1 = (*grads)[1];
  Tensor& gw2 = (*grads)[2];
  Tensor& gb2 = (*grads)[3];

  double total_loss = 0.0;
  const float inv_batch = 1.0f / static_cast<float>(batch);
  PooledFloats dh = ws.zeroed_floats(hid);
  for (int s = 0; s < batch; ++s) {
    const float* x = &inputs[static_cast<size_t>(s) * in];
    const float* h = &state.hidden[static_cast<size_t>(s) * hid];
    const float* z = &state.logits[static_cast<size_t>(s) * out];
    // Softmax + CE.
    float max_z = z[0];
    for (int k = 1; k < out; ++k) {
      max_z = std::max(max_z, z[k]);
    }
    double denom = 0.0;
    for (int k = 0; k < out; ++k) {
      denom += std::exp(static_cast<double>(z[k] - max_z));
    }
    const int label = labels[s];
    total_loss +=
        -(static_cast<double>(z[label] - max_z) - std::log(denom));

    std::fill(dh.begin(), dh.end(), 0.0f);
    for (int k = 0; k < out; ++k) {
      const float p = static_cast<float>(
          std::exp(static_cast<double>(z[k] - max_z)) / denom);
      const float dz = (p - (k == label ? 1.0f : 0.0f)) * inv_batch;
      gb2[k] += dz;
      float* gw2_row = gw2.data() + static_cast<size_t>(k) * hid;
      const float* w2_row = w2.data() + static_cast<size_t>(k) * hid;
      for (int j = 0; j < hid; ++j) {
        gw2_row[j] += dz * h[j];
        dh[j] += dz * w2_row[j];
      }
    }
    for (int j = 0; j < hid; ++j) {
      const float dt = dh[j] * (1.0f - h[j] * h[j]);  // tanh'
      gb1[j] += dt;
      float* gw1_row = gw1.data() + static_cast<size_t>(j) * in;
      for (int i = 0; i < in; ++i) {
        gw1_row[i] += dt * x[i];
      }
    }
  }
  return total_loss / batch;
}

double Mlp::Accuracy(const std::vector<float>& inputs,
                     const std::vector<int>& labels, int batch) const {
  const std::vector<float> logits = Forward(inputs, batch);
  const int out = config_.output_dim;
  int correct = 0;
  for (int s = 0; s < batch; ++s) {
    const float* z = &logits[static_cast<size_t>(s) * out];
    int best = 0;
    for (int k = 1; k < out; ++k) {
      if (z[k] > z[best]) {
        best = k;
      }
    }
    if (best == labels[s]) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / batch;
}

std::vector<Tensor> Mlp::MakeGradients() const {
  std::vector<Tensor> grads;
  grads.reserve(params_.size());
  for (const Tensor& param : params_) {
    grads.emplace_back(param.name(), param.size());
  }
  return grads;
}

void Mlp::ApplySgd(const std::vector<Tensor>& grads, float lr, float momentum,
                   std::vector<Tensor>* velocity) {
  if (velocity->empty()) {
    *velocity = MakeGradients();
  }
  for (size_t p = 0; p < params_.size(); ++p) {
    Tensor& param = params_[p];
    Tensor& v = (*velocity)[p];
    const Tensor& g = grads[p];
    for (size_t i = 0; i < param.size(); ++i) {
      v[i] = momentum * v[i] + g[i];
      param[i] -= lr * v[i];
    }
  }
}

}  // namespace hipress
