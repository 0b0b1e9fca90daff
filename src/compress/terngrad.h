// TernGrad — stochastic low-bitwidth quantization (Wen et al., 2017),
// generalized to a configurable bitwidth exactly as in the paper's Figure 5
// CompLL DSL program:
//
//   gap  = (max - min) / (2^bitwidth - 1)
//   Q[i] = floor((g[i] - min) / gap + uniform[0,1))
//
// The stochastic rounding makes the quantizer unbiased (E[decode(Q)] = g),
// which is what preserves convergence. bitwidth=2 is the paper's default;
// Figure 12b sweeps 2/4/8 bits.
//
// A gradient holding a NaN or an infinity has no finite range to quantize
// and is rejected with InvalidArgument. The kernels live in
// src/compress/simd_kernels.h (docs/KERNELS.md).
//
// Encoded layout:
//   uint32 count | uint8 bitwidth | float min | float max | packed codes
#ifndef HIPRESS_SRC_COMPRESS_TERNGRAD_H_
#define HIPRESS_SRC_COMPRESS_TERNGRAD_H_

#include "src/compress/compressor.h"

namespace hipress {

class TernGradCompressor : public Compressor {
 public:
  explicit TernGradCompressor(const CompressorParams& params)
      : bitwidth_(params.bitwidth), seed_(params.seed) {}

  std::string_view name() const override { return "terngrad"; }
  bool is_sparse() const override { return false; }

  StatusOr<size_t> EncodeInto(std::span<const float> gradient,
                              std::span<uint8_t> out) const override;
  Status Decode(const ByteBuffer& in, std::span<float> out) const override;
  Status DecodeAdd(const ByteBuffer& in, std::span<float> accum) const override;
  StatusOr<size_t> EncodedElementCount(const ByteBuffer& in) const override;
  size_t MaxEncodedSize(size_t elements) const override;
  double CompressionRate(size_t elements) const override;

  unsigned bitwidth() const { return bitwidth_; }

 private:
  unsigned bitwidth_;
  uint64_t seed_;
};

}  // namespace hipress

#endif  // HIPRESS_SRC_COMPRESS_TERNGRAD_H_
