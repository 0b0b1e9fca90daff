// DGC — Deep Gradient Compression (Lin et al., 2017) top-k sparsification.
//
// Keeps the `sparsity_ratio` fraction of elements with the largest
// magnitudes (paper default 0.1%; Figure 12b sweeps 0.1/1/5%). For large
// gradients the selection threshold is estimated from a deterministic strided
// sample (the original's sampled top-k trick), then refined so exactly
// target-k elements are sent; small gradients use exact selection. Both
// select by radix over magnitude bit patterns (src/compress/simd_kernels.h),
// and a gradient holding a NaN is rejected with InvalidArgument. Gradient
// clipping / momentum correction from the original recipe are applied by the
// ErrorFeedback wrapper during training.
#ifndef HIPRESS_SRC_COMPRESS_DGC_H_
#define HIPRESS_SRC_COMPRESS_DGC_H_

#include "src/compress/compressor.h"

namespace hipress {

class DgcCompressor : public Compressor {
 public:
  explicit DgcCompressor(const CompressorParams& params)
      : ratio_(params.sparsity_ratio), seed_(params.seed) {}

  std::string_view name() const override { return "dgc"; }
  bool is_sparse() const override { return true; }

  StatusOr<size_t> EncodeInto(std::span<const float> gradient,
                              std::span<uint8_t> out) const override;
  Status Decode(const ByteBuffer& in, std::span<float> out) const override;
  Status DecodeAdd(const ByteBuffer& in, std::span<float> accum) const override;
  StatusOr<size_t> EncodedElementCount(const ByteBuffer& in) const override;
  size_t MaxEncodedSize(size_t elements) const override;
  double CompressionRate(size_t elements) const override;

  // Number of elements DGC keeps for an n-element gradient.
  size_t TargetK(size_t elements) const;

  double ratio() const { return ratio_; }

 private:
  double ratio_;
  uint64_t seed_;
};

}  // namespace hipress

#endif  // HIPRESS_SRC_COMPRESS_DGC_H_
