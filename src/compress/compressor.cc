#include "src/compress/compressor.h"

#include "src/common/buffer_pool.h"
#include "src/common/rng.h"

namespace hipress {

Status Compressor::Encode(std::span<const float> gradient,
                          ByteBuffer* out) const {
  out->Resize(MaxEncodedSize(gradient.size()));
  StatusOr<size_t> written = EncodeInto(gradient, out->span());
  if (!written.ok() &&
      written.status().code() == StatusCode::kResourceExhausted) {
    // Threshold sparsifiers can exceed their expected bound on adversarial
    // inputs; retry once at the codec's hard worst case.
    const size_t worst = WorstCaseEncodedSize(gradient.size());
    if (worst > out->size()) {
      out->Resize(worst);
      written = EncodeInto(gradient, out->span());
    }
  }
  RETURN_IF_ERROR(written.status());
  out->Resize(*written);
  return OkStatus();
}

Status Compressor::DecodeAdd(const ByteBuffer& in,
                             std::span<float> accum) const {
  // Generic fallback: decode into pooled scratch, then add. Codecs override
  // this with a single-pass fused version where profitable.
  Workspace ws;
  PooledFloats scratch = ws.zeroed_floats(accum.size());
  RETURN_IF_ERROR(Decode(in, scratch.span()));
  for (size_t i = 0; i < accum.size(); ++i) {
    accum[i] += scratch[i];
  }
  return OkStatus();
}

float HashUniform(uint64_t seed, uint64_t index) {
  const uint64_t z = SplitMix64Mix(seed + index * 0x9e3779b97f4a7c15ULL);
  return static_cast<float>(z >> 40) * 0x1.0p-24f;
}

}  // namespace hipress
