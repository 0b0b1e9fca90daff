#include "src/compress/terngrad.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>

#include "src/common/bitops.h"
#include "src/common/thread_pool.h"
#include "src/compress/simd_kernels.h"

namespace hipress {
namespace {

constexpr size_t kHeaderBytes =
    kCountHeaderBytes + sizeof(uint8_t) + 2 * sizeof(float);
constexpr size_t kParallelGrain = 16 * 1024;

bool ValidBitwidth(unsigned bits) {
  return bits == 1 || bits == 2 || bits == 4 || bits == 8;
}

}  // namespace

StatusOr<size_t> TernGradCompressor::EncodeInto(
    std::span<const float> gradient, std::span<uint8_t> out) const {
  if (!ValidBitwidth(bitwidth_)) {
    return InvalidArgumentError("terngrad: bitwidth must be 1/2/4/8");
  }
  const size_t n = gradient.size();
  const size_t needed = kHeaderBytes + PackedBytes(n, bitwidth_);
  if (out.size() < needed) {
    return ResourceExhaustedError("terngrad: output capacity too small");
  }
  uint8_t* bytes = out.data();

  // Pass 1: min/max reduce (sharded). totalOrder min/max is associative and
  // commutative, so neither the shard layout nor the merge order can change
  // the result, and a NaN or infinity always reaches an end of the range.
  simd::FloatRange range;
  if (n > 0) {
    range = {gradient[0], gradient[0]};
    std::mutex range_mutex;
    ThreadPool::Global().ParallelFor(
        n, 64 * 1024, [&](size_t begin, size_t end) {
          const simd::FloatRange local =
              simd::TotalOrderMinMax(gradient.data() + begin, end - begin);
          std::lock_guard<std::mutex> lock(range_mutex);
          range = simd::MergeRanges(range, local);
        });
  }
  if (!std::isfinite(range.min) || !std::isfinite(range.max)) {
    return InvalidArgumentError("terngrad: gradient has a NaN or infinity");
  }
  const float min_value = range.min;
  const float max_value = range.max;

  const uint32_t count = static_cast<uint32_t>(n);
  const uint8_t bits = static_cast<uint8_t>(bitwidth_);
  size_t write = 0;
  std::memcpy(bytes + write, &count, sizeof(count));
  write += sizeof(count);
  std::memcpy(bytes + write, &bits, sizeof(bits));
  write += sizeof(bits);
  std::memcpy(bytes + write, &min_value, sizeof(min_value));
  write += sizeof(min_value);
  std::memcpy(bytes + write, &max_value, sizeof(max_value));

  const uint32_t levels = (1u << bitwidth_) - 1;
  const float gap = (max_value - min_value) / static_cast<float>(levels);
  uint8_t* packed = bytes + kHeaderBytes;
  const size_t num_bytes = PackedBytes(n, bitwidth_);
  if (!(gap > 0.0f)) {
    std::memset(packed, 0, num_bytes);  // constant gradient: every level 0
    return needed;
  }
  const simd::TernGradScale scale{min_value, 1.0f / gap, bitwidth_, seed_};
  const unsigned per_byte = 8 / bitwidth_;

  // Pass 2: stochastic quantize + pack, sharded on whole output bytes.
  // Element-indexed hashing makes the rounding independent of the shards.
  ThreadPool::Global().ParallelFor(
      num_bytes, kParallelGrain, [&](size_t byte_begin, size_t byte_end) {
        const size_t first = byte_begin * per_byte;
        const size_t last = std::min(n, byte_end * per_byte);
        simd::TernGradQuantizePack(gradient.data() + first, last - first,
                                   first, scale, packed + byte_begin,
                                   byte_end - byte_begin);
      });
  return needed;
}

namespace {

template <bool kAccumulate>
Status TernGradDecodeImpl(const ByteBuffer& in, std::span<float> out) {
  if (in.size() < kHeaderBytes) {
    return InvalidArgumentError("terngrad: buffer shorter than header");
  }
  size_t offset = 0;
  const uint32_t count = in.ReadAt<uint32_t>(offset);
  const uint8_t bits = in.ReadAt<uint8_t>(offset);
  const float min_value = in.ReadAt<float>(offset);
  const float max_value = in.ReadAt<float>(offset);
  if (!(bits == 1 || bits == 2 || bits == 4 || bits == 8)) {
    return InvalidArgumentError("terngrad: corrupt bitwidth");
  }
  if (out.size() != count) {
    return InvalidArgumentError("terngrad: output size mismatch");
  }
  if (in.size() < kHeaderBytes + PackedBytes(count, bits)) {
    return InvalidArgumentError("terngrad: truncated payload");
  }
  const uint32_t levels = (1u << bits) - 1;
  const float gap =
      levels > 0 ? (max_value - min_value) / static_cast<float>(levels) : 0.0f;
  const uint8_t* packed = in.data() + kHeaderBytes;
  const unsigned per_byte = 8 / bits;
  ThreadPool::Global().ParallelFor(
      PackedBytes(count, bits), kParallelGrain,
      [&](size_t byte_begin, size_t byte_end) {
        const size_t first = byte_begin * per_byte;
        const size_t last = std::min<size_t>(count, byte_end * per_byte);
        if constexpr (kAccumulate) {
          simd::TernGradUnpackAdd(packed + byte_begin, last - first, bits,
                                  min_value, gap, out.data() + first);
        } else {
          simd::TernGradUnpack(packed + byte_begin, last - first, bits,
                               min_value, gap, out.data() + first);
        }
      });
  return OkStatus();
}

}  // namespace

Status TernGradCompressor::Decode(const ByteBuffer& in,
                                  std::span<float> out) const {
  return TernGradDecodeImpl<false>(in, out);
}

Status TernGradCompressor::DecodeAdd(const ByteBuffer& in,
                                     std::span<float> accum) const {
  return TernGradDecodeImpl<true>(in, accum);
}

StatusOr<size_t> TernGradCompressor::EncodedElementCount(
    const ByteBuffer& in) const {
  if (in.size() < kCountHeaderBytes) {
    return InvalidArgumentError("terngrad: buffer shorter than header");
  }
  size_t offset = 0;
  return static_cast<size_t>(in.ReadAt<uint32_t>(offset));
}

size_t TernGradCompressor::MaxEncodedSize(size_t elements) const {
  return kHeaderBytes + PackedBytes(elements, bitwidth_);
}

double TernGradCompressor::CompressionRate(size_t elements) const {
  if (elements == 0) {
    return 1.0;
  }
  return static_cast<double>(MaxEncodedSize(elements)) /
         static_cast<double>(elements * sizeof(float));
}

}  // namespace hipress
