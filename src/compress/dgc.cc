#include "src/compress/dgc.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <vector>

#include "src/common/buffer_pool.h"
#include "src/common/thread_pool.h"
#include "src/compress/simd_kernels.h"
#include "src/compress/sparse_format.h"

namespace hipress {
namespace {

// Below this size exact selection is cheaper than sampling + fixup.
constexpr size_t kExactSelectionLimit = 1 << 16;
// Scan shard grain; smaller gradients are scanned on the calling thread.
constexpr size_t kScanGrain = 256 * 1024;

// The selection threshold as a magnitude key (simd::MagnitudeKey): the
// k-th largest |x|, exactly the float std::nth_element would return, since
// key order is magnitude order for non-NaN floats.
StatusOr<uint32_t> ExactThreshold(std::span<const float> gradient, size_t k,
                                  Workspace& ws) {
  PooledU32 scratch = ws.indices(gradient.size());
  uint32_t max_key;
  const uint32_t threshold = simd::KthLargestMagnitude(
      gradient.data(), gradient.size(), k, scratch.data(), &max_key);
  if (max_key > simd::kInfMagnitudeKey) {
    return InvalidArgumentError("dgc: gradient has a NaN");
  }
  return threshold;
}

// Sampled threshold: deterministic strided sample, then quantile selection.
// A NaN in the sample is caught by the scan, which sees every element.
uint32_t SampledThreshold(std::span<const float> gradient, size_t k,
                          uint64_t seed, Workspace& ws) {
  const size_t n = gradient.size();
  const size_t sample_size = std::max<size_t>(4096, n / 100);
  const size_t stride = std::max<size_t>(1, n / sample_size);
  const size_t start = seed % stride;
  PooledFloats sample = ws.floats(0);
  sample.reserve(n / stride + 1);
  for (size_t i = start; i < n; i += stride) {
    sample.push_back(gradient[i]);
  }
  // Keep the same fraction in the sample as in the full gradient.
  size_t sample_k = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(k) * sample.size() /
                             static_cast<double>(n)));
  sample_k = std::min(sample_k, sample.size());
  PooledU32 scratch = ws.indices(sample.size());
  uint32_t max_key;
  return simd::KthLargestMagnitude(sample.data(), sample.size(), sample_k,
                                   scratch.data(), &max_key);
}

// Ascending indices of every element with |x| >= the threshold, scanned in
// parallel shards and concatenated in index order. Each shard stages hits
// in a small block, so memory follows the number selected, not the
// gradient size. Fails on a NaN anywhere.
Status ScanAtLeast(std::span<const float> gradient, uint32_t threshold_key,
                   Workspace& ws, PooledU32& indices) {
  struct Shard {
    size_t begin = 0;
    uint32_t max_key = 0;
    PooledU32 hits;
  };
  std::vector<Shard> shards;
  std::mutex shards_mutex;
  ThreadPool::Global().ParallelFor(
      gradient.size(), kScanGrain, [&](size_t begin, size_t end) {
        Shard shard{begin, 0, ws.indices(0)};
        constexpr size_t kBlock = 4096;
        uint32_t staged[kBlock];
        for (size_t block = begin; block < end; block += kBlock) {
          uint32_t max_key;
          const size_t count = simd::SelectAtLeast(
              gradient.data() + block, std::min(kBlock, end - block),
              threshold_key, static_cast<uint32_t>(block), staged, &max_key);
          shard.max_key = std::max(shard.max_key, max_key);
          const size_t size = shard.hits.size();
          shard.hits.resize(size + count);
          std::memcpy(shard.hits.data() + size, staged,
                      count * sizeof(uint32_t));
        }
        std::lock_guard<std::mutex> lock(shards_mutex);
        shards.push_back(std::move(shard));
      });
  std::sort(shards.begin(), shards.end(),
            [](const Shard& a, const Shard& b) { return a.begin < b.begin; });
  size_t total = 0;
  for (const Shard& shard : shards) {
    if (shard.max_key > simd::kInfMagnitudeKey) {
      return InvalidArgumentError("dgc: gradient has a NaN");
    }
    total += shard.hits.size();
  }
  indices.reserve(total);
  for (const Shard& shard : shards) {
    for (const uint32_t hit : shard.hits) {
      indices.push_back(hit);
    }
  }
  return OkStatus();
}

}  // namespace

size_t DgcCompressor::TargetK(size_t elements) const {
  if (elements == 0) {
    return 0;
  }
  return std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(static_cast<double>(elements) * ratio_)));
}

StatusOr<size_t> DgcCompressor::EncodeInto(std::span<const float> gradient,
                                           std::span<uint8_t> out) const {
  Workspace ws;
  const size_t n = gradient.size();
  const size_t target_k = TargetK(n);
  if (n == 0) {
    return SparseEncodeInto(0, {}, {}, out);
  }

  uint32_t threshold_key;
  if (n <= kExactSelectionLimit) {
    ASSIGN_OR_RETURN(threshold_key,
                     ExactThreshold(gradient, std::min(target_k, n), ws));
  } else {
    threshold_key = SampledThreshold(gradient, target_k, seed_, ws);
  }
  PooledU32 indices = ws.indices(0);
  RETURN_IF_ERROR(ScanAtLeast(gradient, threshold_key, ws, indices));

  // Sampling can overshoot; trim to exactly target_k by magnitude, then
  // restore index order. (It can also undershoot, in which case we send the
  // smaller set — the original DGC accepts the same slack.)
  if (indices.size() > target_k) {
    std::nth_element(indices.begin(), indices.begin() + (target_k - 1),
                     indices.end(), [&](uint32_t a, uint32_t b) {
                       return std::abs(gradient[a]) > std::abs(gradient[b]);
                     });
    indices.resize(target_k);
    std::sort(indices.begin(), indices.end());
  }
  if (indices.empty()) {
    // Degenerate all-zero gradient: send the single largest element so the
    // payload is never empty (keeps k >= 1 like TargetK promises).
    uint32_t best = 0;
    for (size_t i = 1; i < n; ++i) {
      if (std::abs(gradient[i]) > std::abs(gradient[best])) {
        best = static_cast<uint32_t>(i);
      }
    }
    indices.push_back(best);
  }

  PooledFloats values = ws.floats(indices.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    values[i] = gradient[indices[i]];
  }
  return SparseEncodeInto(static_cast<uint32_t>(n), indices.span(),
                          values.span(), out);
}

Status DgcCompressor::Decode(const ByteBuffer& in, std::span<float> out) const {
  return SparseDecode(in, out);
}

Status DgcCompressor::DecodeAdd(const ByteBuffer& in,
                                std::span<float> accum) const {
  return SparseDecodeAdd(in, accum);
}

StatusOr<size_t> DgcCompressor::EncodedElementCount(
    const ByteBuffer& in) const {
  ASSIGN_OR_RETURN(SparseView view, SparseParse(in));
  return static_cast<size_t>(view.count);
}

size_t DgcCompressor::MaxEncodedSize(size_t elements) const {
  return SparseEncodedSize(TargetK(elements));
}

double DgcCompressor::CompressionRate(size_t elements) const {
  if (elements == 0) {
    return 1.0;
  }
  return static_cast<double>(MaxEncodedSize(elements)) /
         static_cast<double>(elements * sizeof(float));
}

}  // namespace hipress
