// Section 4.4 microbenchmarks: encode/decode speed of the optimized
// (CompLL-grade) codecs vs their naive OSS counterparts, on real data.
// google-benchmark binary; also exercises gradient sizes 1-64 MB.
//
// The paper's contrasts to look for in the output:
//   * optimized TBQ encode ~an order of magnitude above OSS-TBQ,
//   * optimized DGC several times above OSS-DGC's full-sort encode,
//   * decode generally faster than encode.
//
// Before the google-benchmark run, every codec goes through a bit-exact
// round-trip check (encode/decode reproducible across independent codec
// instances) and a quick throughput measurement recorded into
// BENCH_kernels.json via the metrics registry.
// `--smoke` (or HIPRESS_BENCH_SMOKE=1) keeps only that phase on a reduced
// size set — the CI bench-smoke job — and the process exits non-zero if
// any round-trip check fails.
#include <benchmark/benchmark.h>
#include <dlfcn.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/bitops.h"
#include "src/common/buffer_pool.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/compll/builtin_algorithms.h"
#include "src/compll/codegen.h"
#include "src/compress/registry.h"
#include "src/compress/simd_kernels.h"
#include "src/minidnn/mlp.h"
#include "src/minidnn/tanh.h"
#include "src/tensor/tensor.h"

// Hand-written intrinsics references for the generated-vs-hand-tuned panel
// (same gate as src/compress/simd_kernels.cc).
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(HIPRESS_FORCE_SCALAR)
#define BENCH_SIMD_X86 1
#include <immintrin.h>
#else
#define BENCH_SIMD_X86 0
#endif

namespace hipress {
namespace {

Tensor MakeGradient(size_t bytes) {
  Rng rng(bytes);
  Tensor tensor("g", bytes / sizeof(float));
  tensor.FillGaussian(rng);
  return tensor;
}

void BM_Encode(benchmark::State& state, const std::string& algorithm) {
  CompressorParams params;
  params.sparsity_ratio = 0.001;
  auto codec = CreateCompressor(algorithm, params);
  if (!codec.ok()) {
    state.SkipWithError("codec creation failed");
    return;
  }
  const size_t bytes = static_cast<size_t>(state.range(0));
  const Tensor gradient = MakeGradient(bytes);
  ByteBuffer encoded;
  for (auto _ : state) {
    const Status status = (*codec)->Encode(gradient.span(), &encoded);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(encoded.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * bytes);
}

void BM_Decode(benchmark::State& state, const std::string& algorithm) {
  CompressorParams params;
  params.sparsity_ratio = 0.001;
  auto codec = CreateCompressor(algorithm, params);
  if (!codec.ok()) {
    state.SkipWithError("codec creation failed");
    return;
  }
  const size_t bytes = static_cast<size_t>(state.range(0));
  const Tensor gradient = MakeGradient(bytes);
  ByteBuffer encoded;
  if (!(*codec)->Encode(gradient.span(), &encoded).ok()) {
    state.SkipWithError("encode failed");
    return;
  }
  std::vector<float> decoded(gradient.size());
  for (auto _ : state) {
    const Status status = (*codec)->Decode(encoded, decoded);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * bytes);
}

constexpr int64_t kSmall = 1 << 20;   // 1 MB
constexpr int64_t kLarge = 64 << 20;  // 64 MB

#define HIPRESS_CODEC_BENCH(name)                                      \
  BENCHMARK_CAPTURE(BM_Encode, name, #name)                            \
      ->Arg(kSmall)                                                    \
      ->Arg(kLarge)                                                    \
      ->MinTime(0.05)                                                  \
      ->Unit(benchmark::kMillisecond);                                 \
  BENCHMARK_CAPTURE(BM_Decode, name, #name)                            \
      ->Arg(kSmall)                                                    \
      ->Arg(kLarge)                                                    \
      ->MinTime(0.05)                                                  \
      ->Unit(benchmark::kMillisecond)

HIPRESS_CODEC_BENCH(onebit);
HIPRESS_CODEC_BENCH(fp16);
HIPRESS_CODEC_BENCH(tbq);
HIPRESS_CODEC_BENCH(terngrad);
HIPRESS_CODEC_BENCH(dgc);
HIPRESS_CODEC_BENCH(graddrop);

// OSS counterparts (encode only at 1 MB plus one large point for the
// headline contrasts; the naive DGC sort at 64 MB is intentionally slow).
BENCHMARK_CAPTURE(BM_Encode, oss_onebit, "oss-onebit")
    ->Arg(kSmall)
    ->Arg(kLarge)
    ->MinTime(0.05)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Encode, oss_tbq, "oss-tbq")
    ->Arg(kSmall)
    ->Arg(kLarge)
    ->MinTime(0.05)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Encode, oss_terngrad, "oss-terngrad")
    ->Arg(kSmall)
    ->Arg(kLarge)
    ->MinTime(0.05)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Encode, oss_dgc, "oss-dgc")
    ->Arg(kSmall)
    ->Arg(8 << 20)
    ->MinTime(0.05)
    ->Unit(benchmark::kMillisecond);

// The MLP forward (docs/KERNELS.md): its tanh over one hidden layer of
// real-dp's width at each tier against the host libm's tanhf, and whole
// forward passes at real-dp's shape (64 inputs, 2,048 hidden, 16 classes),
// one sample (the training steps) and 256 (the evaluations).
constexpr int kHiddenWidth = 2048;

std::vector<float> PreActivations(size_t n) {
  Rng rng(n);
  std::vector<float> values(n);
  for (float& v : values) {
    v = static_cast<float>(rng.NextGaussian());
  }
  return values;
}

void BM_Tanh(benchmark::State& state, SimdTier tier) {
  if (tier > SimdHostTier()) {
    state.SkipWithError("tier not supported by this host");
    return;
  }
  const std::vector<float> input = PreActivations(kHiddenWidth);
  std::vector<float> values(input.size());
  for (auto _ : state) {
    std::copy(input.begin(), input.end(), values.begin());
    TanhInPlace(values.data(), values.size(), tier);
    benchmark::DoNotOptimize(values.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kHiddenWidth);
}

void BM_TanhLibm(benchmark::State& state) {
  const std::vector<float> input = PreActivations(kHiddenWidth);
  std::vector<float> values(input.size());
  for (auto _ : state) {
    for (size_t i = 0; i < input.size(); ++i) {
      values[i] = std::tanh(input[i]);
    }
    benchmark::DoNotOptimize(values.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kHiddenWidth);
}

BENCHMARK_CAPTURE(BM_Tanh, scalar, SimdTier::kScalar);
BENCHMARK_CAPTURE(BM_Tanh, avx2, SimdTier::kAvx2);
BENCHMARK_CAPTURE(BM_Tanh, avx512, SimdTier::kAvx512);
BENCHMARK(BM_TanhLibm);

// Items are samples.
void BM_MlpForward(benchmark::State& state) {
  MlpConfig config;
  config.input_dim = 64;
  config.hidden_dim = kHiddenWidth;
  config.output_dim = 16;
  const Mlp mlp(config);
  const int batch = static_cast<int>(state.range(0));
  const std::vector<float> inputs =
      PreActivations(static_cast<size_t>(batch) * config.input_dim);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.Forward(inputs, batch).data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * batch);
}

BENCHMARK(BM_MlpForward)->Arg(1)->Arg(256)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Round-trip verification + BENCH_kernels.json
// ---------------------------------------------------------------------------

const char* const kAllCodecs[] = {
    "onebit",     "tbq",     "fp16",         "terngrad", "dgc",
    "graddrop",   "oss-onebit", "oss-tbq",   "oss-terngrad", "oss-dgc",
};

bool BuffersEqual(const ByteBuffer& a, const ByteBuffer& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

bool FloatsBitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// Bit-exact round-trip: two independently constructed codec instances must
// produce identical encoded bytes and identical decoded bits for the same
// gradient. Any drift here means nondeterminism or a decode regression.
// (Encode-of-decode idempotence deliberately isn't checked: quantizers
// derive thresholds from the data, so re-quantizing a reconstruction is
// legitimately different.)
bool CheckRoundTrip(const std::string& algorithm, size_t bytes,
                    MetricsRegistry* registry) {
  CompressorParams params;
  params.sparsity_ratio = 0.001;
  auto codec_a = CreateCompressor(algorithm, params);
  auto codec_b = CreateCompressor(algorithm, params);
  registry->counter("roundtrip.checks").Increment();
  auto fail = [&](const char* what) {
    registry->counter("roundtrip.failures").Increment();
    std::fprintf(stderr, "ROUNDTRIP FAIL %s @%zuB: %s\n", algorithm.c_str(),
                 bytes, what);
    return false;
  };
  if (!codec_a.ok() || !codec_b.ok()) {
    return fail("codec creation failed");
  }
  const Tensor gradient = MakeGradient(bytes);
  ByteBuffer encoded_a;
  ByteBuffer encoded_b;
  if (!(*codec_a)->Encode(gradient.span(), &encoded_a).ok() ||
      !(*codec_b)->Encode(gradient.span(), &encoded_b).ok()) {
    return fail("encode failed");
  }
  if (!BuffersEqual(encoded_a, encoded_b)) {
    return fail("encode not deterministic across instances");
  }
  std::vector<float> decoded_a(gradient.size());
  std::vector<float> decoded_b(gradient.size());
  if (!(*codec_a)->Decode(encoded_a, decoded_a).ok() ||
      !(*codec_b)->Decode(encoded_b, decoded_b).ok()) {
    return fail("decode failed");
  }
  if (!FloatsBitEqual(decoded_a, decoded_b)) {
    return fail("decode not bit-exact across instances");
  }
  return true;
}

// Quick single-threaded throughput measurement for the JSON trajectory
// (the google-benchmark phase remains the precise instrument).
void MeasureThroughput(const std::string& algorithm, size_t bytes,
                       const std::string& size_label,
                       MetricsRegistry* registry) {
  CompressorParams params;
  params.sparsity_ratio = 0.001;
  auto codec = CreateCompressor(algorithm, params);
  if (!codec.ok()) {
    return;
  }
  const Tensor gradient = MakeGradient(bytes);
  ByteBuffer encoded;
  std::vector<float> decoded(gradient.size());
  using Clock = std::chrono::steady_clock;
  const auto mbps = [&](Clock::time_point since, int iterations) {
    const double seconds =
        std::chrono::duration<double>(Clock::now() - since).count();
    return seconds <= 0.0 ? 0.0
                          : static_cast<double>(bytes) * iterations /
                                (1024.0 * 1024.0) / seconds;
  };
  constexpr int kIterations = 3;
  const auto encode_start = Clock::now();
  for (int i = 0; i < kIterations; ++i) {
    if (!(*codec)->Encode(gradient.span(), &encoded).ok()) {
      return;
    }
  }
  const double encode_mbps = mbps(encode_start, kIterations);
  const auto decode_start = Clock::now();
  for (int i = 0; i < kIterations; ++i) {
    if (!(*codec)->Decode(encoded, decoded).ok()) {
      return;
    }
  }
  const std::string prefix = algorithm + "." + size_label;
  registry->gauge(prefix + ".encode_MBps").Set(encode_mbps);
  registry->gauge(prefix + ".decode_MBps").Set(mbps(decode_start, kIterations));
  registry->gauge(prefix + ".encoded_bytes")
      .Set(static_cast<double>(encoded.size()));
}

bool RunSimdPhase(MetricsRegistry* registry);  // defined below

// Runs the round-trip + throughput phase and writes BENCH_kernels.json
// (into $HIPRESS_BENCH_DIR when set). Returns false when a round-trip
// check failed.
bool RunVerificationPhase(bool smoke) {
  MetricsRegistry registry;
  registry.gauge("smoke").Set(smoke ? 1.0 : 0.0);
  struct SizePoint {
    size_t bytes;
    const char* label;
  };
  const std::vector<SizePoint> sizes =
      smoke ? std::vector<SizePoint>{{64 * 1024, "64KB"}, {1 << 20, "1MB"}}
            : std::vector<SizePoint>{{1 << 20, "1MB"}, {16 << 20, "16MB"}};
  bool all_ok = true;
  for (const char* algorithm : kAllCodecs) {
    for (const SizePoint& size : sizes) {
      // The naive OSS-DGC encode full-sorts; keep its large point small
      // enough that the check phase stays fast.
      if (std::string(algorithm) == "oss-dgc" && size.bytes > (8u << 20)) {
        continue;
      }
      all_ok &= CheckRoundTrip(algorithm, size.bytes, &registry);
      MeasureThroughput(algorithm, size.bytes, size.label, &registry);
    }
  }
  all_ok &= RunSimdPhase(&registry);
  const char* dir = std::getenv("HIPRESS_BENCH_DIR");
  const std::string path = (dir != nullptr ? std::string(dir) + "/" : "") +
                           "BENCH_kernels.json";
  const Status status = registry.WriteJson(path);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return false;
  }
  std::printf("roundtrip: %llu checks, %llu failures; wrote %s\n",
              static_cast<unsigned long long>(
                  registry.counter_value("roundtrip.checks")),
              static_cast<unsigned long long>(
                  registry.counter_value("roundtrip.failures")),
              path.c_str());
  return all_ok;
}

// Allocation-churn panel: per codec, one cold encode+decode (warm-up)
// followed by steady-state iterations, with the global BufferPool's
// hit/miss deltas recorded into BENCH_memory.json. The pooled-workspace
// invariant says the steady window performs zero pool misses — any codec
// still faulting fresh blocks after warm-up fails the phase (the CI
// bench-smoke gate).
bool RunMemoryPhase(bool smoke) {
  MetricsRegistry registry;
  registry.gauge("smoke").Set(smoke ? 1.0 : 0.0);
  const size_t bytes = smoke ? 256 * 1024 : (4u << 20);
  constexpr int kSteadyIterations = 5;
  registry.gauge("gradient_bytes").Set(static_cast<double>(bytes));
  registry.gauge("steady_iterations").Set(kSteadyIterations);
  BufferPool& pool = BufferPool::Global();
  bool all_ok = true;
  for (const char* algorithm : kAllCodecs) {
    CompressorParams params;
    params.sparsity_ratio = 0.001;
    auto codec = CreateCompressor(algorithm, params);
    if (!codec.ok()) {
      all_ok = false;
      continue;
    }
    const Tensor gradient = MakeGradient(bytes);
    ByteBuffer encoded;
    std::vector<float> decoded(gradient.size());
    const auto run_once = [&] {
      return (*codec)->Encode(gradient.span(), &encoded).ok() &&
             (*codec)->Decode(encoded, decoded).ok();
    };
    const BufferPool::Stats cold = pool.stats();
    if (!run_once()) {
      all_ok = false;
      continue;
    }
    const BufferPool::Stats warm = pool.stats();
    bool steady_ok = true;
    for (int i = 0; i < kSteadyIterations; ++i) {
      steady_ok &= run_once();
    }
    const BufferPool::Stats steady = pool.stats();
    if (!steady_ok) {
      all_ok = false;
      continue;
    }
    const uint64_t warm_misses = warm.misses - cold.misses;
    const uint64_t steady_misses = steady.misses - warm.misses;
    const uint64_t steady_hits = steady.hits - warm.hits;
    const std::string prefix(algorithm);
    registry.gauge(prefix + ".warmup_pool_misses")
        .Set(static_cast<double>(warm_misses));
    registry.gauge(prefix + ".steady_pool_misses")
        .Set(static_cast<double>(steady_misses));
    registry.gauge(prefix + ".steady_pool_hits")
        .Set(static_cast<double>(steady_hits));
    if (steady_misses > 0) {
      std::fprintf(stderr,
                   "MEMORY GATE FAIL %s: %llu pool misses across %d "
                   "steady-state iterations (expected 0)\n",
                   algorithm, static_cast<unsigned long long>(steady_misses),
                   kSteadyIterations);
      all_ok = false;
    }
  }
  registry.gauge("pool.peak_bytes")
      .Set(static_cast<double>(pool.stats().peak_bytes));
  const char* dir = std::getenv("HIPRESS_BENCH_DIR");
  const std::string path = (dir != nullptr ? std::string(dir) + "/" : "") +
                           "BENCH_memory.json";
  const Status status = registry.WriteJson(path);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return false;
  }
  std::printf("memory: steady-state pool misses %s; wrote %s\n",
              all_ok ? "zero for every codec" : "NONZERO (gate failed)",
              path.c_str());
  return all_ok;
}

// ---------------------------------------------------------------------------
// Scalar-vs-SIMD speedup panel (docs/KERNELS.md)
// ---------------------------------------------------------------------------
//
// Measures the hand-vectorized kernels (src/compress/simd_kernels.h) at the
// scalar tier and at the host's native tier, single-threaded and direct —
// no thread pool, so the ratio isolates vectorization from scheduling.
// Gates (process exits non-zero on failure):
//   * encoded bytes are bit-identical across tiers (FNV fingerprints), and
//   * on an AVX2-or-better host, encode speedup >= 3x for every codec:
//     onebit, tbq, fp16, terngrad (4-bit) and dgc (1%).
// The panel also dlopens a CompLL-generated onebit unit and compares its
// vector reduce/map kernels against hand-written intrinsics references —
// the generated loops must stay within 10% of hand-tuned.

uint64_t Fnv64(const uint8_t* data, size_t n) {
  uint64_t hash = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) {
    hash = (hash ^ data[i]) * 1099511628211ull;
  }
  return hash;
}

double Low32(uint64_t fingerprint) {
  return static_cast<double>(fingerprint & 0xffffffffull);
}

// Best-of-N wall time of fn() in seconds.
template <typename Fn>
double BestSeconds(Fn&& fn, int repeats) {
  using Clock = std::chrono::steady_clock;
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto start = Clock::now();
    fn();
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (seconds < best) {
      best = seconds;
    }
  }
  return best;
}

// The panel runs TernGrad and DGC as the real-dp workload does.
constexpr unsigned kPanelTernGradBits = 4;
constexpr double kPanelDgcRatio = 0.01;

struct KernelMeasure {
  double encode_mbps = 0.0;
  double decode_mbps = 0.0;
  uint64_t encode_fingerprint = 0;
};

// Keeps the faster throughputs of two measurements of the same kernels.
void KeepBest(KernelMeasure* best, const KernelMeasure& m) {
  best->encode_mbps = std::max(best->encode_mbps, m.encode_mbps);
  best->decode_mbps = std::max(best->decode_mbps, m.decode_mbps);
  best->encode_fingerprint = m.encode_fingerprint;
}

// One codec's raw kernel loops at the currently active tier. n is the
// element count; throughput is reported over the uncompressed bytes.
KernelMeasure MeasureKernels(const std::string& codec, const float* x,
                             size_t n, int repeats) {
  KernelMeasure m;
  const double bytes = static_cast<double>(n) * sizeof(float);
  const auto mbps = [bytes](double seconds) {
    return seconds <= 0.0 ? 0.0 : bytes / (1024.0 * 1024.0) / seconds;
  };
  if (codec == "onebit") {
    std::vector<uint8_t> packed(PackedBytes(n, 1));
    std::vector<float> decoded(n);
    m.encode_mbps = mbps(BestSeconds(
        [&] {
          // Both encode passes, like OnebitCompressor::EncodeInto.
          const simd::SignStats stats = simd::OnebitSignStats(x, n);
          benchmark::DoNotOptimize(stats.pos_sum);
          simd::OnebitPackSigns(x, n, packed.data(), packed.size());
          benchmark::DoNotOptimize(packed.data());
        },
        repeats));
    m.encode_fingerprint = Fnv64(packed.data(), packed.size());
    m.decode_mbps = mbps(BestSeconds(
        [&] {
          simd::OnebitUnpackSigns(packed.data(), n, -0.5f, 0.5f,
                                  decoded.data());
          benchmark::DoNotOptimize(decoded.data());
        },
        repeats));
  } else if (codec == "tbq") {
    std::vector<uint8_t> packed(PackedBytes(n, 2));
    std::vector<float> decoded(n);
    m.encode_mbps = mbps(BestSeconds(
        [&] {
          simd::TbqPackCodes(x, n, 0.5f, packed.data(), packed.size());
          benchmark::DoNotOptimize(packed.data());
        },
        repeats));
    m.encode_fingerprint = Fnv64(packed.data(), packed.size());
    m.decode_mbps = mbps(BestSeconds(
        [&] {
          simd::TbqUnpackCodes(packed.data(), n, 0.5f, decoded.data());
          benchmark::DoNotOptimize(decoded.data());
        },
        repeats));
  } else if (codec == "terngrad") {
    // Both encode passes, like TernGradCompressor::EncodeInto at 4 bits.
    std::vector<uint8_t> packed(PackedBytes(n, kPanelTernGradBits));
    std::vector<float> decoded(n);
    simd::FloatRange range;
    m.encode_mbps = mbps(BestSeconds(
        [&] {
          range = simd::TotalOrderMinMax(x, n);
          const float gap = (range.max - range.min) /
                            static_cast<float>((1u << kPanelTernGradBits) - 1);
          const simd::TernGradScale scale{range.min, 1.0f / gap,
                                          kPanelTernGradBits, 0};
          simd::TernGradQuantizePack(x, n, 0, scale, packed.data(),
                                     packed.size());
          benchmark::DoNotOptimize(packed.data());
        },
        repeats));
    m.encode_fingerprint = Fnv64(packed.data(), packed.size());
    const float gap = (range.max - range.min) /
                      static_cast<float>((1u << kPanelTernGradBits) - 1);
    m.decode_mbps = mbps(BestSeconds(
        [&] {
          simd::TernGradUnpack(packed.data(), n, kPanelTernGradBits,
                               range.min, gap, decoded.data());
          benchmark::DoNotOptimize(decoded.data());
        },
        repeats));
  } else if (codec == "dgc") {
    // DGC's exact path (bracketed radix select, then the threshold scan)
    // on a 64 Ki-element chunk, the largest size it selects exactly, run
    // n / 64 Ki times. Ring all-reduce encodes each chunk while it is still
    // in cache, so the same chunk is reused. Decode is a scatter with no
    // vector kernel, so only encode is measured.
    const size_t len = std::min<size_t>(n, 1 << 16);
    const size_t runs = n / len;
    const size_t k = static_cast<size_t>(
        std::ceil(static_cast<double>(len) * kPanelDgcRatio));
    std::vector<uint32_t> scratch(len);
    std::vector<uint32_t> selected(len);
    size_t num_selected = 0;
    const double seconds = BestSeconds(
        [&] {
          for (size_t r = 0; r < runs; ++r) {
            uint32_t max_key = 0;
            const uint32_t threshold = simd::KthLargestMagnitude(
                x, len, k, scratch.data(), &max_key);
            num_selected = simd::SelectAtLeast(x, len, threshold, 0,
                                               selected.data(), &max_key);
            benchmark::DoNotOptimize(selected.data());
          }
        },
        repeats);
    m.encode_mbps =
        mbps(seconds) * static_cast<double>(runs * len) / static_cast<double>(n);
    m.encode_fingerprint =
        Fnv64(reinterpret_cast<const uint8_t*>(selected.data()),
              num_selected * sizeof(uint32_t));
  } else if (codec == "fp16") {
    std::vector<uint16_t> halves(n);
    std::vector<float> decoded(n);
    m.encode_mbps = mbps(BestSeconds(
        [&] {
          simd::Fp16Encode(x, n, halves.data(), halves.size());
          benchmark::DoNotOptimize(halves.data());
        },
        repeats));
    m.encode_fingerprint =
        Fnv64(reinterpret_cast<const uint8_t*>(halves.data()),
              halves.size() * sizeof(uint16_t));
    m.decode_mbps = mbps(BestSeconds(
        [&] {
          simd::Fp16Decode(halves.data(), n, decoded.data());
          benchmark::DoNotOptimize(decoded.data());
        },
        repeats));
  }
  return m;
}

// Full-codec encode fingerprint at the currently active tier (exercises the
// ParallelFor sharding on top of the kernels).
uint64_t CodecEncodeFingerprint(const std::string& codec,
                                const Tensor& gradient) {
  CompressorParams params;
  params.bitwidth = kPanelTernGradBits;
  params.sparsity_ratio = kPanelDgcRatio;
  auto compressor = CreateCompressor(codec, params);
  if (!compressor.ok()) {
    return 0;
  }
  ByteBuffer encoded;
  if (!(*compressor)->Encode(gradient.span(), &encoded).ok()) {
    return 0;
  }
  return Fnv64(encoded.data(), encoded.size());
}

#if BENCH_SIMD_X86
// Hand-written references implementing the canonical schedules with raw
// intrinsics — the bar the generated kernels are measured against.
__attribute__((target("avx2,fma"))) double HandBlockSum8Avx2(const double* x,
                                                             size_t n) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  const size_t n8 = n & ~static_cast<size_t>(7);
  for (size_t i = 0; i < n8; i += 8) {
    acc_lo = _mm256_add_pd(acc_lo, _mm256_loadu_pd(x + i));
    acc_hi = _mm256_add_pd(acc_hi, _mm256_loadu_pd(x + i + 4));
  }
  double lanes[8];
  _mm256_storeu_pd(lanes, acc_lo);
  _mm256_storeu_pd(lanes + 4, acc_hi);
  for (size_t j = 0; j < n - n8; ++j) {
    lanes[j] += x[n8 + j];
  }
  double r = 0.0;
  for (size_t j = 0; j < 8; ++j) {
    r += lanes[j];
  }
  return r;
}

__attribute__((target("avx512f,avx512bw,avx512vl"))) double
HandBlockSum8Avx512(const double* x, size_t n) {
  __m512d acc = _mm512_setzero_pd();
  const size_t n8 = n & ~static_cast<size_t>(7);
  for (size_t i = 0; i < n8; i += 8) {
    acc = _mm512_add_pd(acc, _mm512_loadu_pd(x + i));
  }
  double lanes[8];
  _mm512_storeu_pd(lanes, acc);
  for (size_t j = 0; j < n - n8; ++j) {
    lanes[j] += x[n8 + j];
  }
  double r = 0.0;
  for (size_t j = 0; j < 8; ++j) {
    r += lanes[j];
  }
  return r;
}

__attribute__((target("avx2"))) void HandMapSignBitAvx2(const double* in,
                                                        double* out,
                                                        size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const size_t n4 = n & ~static_cast<size_t>(3);
  for (size_t i = 0; i < n4; i += 4) {
    const __m256d ge = _mm256_cmp_pd(_mm256_loadu_pd(in + i), zero,
                                     _CMP_GE_OQ);
    _mm256_storeu_pd(out + i, _mm256_and_pd(ge, one));
  }
  for (size_t i = n4; i < n; ++i) {
    out[i] = in[i] >= 0.0 ? 1.0 : 0.0;
  }
}

__attribute__((target("avx512f,avx512bw,avx512vl"))) void
HandMapSignBitAvx512(const double* in, double* out, size_t n) {
  const __m512d zero = _mm512_setzero_pd();
  const __m512d one = _mm512_set1_pd(1.0);
  const size_t n8 = n & ~static_cast<size_t>(7);
  for (size_t i = 0; i < n8; i += 8) {
    const __mmask8 ge =
        _mm512_cmp_pd_mask(_mm512_loadu_pd(in + i), zero, _CMP_GE_OQ);
    _mm512_storeu_pd(out + i,
                     _mm512_maskz_mov_pd(ge, one));
  }
  for (size_t i = n8; i < n; ++i) {
    out[i] = in[i] >= 0.0 ? 1.0 : 0.0;
  }
}
#endif  // BENCH_SIMD_X86

double HandBlockSum8Scalar(const double* x, size_t n) {
  double lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const size_t n8 = n & ~static_cast<size_t>(7);
  for (size_t i = 0; i < n8; i += 8) {
    for (size_t j = 0; j < 8; ++j) {
      lanes[j] += x[i + j];
    }
  }
  for (size_t j = 0; j < n - n8; ++j) {
    lanes[j] += x[n8 + j];
  }
  double r = 0.0;
  for (size_t j = 0; j < 8; ++j) {
    r += lanes[j];
  }
  return r;
}

double HandReduceSum(const double* x, size_t n) {
  constexpr size_t kBlock = 4096;
  double total = 0.0;
  for (size_t base = 0; base < n; base += kBlock) {
    const size_t len = n - base < kBlock ? n - base : kBlock;
#if BENCH_SIMD_X86
    const SimdTier tier = ActiveSimdTier();
    if (tier >= SimdTier::kAvx512) {
      total += HandBlockSum8Avx512(x + base, len);
      continue;
    }
    if (tier >= SimdTier::kAvx2) {
      total += HandBlockSum8Avx2(x + base, len);
      continue;
    }
#endif
    total += HandBlockSum8Scalar(x + base, len);
  }
  return total;
}

void HandMapSignBit(const double* in, double* out, size_t n) {
#if BENCH_SIMD_X86
  const SimdTier tier = ActiveSimdTier();
  if (tier >= SimdTier::kAvx512) {
    HandMapSignBitAvx512(in, out, n);
    return;
  }
  if (tier >= SimdTier::kAvx2) {
    HandMapSignBitAvx2(in, out, n);
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) {
    out[i] = in[i] >= 0.0 ? 1.0 : 0.0;
  }
}

using GenReduceFn = double (*)(const double*, size_t);
using GenMapFn = void (*)(const double*, double*, size_t);

// Generated-vs-hand-tuned comparison: compile the CompLL onebit unit,
// dlopen its raw kernel hooks, and race the generated vector loops against
// the intrinsics references above on identical inputs.
bool RunGeneratedPanel(MetricsRegistry* registry) {
  const compll::DslAlgorithm* entry = compll::FindDslAlgorithm("onebit");
  if (entry == nullptr) {
    registry->gauge("simd.generated.available").Set(0.0);
    return true;
  }
  compll::CodegenOptions options;
  options.algorithm_name = "onebit";
  auto generated = compll::GenerateCppFromSource(entry->source, options);
  if (!generated.ok()) {
    std::fprintf(stderr, "SIMD PANEL: codegen failed: %s\n",
                 generated.status().ToString().c_str());
    return false;
  }
  const std::string base = "/tmp/bench_compll_onebit";
  {
    std::ofstream out(base + ".cc");
    out << *generated;
  }
  const std::string command = "c++ -std=c++20 -O3 -shared -fPIC -o " + base +
                              ".so " + base + ".cc 2>/dev/null";
  if (std::system(command.c_str()) != 0) {
    registry->gauge("simd.generated.available").Set(0.0);
    std::fprintf(stderr,
                 "SIMD PANEL: host compiler unavailable; generated-vs-hand "
                 "comparison skipped\n");
    return true;
  }
  void* handle = dlopen((base + ".so").c_str(), RTLD_NOW);
  auto* gen_reduce = handle == nullptr
                         ? nullptr
                         : reinterpret_cast<GenReduceFn>(
                               dlsym(handle, "onebit_reduce_sum_c"));
  auto* gen_map = handle == nullptr
                      ? nullptr
                      : reinterpret_cast<GenMapFn>(
                            dlsym(handle, "onebit_map_signBit_c"));
  if (gen_reduce == nullptr || gen_map == nullptr) {
    registry->gauge("simd.generated.available").Set(0.0);
    std::fprintf(stderr, "SIMD PANEL: kernel hooks missing from .so\n");
    return false;
  }
  registry->gauge("simd.generated.available").Set(1.0);

  constexpr size_t kElements = 1 << 20;
  Rng rng(4242);
  std::vector<double> input(kElements);
  for (double& v : input) {
    v = rng.NextGaussian();
  }
  std::vector<double> gen_out(kElements);
  std::vector<double> hand_out(kElements);
  const double bytes = static_cast<double>(kElements) * sizeof(double);
  const auto mbps = [bytes](double seconds) {
    return seconds <= 0.0 ? 0.0 : bytes / (1024.0 * 1024.0) / seconds;
  };
  constexpr int kRepeats = 7;

  // Warm both paths (first generated call pays tier detection).
  volatile double sink = gen_reduce(input.data(), input.size()) +
                         HandReduceSum(input.data(), input.size());
  (void)sink;

  const double gen_reduce_mbps = mbps(BestSeconds(
      [&] {
        benchmark::DoNotOptimize(gen_reduce(input.data(), input.size()));
      },
      kRepeats));
  const double hand_reduce_mbps = mbps(BestSeconds(
      [&] {
        benchmark::DoNotOptimize(HandReduceSum(input.data(), input.size()));
      },
      kRepeats));
  const double gen_map_mbps = mbps(BestSeconds(
      [&] {
        gen_map(input.data(), gen_out.data(), input.size());
        benchmark::DoNotOptimize(gen_out.data());
      },
      kRepeats));
  const double hand_map_mbps = mbps(BestSeconds(
      [&] {
        HandMapSignBit(input.data(), hand_out.data(), input.size());
        benchmark::DoNotOptimize(hand_out.data());
      },
      kRepeats));

  // Bit-level agreement: both implement the same canonical schedules.
  const double gen_sum = gen_reduce(input.data(), input.size());
  const double hand_sum = HandReduceSum(input.data(), input.size());
  const bool sums_match = std::memcmp(&gen_sum, &hand_sum, sizeof(double)) == 0;
  gen_map(input.data(), gen_out.data(), input.size());
  HandMapSignBit(input.data(), hand_out.data(), input.size());
  const bool maps_match =
      std::memcmp(gen_out.data(), hand_out.data(),
                  kElements * sizeof(double)) == 0;

  const double reduce_ratio =
      hand_reduce_mbps <= 0.0 ? 0.0 : gen_reduce_mbps / hand_reduce_mbps;
  const double map_ratio =
      hand_map_mbps <= 0.0 ? 0.0 : gen_map_mbps / hand_map_mbps;
  registry->gauge("simd.generated.reduce_MBps").Set(gen_reduce_mbps);
  registry->gauge("simd.generated.reduce_hand_MBps").Set(hand_reduce_mbps);
  registry->gauge("simd.generated.reduce_ratio").Set(reduce_ratio);
  registry->gauge("simd.generated.map_MBps").Set(gen_map_mbps);
  registry->gauge("simd.generated.map_hand_MBps").Set(hand_map_mbps);
  registry->gauge("simd.generated.map_ratio").Set(map_ratio);
  registry->gauge("simd.generated.reduce_bits_match")
      .Set(sums_match ? 1.0 : 0.0);
  registry->gauge("simd.generated.map_bits_match")
      .Set(maps_match ? 1.0 : 0.0);
  std::printf(
      "simd generated-vs-hand: reduce %.0f vs %.0f MB/s (%.2fx), map %.0f "
      "vs %.0f MB/s (%.2fx)\n",
      gen_reduce_mbps, hand_reduce_mbps, reduce_ratio, gen_map_mbps,
      hand_map_mbps, map_ratio);

  bool ok = true;
  if (!sums_match || !maps_match) {
    std::fprintf(stderr,
                 "SIMD GATE FAIL: generated kernels disagree with the hand "
                 "references (reduce %d, map %d)\n",
                 sums_match ? 1 : 0, maps_match ? 1 : 0);
    ok = false;
  }
  // Within 10% of hand-tuned, gated only where the vector tiers actually
  // run (the scalar-vs-scalar comparison is gated the same way — both sides
  // collapse to the same loop).
  if (SimdCompiledIn() && SimdHostTier() >= SimdTier::kAvx2) {
    if (reduce_ratio < 0.9 || map_ratio < 0.9) {
      std::fprintf(stderr,
                   "SIMD GATE FAIL: generated kernels below 0.9x hand-tuned "
                   "(reduce %.2f, map %.2f)\n",
                   reduce_ratio, map_ratio);
      ok = false;
    }
  }
  dlclose(handle);
  std::remove((base + ".cc").c_str());
  std::remove((base + ".so").c_str());
  return ok;
}

// Runs the scalar-vs-SIMD panel and appends its gauges to the registry the
// verification phase already populated. Returns false on gate failure.
bool RunSimdPhase(MetricsRegistry* registry) {
  registry->gauge("simd.compiled_in").Set(SimdCompiledIn() ? 1.0 : 0.0);
  registry->gauge("simd.host_tier")
      .Set(static_cast<double>(SimdHostTier()));
  registry->gauge("simd.active_tier")
      .Set(static_cast<double>(ActiveSimdTier()));

  constexpr size_t kElements = 1 << 20;  // 4 MB of floats
  constexpr int kRepeats = 5;
  Rng rng(77);
  Tensor gradient("g", kElements);
  gradient.FillGaussian(rng);

  bool all_ok = true;
  for (const char* codec : {"onebit", "tbq", "fp16", "terngrad", "dgc"}) {
    // Scalar and vector repeats alternate, so a clock or load change on a
    // shared host moves both sides of the ratio alike.
    KernelMeasure scalar;
    KernelMeasure vec;
    for (int r = 0; r < kRepeats; ++r) {
      SimdTierOverride(SimdTier::kScalar);
      KeepBest(&scalar, MeasureKernels(codec, gradient.data(), kElements, 1));
      ClearSimdTierOverride();
      KeepBest(&vec, MeasureKernels(codec, gradient.data(), kElements, 1));
    }
    SimdTierOverride(SimdTier::kScalar);
    const uint64_t scalar_codec_fp = CodecEncodeFingerprint(codec, gradient);
    ClearSimdTierOverride();
    const uint64_t vec_codec_fp = CodecEncodeFingerprint(codec, gradient);

    const double encode_speedup =
        scalar.encode_mbps <= 0.0 ? 0.0 : vec.encode_mbps / scalar.encode_mbps;
    const double decode_speedup =
        scalar.decode_mbps <= 0.0 ? 0.0 : vec.decode_mbps / scalar.decode_mbps;
    const bool kernels_match =
        scalar.encode_fingerprint == vec.encode_fingerprint;
    const bool codecs_match =
        scalar_codec_fp == vec_codec_fp && scalar_codec_fp != 0;
    const std::string prefix = std::string("simd.") + codec;
    registry->gauge(prefix + ".scalar_encode_MBps").Set(scalar.encode_mbps);
    registry->gauge(prefix + ".vector_encode_MBps").Set(vec.encode_mbps);
    registry->gauge(prefix + ".encode_speedup").Set(encode_speedup);
    if (vec.decode_mbps > 0.0) {
      registry->gauge(prefix + ".scalar_decode_MBps").Set(scalar.decode_mbps);
      registry->gauge(prefix + ".vector_decode_MBps").Set(vec.decode_mbps);
      registry->gauge(prefix + ".decode_speedup").Set(decode_speedup);
    }
    registry->gauge(prefix + ".kernel_fingerprint_low32")
        .Set(Low32(vec.encode_fingerprint));
    registry->gauge(prefix + ".codec_fingerprint_low32")
        .Set(Low32(vec_codec_fp));
    registry->gauge(prefix + ".tiers_bit_identical")
        .Set(kernels_match && codecs_match ? 1.0 : 0.0);
    std::printf(
        "simd %-8s encode %7.0f -> %7.0f MB/s (%.2fx)  decode %7.0f -> "
        "%7.0f MB/s (%.2fx)%s\n",
        codec, scalar.encode_mbps, vec.encode_mbps, encode_speedup,
        scalar.decode_mbps, vec.decode_mbps, decode_speedup,
        kernels_match && codecs_match ? "" : "  FINGERPRINT MISMATCH");

    if (!kernels_match || !codecs_match) {
      std::fprintf(stderr,
                   "SIMD GATE FAIL %s: scalar and vector tiers are not "
                   "bit-identical\n",
                   codec);
      all_ok = false;
    }
    if (SimdCompiledIn() && SimdHostTier() >= SimdTier::kAvx2 &&
        encode_speedup < 3.0) {
      std::fprintf(stderr,
                   "SIMD GATE FAIL %s: encode speedup %.2fx below the 3x "
                   "bar on an AVX2+ host\n",
                   codec, encode_speedup);
      all_ok = false;
    }
  }
  all_ok &= RunGeneratedPanel(registry);
  return all_ok;
}

}  // namespace
}  // namespace hipress

int main(int argc, char** argv) {
  bool smoke = std::getenv("HIPRESS_BENCH_SMOKE") != nullptr;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!hipress::RunVerificationPhase(smoke)) {
    return 1;
  }
  if (!hipress::RunMemoryPhase(smoke)) {
    return 1;
  }
  if (smoke) {
    return 0;  // CI smoke: skip the full google-benchmark sweep
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
