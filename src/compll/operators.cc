#include "src/compll/operators.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>

#include "src/common/bitops.h"
#include "src/common/thread_pool.h"
#include "src/compress/compressor.h"

namespace hipress::compll {
namespace {

constexpr size_t kParallelGrain = 32 * 1024;

// Canonical deterministic sum schedule, shared with the SIMD kernels
// (src/compress/simd_kernels.h) and with CompLL-generated code: within a
// 4096-element block, lane j accumulates elements with index = j (mod 8)
// and the 8 lanes merge in ascending order. Block partials merge in block
// order. Any implementation following this schedule — scalar, AVX2,
// AVX-512, interpreter, generated — produces bit-identical sums at every
// input size and thread count.
constexpr size_t kSumBlockElements = 4096;

double BlockSum8(const double* x, size_t n) {
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

double BlockedSum(std::span<const double> input) {
  const size_t num_blocks =
      (input.size() + kSumBlockElements - 1) / kSumBlockElements;
  std::vector<double> partials(num_blocks);
  ThreadPool::Global().ParallelFor(
      num_blocks, kParallelGrain / kSumBlockElements + 1,
      [&](size_t block_begin, size_t block_end) {
        for (size_t b = block_begin; b < block_end; ++b) {
          const size_t begin = b * kSumBlockElements;
          const size_t end =
              std::min(input.size(), begin + kSumBlockElements);
          partials[b] = BlockSum8(input.data() + begin, end - begin);
        }
      });
  double total = 0.0;
  for (const double partial : partials) {
    total += partial;
  }
  return total;
}

}  // namespace

StatusOr<BuiltinUdf> ParseBuiltinUdf(const std::string& name) {
  if (name == "smaller") {
    return BuiltinUdf::kSmaller;
  }
  if (name == "greater") {
    return BuiltinUdf::kGreater;
  }
  if (name == "sum") {
    return BuiltinUdf::kSum;
  }
  if (name == "maxAbs") {
    return BuiltinUdf::kMaxAbs;
  }
  return NotFoundError("unknown builtin udf: " + name);
}

std::vector<double> MapOp(std::span<const double> input,
                          const std::function<double(double)>& udf) {
  std::vector<double> output(input.size());
  ThreadPool::Global().ParallelFor(
      input.size(), kParallelGrain, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          output[i] = udf(input[i]);
        }
      });
  return output;
}

double ReduceOp(std::span<const double> input, BuiltinUdf udf) {
  if (input.empty()) {
    return 0.0;
  }
  if (udf == BuiltinUdf::kSum) {
    // Sum is not associative in floating point; use the canonical blocked
    // schedule so the result matches the SIMD kernels and generated code
    // bit for bit regardless of sharding.
    return BlockedSum(input);
  }
  auto combine = [udf](double a, double b) {
    switch (udf) {
      case BuiltinUdf::kSmaller:
        return std::min(a, b);
      case BuiltinUdf::kGreater:
        return std::max(a, b);
      case BuiltinUdf::kSum:
        return a + b;
      case BuiltinUdf::kMaxAbs:
        return std::max(std::abs(a), std::abs(b));
    }
    return a;
  };
  // Per-shard partials merged afterwards; min/max/maxabs are associative
  // and commutative, so shard order does not matter.
  std::vector<double> partials;
  std::mutex partials_mutex;
  ThreadPool::Global().ParallelFor(
      input.size(), kParallelGrain, [&](size_t begin, size_t end) {
        double local =
            udf == BuiltinUdf::kMaxAbs ? std::abs(input[begin]) : input[begin];
        for (size_t i = begin + 1; i < end; ++i) {
          local = combine(local, input[i]);
        }
        std::lock_guard<std::mutex> lock(partials_mutex);
        partials.push_back(local);
      });
  double result = partials[0];
  for (size_t i = 1; i < partials.size(); ++i) {
    result = combine(result, partials[i]);
  }
  return result;
}

double ReduceOp(std::span<const double> input,
                const std::function<double(double, double)>& udf) {
  if (input.empty()) {
    return 0.0;
  }
  double accum = input[0];
  for (size_t i = 1; i < input.size(); ++i) {
    accum = udf(accum, input[i]);
  }
  return accum;
}

std::vector<double> FilterOp(std::span<const double> input,
                             const std::function<double(double)>& pred) {
  std::vector<double> output;
  output.reserve(input.size() / 8);
  for (const double v : input) {
    if (pred(v) != 0.0) {
      output.push_back(v);
    }
  }
  return output;
}

std::vector<double> FilterIndexOp(std::span<const double> input,
                                  const std::function<double(double)>& pred) {
  std::vector<double> output;
  output.reserve(input.size() / 8);
  for (size_t i = 0; i < input.size(); ++i) {
    if (pred(input[i]) != 0.0) {
      output.push_back(static_cast<double>(i));
    }
  }
  return output;
}

std::vector<double> SortOp(std::span<const double> input, BuiltinUdf order) {
  std::vector<double> output(input.begin(), input.end());
  if (order == BuiltinUdf::kGreater) {
    std::sort(output.begin(), output.end(), std::greater<double>());
  } else {
    std::sort(output.begin(), output.end());
  }
  return output;
}

double RandomOp(double a, double b, uint64_t seed, uint64_t index) {
  return a + (b - a) * static_cast<double>(HashUniform(seed, index));
}

// ------------------------------------------------------------------ concat

void ConcatBuilder::AppendScalar(ScalarType type, double value) {
  switch (type) {
    case ScalarType::kFloat: {
      const float f = static_cast<float>(value);
      const auto* p = reinterpret_cast<const uint8_t*>(&f);
      buffer_.insert(buffer_.end(), p, p + sizeof(f));
      return;
    }
    case ScalarType::kInt32: {
      const int32_t i = static_cast<int32_t>(value);
      const auto* p = reinterpret_cast<const uint8_t*>(&i);
      buffer_.insert(buffer_.end(), p, p + sizeof(i));
      return;
    }
    case ScalarType::kUint1:
    case ScalarType::kUint2:
    case ScalarType::kUint4:
    case ScalarType::kUint8: {
      // Scalars of sub-byte type occupy one byte (Section 4.3: unsupported
      // widths are stored in a byte and extracted with bit operations).
      const uint8_t byte = static_cast<uint8_t>(
          CoerceToType(type, value));
      buffer_.push_back(byte);
      return;
    }
    case ScalarType::kVoid:
    case ScalarType::kParamStruct:
      return;
  }
}

void ConcatBuilder::AppendArray(ScalarType elem_type,
                                std::span<const double> values) {
  const unsigned bits = ScalarBits(elem_type);
  if (elem_type == ScalarType::kFloat) {
    const size_t offset = buffer_.size();
    buffer_.resize(offset + values.size() * sizeof(float));
    uint8_t* out = buffer_.data() + offset;
    for (size_t i = 0; i < values.size(); ++i) {
      // The buffer offset need not be float-aligned: store bytewise.
      const float value = static_cast<float>(values[i]);
      std::memcpy(out + i * sizeof(float), &value, sizeof(float));
    }
    return;
  }
  if (elem_type == ScalarType::kInt32) {
    const size_t offset = buffer_.size();
    buffer_.resize(offset + values.size() * sizeof(int32_t));
    uint8_t* out = buffer_.data() + offset;
    for (size_t i = 0; i < values.size(); ++i) {
      const int32_t value = static_cast<int32_t>(values[i]);
      std::memcpy(out + i * sizeof(int32_t), &value, sizeof(int32_t));
    }
    return;
  }
  // Sub-byte (and uint8) arrays: bit-pack with minimal zero padding so the
  // array occupies a whole number of bytes.
  const size_t offset = buffer_.size();
  buffer_.resize(offset + PackedBytes(values.size(), bits), 0);
  uint8_t* out = buffer_.data() + offset;
  for (size_t i = 0; i < values.size(); ++i) {
    const uint32_t v =
        static_cast<uint32_t>(CoerceToType(elem_type, values[i]));
    WriteBits(out, i * bits, bits, v);
  }
}

// ----------------------------------------------------------------- extract

StatusOr<double> ExtractReader::ReadScalar(ScalarType type) {
  switch (type) {
    case ScalarType::kFloat: {
      if (remaining() < sizeof(float)) {
        return OutOfRangeError("extract<float>: buffer exhausted");
      }
      float f;
      std::memcpy(&f, buffer_.data() + *cursor_, sizeof(f));
      *cursor_ += sizeof(f);
      return static_cast<double>(f);
    }
    case ScalarType::kInt32: {
      if (remaining() < sizeof(int32_t)) {
        return OutOfRangeError("extract<int32>: buffer exhausted");
      }
      int32_t i;
      std::memcpy(&i, buffer_.data() + *cursor_, sizeof(i));
      *cursor_ += sizeof(i);
      return static_cast<double>(i);
    }
    case ScalarType::kUint1:
    case ScalarType::kUint2:
    case ScalarType::kUint4:
    case ScalarType::kUint8: {
      if (remaining() < 1) {
        return OutOfRangeError("extract<uintN>: buffer exhausted");
      }
      const uint8_t byte = buffer_[*cursor_];
      *cursor_ += 1;
      return CoerceToType(type, static_cast<double>(byte));
    }
    case ScalarType::kVoid:
    case ScalarType::kParamStruct:
      return InvalidArgumentError("extract: unsupported scalar type");
  }
  return InvalidArgumentError("extract: unsupported scalar type");
}

StatusOr<std::vector<double>> ExtractReader::ReadArray(ScalarType elem_type,
                                                       long long count) {
  const unsigned bits = ScalarBits(elem_type);
  if (bits == 0) {
    return InvalidArgumentError("extract: unsupported array element type");
  }
  size_t elements;
  size_t bytes;
  if (count < 0) {
    // Consume the rest of the buffer; element count inferred from bits.
    bytes = remaining();
    elements = bytes * 8 / bits;
  } else {
    elements = static_cast<size_t>(count);
    bytes = elem_type == ScalarType::kFloat || elem_type == ScalarType::kInt32
                ? elements * 4
                : PackedBytes(elements, bits);
    if (bytes > remaining()) {
      return OutOfRangeError("extract<T*>: buffer exhausted");
    }
  }

  std::vector<double> values(elements);
  const uint8_t* base = buffer_.data() + *cursor_;
  if (elem_type == ScalarType::kFloat) {
    for (size_t i = 0; i < elements; ++i) {
      float f;
      std::memcpy(&f, base + i * sizeof(float), sizeof(f));
      values[i] = static_cast<double>(f);
    }
  } else if (elem_type == ScalarType::kInt32) {
    for (size_t i = 0; i < elements; ++i) {
      int32_t v;
      std::memcpy(&v, base + i * sizeof(int32_t), sizeof(v));
      values[i] = static_cast<double>(v);
    }
  } else {
    for (size_t i = 0; i < elements; ++i) {
      values[i] = static_cast<double>(ReadBits(base, i * bits, bits));
    }
  }
  *cursor_ += bytes;
  return values;
}

}  // namespace hipress::compll
