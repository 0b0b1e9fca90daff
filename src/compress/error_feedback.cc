#include "src/compress/error_feedback.h"

#include "src/common/logging.h"

namespace hipress {
namespace {

// The recipe's two element-wise passes. Restrict is scoped to these
// helpers: the codec calls between them read `corrected` and write the
// residual through other pointers.
void AddInto(const float* __restrict g, const float* __restrict r,
             float* __restrict c, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    c[i] = g[i] + r[i];
  }
}

// r[i] = c[i] - r[i]: r holds decode(payload) on entry, the error on exit.
void SubtractFrom(const float* __restrict c, float* __restrict r, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    r[i] = c[i] - r[i];
  }
}

}  // namespace

Status ErrorFeedback::Apply(const std::string& key,
                            std::span<const float> gradient,
                            std::span<float> corrected, ByteBuffer* payload) {
  CHECK_EQ(corrected.size(), gradient.size());
  const size_t n = gradient.size();
  std::vector<float>& residual = residuals_[key];
  if (residual.size() != n) {
    residual.assign(n, 0.0f);
  }

  AddInto(gradient.data(), residual.data(), corrected.data(), n);

  RETURN_IF_ERROR(compressor_->Encode(corrected, payload));

  // Decode writes every element, so the residual's own storage holds
  // decode(payload) until the pass below turns it into the error.
  RETURN_IF_ERROR(compressor_->Decode(*payload, residual));
  SubtractFrom(corrected.data(), residual.data(), n);
  return OkStatus();
}

std::span<const float> ErrorFeedback::residual(const std::string& key) const {
  auto it = residuals_.find(key);
  if (it == residuals_.end()) {
    return {};
  }
  return std::span<const float>(it->second);
}

}  // namespace hipress
