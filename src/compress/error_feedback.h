// Error-feedback (residual) state for lossy gradient compression.
//
// Lossy codecs only preserve convergence when the compression error is
// carried into the next iteration instead of discarded (1-bit SGD's error
// carry, DGC's local accumulation, TBQ's residual). The recipe:
//
//   corrected = gradient + residual
//   payload   = encode(corrected)
//   residual  = corrected - decode(payload)
//
// Residuals are keyed by gradient name, one per layer, matching the paper's
// layer-wise compression. The wrapper is what the convergence experiments
// (Figure 13) train through.
#ifndef HIPRESS_SRC_COMPRESS_ERROR_FEEDBACK_H_
#define HIPRESS_SRC_COMPRESS_ERROR_FEEDBACK_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/compress/compressor.h"

namespace hipress {

class ErrorFeedback {
 public:
  explicit ErrorFeedback(std::shared_ptr<const Compressor> compressor)
      : compressor_(std::move(compressor)) {}

  // Runs the recipe once for the gradient identified by `key`: writes
  // `corrected` (as long as `gradient`, not overlapping it; callers send
  // it), encodes it into `payload` and updates the stored residual. A
  // failed encode leaves the residual as it was; a failed decode, which
  // only a faulty codec can cause, leaves it undefined.
  Status Apply(const std::string& key, std::span<const float> gradient,
               std::span<float> corrected, ByteBuffer* payload);

  // Residual currently stored for `key` (empty if none yet).
  std::span<const float> residual(const std::string& key) const;

  const Compressor& compressor() const { return *compressor_; }

  void Reset() { residuals_.clear(); }

 private:
  std::shared_ptr<const Compressor> compressor_;
  std::unordered_map<std::string, std::vector<float>> residuals_;
};

}  // namespace hipress

#endif  // HIPRESS_SRC_COMPRESS_ERROR_FEEDBACK_H_
