// In-memory span recorder for bench_e2e's traced run.
//
// Spans are recorded by the benchmark's own code around each call into a
// public function of the program (and, in real-dp, around every codec call
// through a decorating Compressor), so a traced run splits host time by
// layer without touching the program. Each span carries a name, host
// start/end, the id of the span open around it, and the repetition it
// belongs to. The recorder is single-threaded: every instrumented call is
// made from the benchmark's main thread.
#ifndef HIPRESS_BENCH_E2E_SPANS_H_
#define HIPRESS_BENCH_E2E_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace bench_e2e {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  int64_t start_ns = 0;  // host ns since the recorder was created
  int64_t end_ns = 0;
  int parent = -1;  // id of the span open around this one, -1 at the root
  int rep = -1;     // repetition id; -1 for set-up
};

// Host seconds per span name over one repetition: total span time and self
// time (span minus the part its child spans cover).
struct LayerTimes {
  std::map<std::string, double> total_s;
  std::map<std::string, double> self_s;
  std::map<std::string, uint64_t> count;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  // Spans opened from now on belong to repetition `rep`.
  void set_rep(int rep) { rep_ = rep; }
  int rep() const { return rep_; }

  // Opens a span as a child of the innermost open one; returns its id.
  // End(id) closes it; spans close innermost first (use ScopedSpan).
  int Begin(std::string name);
  void End(int id);

  LayerTimes Times(int rep) const;

  // Chrome trace JSON ({"traceEvents": [...]}, complete "X" events, one
  // thread row per repetition) for chrome://tracing or Perfetto.
  hipress::Status WriteChromeTrace(const std::string& path) const;

 private:
  int64_t NowNs() const;

  Clock::time_point origin_;
  int rep_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span ids
};

// RAII span; a no-op when `tracer` is null (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace bench_e2e

#endif  // HIPRESS_BENCH_E2E_SPANS_H_
