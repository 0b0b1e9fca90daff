#include "bench/e2e/spans.h"

#include <cstdio>

namespace bench_e2e {

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::Begin(std::string name) {
  const int id = static_cast<int>(spans_.size());
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.rep = rep_;
  spans_.push_back(std::move(span));
  open_.push_back(id);
  // Read the clock last so the bookkeeping above is not charged to the span.
  spans_[id].start_ns = NowNs();
  return id;
}

void Tracer::End(int id) {
  spans_[id].end_ns = NowNs();
  // ScopedSpan closes spans in LIFO order, so `id` is the innermost one.
  open_.pop_back();
}

LayerTimes Tracer::Times(int rep) const {
  LayerTimes times;
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.rep == rep && span.parent >= 0) {
      child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.rep != rep) {
      continue;
    }
    const int64_t duration = span.end_ns - span.start_ns;
    times.total_s[span.name] += static_cast<double>(duration) * 1e-9;
    times.self_s[span.name] +=
        static_cast<double>(duration - child_ns[i]) * 1e-9;
    ++times.count[span.name];
  }
  return times;
}

hipress::Status Tracer::WriteChromeTrace(const std::string& path) const {
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return hipress::InternalError("cannot open trace output " + path);
  }
  std::fprintf(file, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Span names are fixed identifiers from this benchmark (no quotes or
    // backslashes), so they need no JSON escaping. Set-up spans share row 0.
    std::fprintf(file,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"rep\":%d}}",
                 i == 0 ? "" : ",", span.name.c_str(),
                 span.rep < 0 ? 0 : span.rep + 1,
                 static_cast<double>(span.start_ns) * 1e-3,
                 static_cast<double>(span.end_ns - span.start_ns) * 1e-3, i,
                 span.parent, span.rep);
  }
  std::fprintf(file, "\n]}\n");
  const bool write_failed = std::ferror(file) != 0;
  if (std::fclose(file) != 0 || write_failed) {
    return hipress::InternalError("short write to " + path);
  }
  return hipress::OkStatus();
}

}  // namespace bench_e2e
