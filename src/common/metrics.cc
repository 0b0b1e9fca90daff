#include "src/common/metrics.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

#include "src/common/logging.h"
#include "src/common/string_util.h"

namespace hipress {
namespace {

// JSON forbids NaN/Inf literals; metrics are measurements, so non-finite
// values collapse to 0 rather than poisoning the document.
// Finite values use std::to_chars shortest form: it round-trips to the
// exact same double, so compare_bench.py exact-tolerance rules (replay
// fingerprints, gate booleans) can never flap on serialization.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  CHECK(result.ec == std::errc());
  return std::string(buffer, result.ptr);
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  out += "\"";
  return out;
}

}  // namespace

// ------------------------------------------------------------------ Histogram

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), cells_(bounds_.size() + 1) {}

void Histogram::Observe(double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  cells_.Observe(bounds_, value);
}

void Histogram::Merge(const LocalHistogram& local) {
  if (local.cells_.count == 0) {
    return;
  }
  CHECK(local.bounds_.data() == bounds_.data())
      << "LocalHistogram merged into a histogram it was not built for";
  std::lock_guard<std::mutex> lock(mutex_);
  cells_.Merge(local.cells_);
}

uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cells_.count;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cells_.sum;
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cells_.min;
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cells_.max;
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cells_.counts;
}

double Histogram::Quantile(double q) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<uint64_t>& counts = cells_.counts;
  const double min = cells_.min;
  const double max = cells_.max;
  if (cells_.count == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(cells_.count);
  double cumulative = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) {
      continue;
    }
    const double next = cumulative + static_cast<double>(counts[i]);
    if (next >= target) {
      // Bucket i holds ranks (cumulative, next]; interpolate linearly
      // within its bounds, tightened by the observed extremes (the
      // overflow bucket has no upper bound; min/max cap both ends).
      double lo = i == 0 ? min : bounds_[i - 1];
      double hi = i < bounds_.size() ? bounds_[i] : max;
      lo = std::max(lo, min);
      hi = std::min(hi, max);
      if (hi < lo) {
        hi = lo;
      }
      const double fraction = std::clamp(
          (target - cumulative) / static_cast<double>(counts[i]), 0.0, 1.0);
      return std::clamp(lo + (hi - lo) * fraction, min, max);
    }
    cumulative = next;
  }
  return max;
}

// ------------------------------------------------------------ LocalHistogram

LocalHistogram::LocalHistogram(Histogram* target)
    : target_(target),
      bounds_(target->bounds()),
      cells_(target->bounds().size() + 1) {}

void LocalHistogram::Publish() {
  if (target_ == nullptr || cells_.count == 0) {
    return;
  }
  target_->Merge(*this);
  cells_.Clear();
}

// ----------------------------------------------------------- HistogramBuckets

std::vector<double> HistogramBuckets::Exponential(double start, double factor,
                                                  int count) {
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(std::max(count, 0)));
  double bound = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

std::vector<double> HistogramBuckets::Linear(double start, double step,
                                             int count) {
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(std::max(count, 0)));
  for (int i = 0; i < count; ++i) {
    bounds.push_back(start + step * i);
  }
  return bounds;
}

std::vector<double> HistogramBuckets::DefaultTime() {
  return Exponential(1.0, 2.0, 20);  // 1us .. ~0.5s in microseconds
}

std::vector<double> HistogramBuckets::DefaultBytes() {
  return Exponential(64.0, 4.0, 22);  // 64B .. ~256GB
}

// ------------------------------------------------------------ MetricsRegistry

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    if (bounds.empty()) {
      bounds = HistogramBuckets::DefaultTime();
    }
    slot = std::make_unique<Histogram>(std::move(bounds));
  }
  return *slot;
}

uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t value = 0;
  if (name == "metrics.nonfinite_gauges") {
    value = nonfinite_gauges_.value();
  }
  const auto it = counters_.find(name);
  return value + (it == counters_.end() ? 0 : it->second->value());
}

double MetricsRegistry::gauge_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second->value();
}

uint64_t MetricsRegistry::histogram_count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? 0 : it->second->count();
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Detect non-finite gauges before serializing the counters, so the
  // occurrence counter below reflects this very dump. The value still
  // collapses to 0 in the document (JSON forbids NaN/Inf literals), but
  // the loss is signalled instead of silent.
  for (const auto& [name, gauge] : gauges_) {
    if (!std::isfinite(gauge->value())) {
      nonfinite_gauges_.Increment();
      if (warned_nonfinite_.insert(name).second) {
        LOG(Warning) << "non-finite gauge '" << name
                     << "' exported as 0 (metrics.nonfinite_gauges)";
      }
    }
  }
  static constexpr char kNonfiniteName[] = "metrics.nonfinite_gauges";
  const uint64_t nonfinite = nonfinite_gauges_.value();
  bool synthetic_pending = nonfinite > 0;
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  auto emit = [&](const std::string& name, uint64_t value) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << JsonString(name) << ":" << value;
  };
  for (const auto& [name, counter] : counters_) {
    uint64_t value = counter->value();
    if (synthetic_pending && name == kNonfiniteName) {
      value += nonfinite;  // merge with a user-registered twin
      synthetic_pending = false;
    } else if (synthetic_pending && name > kNonfiniteName) {
      emit(kNonfiniteName, nonfinite);
      synthetic_pending = false;
    }
    emit(name, value);
  }
  if (synthetic_pending) {
    emit(kNonfiniteName, nonfinite);
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << JsonString(name) << ":" << JsonNumber(gauge->value());
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) {
      out << ",";
    }
    first = false;
    const std::vector<uint64_t> counts = histogram->bucket_counts();
    const std::vector<double>& bounds = histogram->bounds();
    out << JsonString(name) << ":{\"count\":" << histogram->count()
        << ",\"sum\":" << JsonNumber(histogram->sum())
        << ",\"min\":" << JsonNumber(histogram->min())
        << ",\"max\":" << JsonNumber(histogram->max())
        << ",\"p50\":" << JsonNumber(histogram->Quantile(0.5))
        << ",\"p95\":" << JsonNumber(histogram->Quantile(0.95))
        << ",\"p99\":" << JsonNumber(histogram->Quantile(0.99))
        << ",\"buckets\":[";
    for (size_t i = 0; i < bounds.size(); ++i) {
      if (i > 0) {
        out << ",";
      }
      out << "{\"le\":" << JsonNumber(bounds[i]) << ",\"count\":" << counts[i]
          << "}";
    }
    out << "],\"overflow\":" << counts.back() << "}";
  }
  out << "}}";
  return out.str();
}

Status MetricsRegistry::WriteJson(const std::string& path) const {
  std::ofstream file(path);
  if (!file.good()) {
    return InvalidArgumentError("cannot open metrics file: " + path);
  }
  file << ToJson() << "\n";
  if (!file.good()) {
    return InternalError("failed writing metrics file: " + path);
  }
  return OkStatus();
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

// -------------------------------------------------------------- SpanCollector

const char* TraceLaneName(int lane) {
  switch (lane) {
    case kTraceLaneNetUplink:
      return "net:uplink";
    case kTraceLaneNetDownlink:
      return "net:downlink";
    case kTraceLaneCoordinator:
      return "coordinator";
    case kTraceLaneRetry:
      return "net:retry";
    case kTraceLaneRecovery:
      return "recovery";
    case kTraceLaneMemAlloc:
      return "mem:alloc";
    case kTraceLaneCriticalPath:
      return "critical-path";
    case kTraceLaneAdaptive:
      return "adaptive";
    case kTraceLaneMembership:
      return "membership";
    case kTraceLaneNetFabric:
      return "net:fabric";
    case kTraceLaneLinkBusy:
      return "net:busy";
    case kTraceLaneFlight:
      return "flight";
    default:
      return "lane";
  }
}

void SpanCollector::Add(int node, int lane, std::string name, SimTime start,
                        SimTime end) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(TraceSpan{node, lane, std::move(name), start, end});
}

std::vector<TraceSpan> SpanCollector::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

size_t SpanCollector::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

}  // namespace hipress
