#include "src/common/timeseries.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/metrics.h"

namespace hipress {
namespace {

// Every hub series aggregates 50 ms windows and keeps the latest 64.
constexpr SimTime kHubWindowWidth = 50 * kMillisecond;
constexpr size_t kHubNumWindows = 64;

}  // namespace

WindowedSeries::WindowedSeries(std::string name, SimTime window_width,
                               size_t num_windows)
    : name_(std::move(name)), width_(window_width) {
  CHECK_GT(width_, 0);
  CHECK_GT(num_windows, 0u);
  ring_.assign(num_windows, SeriesWindow());
}

void WindowedSeries::AdvanceTo(int64_t ordinal) {
  if (first_ordinal_ < 0) {
    first_ordinal_ = ordinal;
    last_ordinal_ = ordinal - 1;  // the loop below initializes `ordinal`
  }
  // Zero-fill every skipped window so the retained history has no gaps.
  for (int64_t o = last_ordinal_ + 1; o <= ordinal; ++o) {
    SeriesWindow& window = Slot(o);
    window = SeriesWindow();
    window.start = static_cast<SimTime>(o) * width_;
  }
  last_ordinal_ = ordinal;
  const int64_t capacity = static_cast<int64_t>(ring_.size());
  first_ordinal_ = std::max(first_ordinal_, last_ordinal_ - capacity + 1);
}

void WindowedSeries::Observe(SimTime now, double value) {
  const int64_t ordinal = static_cast<int64_t>(now / width_);
  if (ordinal > last_ordinal_ || first_ordinal_ < 0) {
    AdvanceTo(ordinal);
  }
  // Late samples for already-rotated windows fold into the oldest retained
  // window rather than corrupting a newer one.
  SeriesWindow& window =
      Slot(std::clamp(ordinal, first_ordinal_, last_ordinal_));
  if (window.count == 0) {
    window.min = value;
    window.max = value;
  } else {
    window.min = std::min(window.min, value);
    window.max = std::max(window.max, value);
  }
  window.sum += value;
  window.last = value;
  ++window.count;
  ++total_samples_;
  last_value_ = value;
}

size_t WindowedSeries::size() const {
  if (first_ordinal_ < 0) {
    return 0;
  }
  return static_cast<size_t>(last_ordinal_ - first_ordinal_ + 1);
}

std::vector<SeriesWindow> WindowedSeries::Windows() const {
  std::vector<SeriesWindow> out;
  if (first_ordinal_ < 0) {
    return out;
  }
  out.reserve(size());
  for (int64_t o = first_ordinal_; o <= last_ordinal_; ++o) {
    out.push_back(Slot(o));
  }
  return out;
}

double WindowedSeries::RollingMedianBefore(size_t n) const {
  if (first_ordinal_ < 0 || last_ordinal_ == first_ordinal_ || n == 0) {
    return 0.0;
  }
  std::vector<double> means;
  means.reserve(n);
  for (int64_t o = last_ordinal_ - 1;
       o >= first_ordinal_ && means.size() < n; --o) {
    const SeriesWindow& window = Slot(o);
    if (window.count > 0) {
      means.push_back(window.mean());
    }
  }
  if (means.empty()) {
    return 0.0;
  }
  std::sort(means.begin(), means.end());
  const size_t mid = means.size() / 2;
  if (means.size() % 2 == 1) {
    return means[mid];
  }
  return 0.5 * (means[mid - 1] + means[mid]);
}

SimTime TimeSeriesHub::window_width() { return kHubWindowWidth; }

WindowedSeries& TimeSeriesHub::Series(const std::string& name) {
  for (const auto& series : series_) {
    if (series->name() == name) {
      return *series;
    }
  }
  series_.push_back(std::make_unique<WindowedSeries>(
      name, kHubWindowWidth, kHubNumWindows));
  return *series_.back();
}

const WindowedSeries* TimeSeriesHub::Find(const std::string& name) const {
  for (const auto& series : series_) {
    if (series->name() == name) {
      return series.get();
    }
  }
  return nullptr;
}

void TimeSeriesHub::AttachGauge(MetricsRegistry* registry,
                                const std::string& metric) {
  CHECK(registry != nullptr);
  Series(metric);
  attachments_.push_back(Attachment{metric, false, registry, 0});
}

void TimeSeriesHub::AttachCounter(MetricsRegistry* registry,
                                  const std::string& metric) {
  CHECK(registry != nullptr);
  Series(metric);
  attachments_.push_back(
      Attachment{metric, true, registry, registry->counter_value(metric)});
}

void TimeSeriesHub::SampleAll(SimTime now) {
  for (Attachment& attachment : attachments_) {
    if (attachment.is_counter) {
      const uint64_t value = attachment.registry->counter_value(
          attachment.metric);
      const uint64_t delta =
          value >= attachment.last_counter ? value - attachment.last_counter
                                           : 0;
      attachment.last_counter = value;
      Series(attachment.metric).Observe(now, static_cast<double>(delta));
    } else {
      Series(attachment.metric)
          .Observe(now, attachment.registry->gauge_value(attachment.metric));
    }
  }
}

std::vector<const WindowedSeries*> TimeSeriesHub::AllSeries() const {
  std::vector<const WindowedSeries*> out;
  out.reserve(series_.size());
  for (const auto& series : series_) {
    out.push_back(series.get());
  }
  return out;
}

}  // namespace hipress
