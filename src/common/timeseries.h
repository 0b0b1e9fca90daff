// Windowed time-series telemetry.
//
// MetricsRegistry snapshots answer "what happened over the whole run"; the
// flight recorder answers "what were the last events before it died". This
// layer answers the question in between — "how has sim.queue_depth (or
// cp.share.send, net.pool_misses, a job<k> rollup) evolved over the last
// few seconds" — cheaply enough to stay on at 1024-node scale. Each
// WindowedSeries is a fixed ring of aggregation windows of equal sim-time
// width holding count/min/max/sum/last; observing a sample is O(1) and
// allocation-free once constructed.
//
// TimeSeriesHub owns the series for a run. Series are either observed
// directly (Series("train.iteration_ms").Observe(now, ms)) or attached to a
// MetricsRegistry counter/gauge and pulled by SampleAll at iteration
// boundaries (counters sample as per-interval deltas). The HealthMonitor
// (src/common/watchdog.h) evaluates its rules over these windows.
#ifndef HIPRESS_SRC_COMMON_TIMESERIES_H_
#define HIPRESS_SRC_COMMON_TIMESERIES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/units.h"

namespace hipress {

class MetricsRegistry;

// One aggregation window: [start, start + width) in sim time.
struct SeriesWindow {
  SimTime start = 0;
  uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  double last = 0.0;

  double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
};

// Ring of the most recent `num_windows` aggregation windows. Windows the
// simulation skipped (no samples) are materialized empty, so the ring is a
// gap-free recent history. Not thread-safe; the single-threaded simulation
// loop is the only writer.
class WindowedSeries {
 public:
  WindowedSeries(std::string name, SimTime window_width, size_t num_windows);

  const std::string& name() const { return name_; }
  SimTime window_width() const { return width_; }

  void Observe(SimTime now, double value);

  // Retained windows, oldest to newest (at most num_windows; empty before
  // the first Observe).
  std::vector<SeriesWindow> Windows() const;
  uint64_t total_samples() const { return total_samples_; }
  double last_value() const { return last_value_; }

  // Median of the per-window means over up to `n` windows ending just
  // before the newest window — the rolling baseline the watchdog compares
  // the newest window against. 0 when no prior windows exist.
  double RollingMedianBefore(size_t n) const;
  // Number of windows currently retained.
  size_t size() const;

 private:
  // Advances the ring so `ordinal` is the newest window, zero-filling any
  // skipped windows.
  void AdvanceTo(int64_t ordinal);
  SeriesWindow& Slot(int64_t ordinal) {
    return ring_[static_cast<size_t>(ordinal) % ring_.size()];
  }
  const SeriesWindow& Slot(int64_t ordinal) const {
    return ring_[static_cast<size_t>(ordinal) % ring_.size()];
  }

  std::string name_;
  SimTime width_;
  std::vector<SeriesWindow> ring_;
  int64_t first_ordinal_ = -1;  // oldest retained window; -1 before data
  int64_t last_ordinal_ = -1;   // newest window
  uint64_t total_samples_ = 0;
  double last_value_ = 0.0;
};

// Owns a run's series and their registry attachments.
class TimeSeriesHub {
 public:
  TimeSeriesHub() = default;
  TimeSeriesHub(const TimeSeriesHub&) = delete;
  TimeSeriesHub& operator=(const TimeSeriesHub&) = delete;

  // Returns the series named `name`, creating it on first use.
  WindowedSeries& Series(const std::string& name);
  // nullptr when the series does not exist.
  const WindowedSeries* Find(const std::string& name) const;

  // Attaches a registry metric; every SampleAll observes its current value
  // (gauge) or the delta since the previous sample (counter) into the
  // series of the same name.
  void AttachGauge(MetricsRegistry* registry, const std::string& metric);
  void AttachCounter(MetricsRegistry* registry, const std::string& metric);

  // Pulls every attachment once. Called at iteration boundaries.
  void SampleAll(SimTime now);

  std::vector<const WindowedSeries*> AllSeries() const;
  // Window width of every series the hub creates.
  static SimTime window_width();

 private:
  struct Attachment {
    std::string metric;
    bool is_counter = false;
    MetricsRegistry* registry = nullptr;
    uint64_t last_counter = 0;
  };

  std::vector<std::unique_ptr<WindowedSeries>> series_;
  std::vector<Attachment> attachments_;
};

}  // namespace hipress

#endif  // HIPRESS_SRC_COMMON_TIMESERIES_H_
