// Process-wide metrics and unified tracing.
//
// MetricsRegistry is the repository's observability backbone: counters,
// gauges and fixed-bucket histograms registered by name, serializable as
// JSON (the `BENCH_<name>.json` files CI archives, and the metrics block
// attached to every TrainReport). Hot layers — the CaSync engine, the
// network, the bulk coordinator, the GPU device model and both trainers —
// record into a registry instead of ad-hoc struct members, so one dump
// carries the whole per-primitive latency breakdown the paper's Figure 11
// argues from.
//
// The registry's metrics are thread-safe, which costs an atomic add per
// counter increment and a lock per histogram observation. The simulator's
// per-event paths are single-threaded, so the components on them keep
// plain tallies instead — integers, plus a LocalHistogram per histogram —
// and publish them into the registry when Simulator::Run()/RunUntil()
// returns and when the component is destroyed (Simulator::PublishHook,
// CounterPublisher).
//
// SpanCollector is the tracing half: components append named [start, end)
// spans on (node, lane) rows; the exporter in src/train/trace.h merges them
// with GPU kernel timelines into a single Perfetto/chrome://tracing JSON,
// one process track per node.
#ifndef HIPRESS_SRC_COMMON_METRICS_H_
#define HIPRESS_SRC_COMMON_METRICS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"

namespace hipress {

// Monotonically increasing integer metric. Thread-safe.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-write-wins floating-point metric. Thread-safe.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Publishes a cumulative total that one thread keeps in a plain integer
// into a registry Counter: each Publish adds the increase since the
// previous one, so the per-event code never touches the Counter. Unbound
// (default-constructed) publishers do nothing.
class CounterPublisher {
 public:
  CounterPublisher() = default;
  explicit CounterPublisher(Counter* target) : target_(target) {}

  void Publish(uint64_t total) {
    if (target_ != nullptr && total != published_) {
      target_->Increment(total - published_);
      published_ = total;
    }
  }

 private:
  Counter* target_ = nullptr;
  uint64_t published_ = 0;
};

// Counts, sum and range of a set of observations: the state Histogram and
// LocalHistogram share, and the one place a value is bucketed and an
// observation (or a whole accumulator) widens the count, sum, min and max.
struct HistogramCells {
  explicit HistogramCells(size_t buckets) : counts(buckets, 0) {}

  void Observe(std::span<const double> bounds, double value) {
    const auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
    ++counts[static_cast<size_t>(it - bounds.begin())];
    Widen(1, value, value, value);
  }
  void Merge(const HistogramCells& other) {
    for (size_t i = 0; i < counts.size(); ++i) {
      counts[i] += other.counts[i];
    }
    Widen(other.count, other.sum, other.min, other.max);
  }
  void Widen(uint64_t n, double total, double lo, double hi) {
    if (count == 0) {
      min = lo;
      max = hi;
    } else {
      min = std::min(min, lo);
      max = std::max(max, hi);
    }
    count += n;
    sum += total;
  }
  void Clear() {
    std::fill(counts.begin(), counts.end(), 0);
    count = 0;
    sum = 0.0;
    min = 0.0;
    max = 0.0;
  }

  std::vector<uint64_t> counts;  // one per bound, plus the overflow bucket
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

class LocalHistogram;

// Fixed-bucket histogram: `bounds` are sorted inclusive upper bounds; an
// observation lands in the first bucket whose bound is >= the value, or in
// the overflow bucket. Tracks count/sum/min/max. Thread-safe.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);
  // Adds everything `local` observed since its last publish, under one
  // lock. Counts, min and max come out as if each value had been passed
  // to Observe; the sum adds `local`'s partial sum, so it equals the
  // sequential sum bit for bit only when this histogram was empty.
  void Merge(const LocalHistogram& local);

  uint64_t count() const;
  double sum() const;
  double min() const;  // 0 when empty
  double max() const;  // 0 when empty
  // Quantile estimate for q in [0, 1], linearly interpolated within the
  // bucket containing the target rank (Prometheus histogram_quantile
  // semantics), clamped to the observed [min, max]. 0 when empty.
  double Quantile(double q) const;
  const std::vector<double>& bounds() const { return bounds_; }
  // One count per bound, plus the trailing overflow bucket.
  std::vector<uint64_t> bucket_counts() const;

 private:
  const std::vector<double> bounds_;
  mutable std::mutex mutex_;
  HistogramCells cells_;
};

// Single-owner accumulator for one Histogram: Observe is plain arithmetic
// on plain fields, with no lock and no atomic, for a hot path that one
// thread owns. It buckets with its target's bounds; Publish merges the
// observations since the last publish into the target (Histogram::Merge)
// and starts over. An unbound (default-constructed) accumulator counts
// everything into one bucket and publishes nowhere.
class LocalHistogram {
 public:
  LocalHistogram() = default;
  explicit LocalHistogram(Histogram* target);

  void Observe(double value) { cells_.Observe(bounds_, value); }

  void Publish();

  // Observations since the last publish.
  uint64_t count() const { return cells_.count; }

 private:
  friend class Histogram;

  Histogram* target_ = nullptr;
  std::span<const double> bounds_;
  HistogramCells cells_ = HistogramCells(1);
};

// Bucket-boundary helpers for the common shapes.
struct HistogramBuckets {
  // {start, start*factor, ...}, `count` bounds.
  static std::vector<double> Exponential(double start, double factor,
                                         int count);
  // {start, start+step, ...}, `count` bounds.
  static std::vector<double> Linear(double start, double step, int count);
  // 20 power-of-two microsecond-scale bounds: 1us .. ~0.5s.
  static std::vector<double> DefaultTime();
  // 22 power-of-four byte-scale bounds: 64B .. ~256GB.
  static std::vector<double> DefaultBytes();
};

// Named metric registry. Registration returns references that stay valid
// for the registry's lifetime, so hot paths can cache them and skip the
// name lookup. All methods are thread-safe.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  // The first registration of `name` fixes the bucket bounds; later calls
  // ignore `bounds`. Empty bounds select DefaultTime().
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = {});

  // Point reads; 0 when the metric does not exist.
  uint64_t counter_value(const std::string& name) const;
  double gauge_value(const std::string& name) const;
  uint64_t histogram_count(const std::string& name) const;

  // {"counters":{...},"gauges":{...},"histograms":{...}} with names in
  // sorted order; deterministic for fixed metric values. Histogram blocks
  // carry interpolated "p50"/"p95"/"p99" quantiles. Non-finite gauges are
  // exported as 0, but not silently: each occurrence bumps the synthetic
  // "metrics.nonfinite_gauges" counter (serialized alongside the real
  // counters) and the first occurrence per name logs a warning.
  std::string ToJson() const;
  Status WriteJson(const std::string& path) const;

  // Process-wide default instance (components not wired to an explicit
  // registry record here).
  static MetricsRegistry& Default();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  // Non-finite gauge accounting (see ToJson): occurrence counter plus the
  // names already warned about, so the log stays one line per gauge.
  mutable Counter nonfinite_gauges_;
  mutable std::set<std::string> warned_nonfinite_;
};

// ---------------------------------------------------------------------------
// Unified tracing
// ---------------------------------------------------------------------------

// Well-known trace lanes. Lanes 0..9 are reserved for GPU task kinds (the
// GpuTaskKind enum values); network and coordinator rows sit above them.
inline constexpr int kTraceLaneNetUplink = 10;
inline constexpr int kTraceLaneNetDownlink = 11;
inline constexpr int kTraceLaneCoordinator = 12;
// Reliable-transport retries/backoff waits and trainer-level recovery
// windows (fault injection, src/net/reliable_channel.h).
inline constexpr int kTraceLaneRetry = 13;
inline constexpr int kTraceLaneRecovery = 14;
// Pool-miss markers from src/common/buffer_pool.h: each fresh allocation
// the BufferPool could not serve from a free list (warm-up bursts should
// be the only activity on this row).
inline constexpr int kTraceLaneMemAlloc = 15;
// The measured iteration's critical path (src/casync/critical_path.h):
// one highlighted "cp:<category>" span per chain element on its executing
// node, plus the leading "cp:compute" gate.
inline constexpr int kTraceLaneCriticalPath = 16;
// Adaptive-controller decisions (src/casync/adaptive.h): one span per
// iteration boundary where the controller re-planned, named
// "adaptive:<codec>" (docs/ADAPTIVE.md).
inline constexpr int kTraceLaneAdaptive = 17;
// Elastic-membership transitions (src/net/membership.h): drain windows for
// planned leaves, donor re-sync transfers for joins/rejoins, and crash
// evictions, one span per epoch change (docs/FAULT_TOLERANCE.md).
inline constexpr int kTraceLaneMembership = 18;
// Fat-tree fabric hops (src/net/topology.h): ToR uplink/downlink segments
// of a cross-rack route, charged to the sending/receiving node's track
// (docs/TOPOLOGY.md).
inline constexpr int kTraceLaneNetFabric = 19;
// Per-iteration endpoint busy summaries from the trainer: one "tx busy" and
// one "rx busy" span over the measured window, so transmit- and
// receive-side serialization load chart side by side.
inline constexpr int kTraceLaneLinkBusy = 20;
// Flight-recorder events (src/common/flight_recorder.h): instant markers
// decoded from a black-box dump by tools/flight_decode.py --perfetto, one
// per ring record on the owning node's track (docs/OBSERVABILITY.md).
inline constexpr int kTraceLaneFlight = 21;

// Human-readable row name for a lane ("net:uplink", "coordinator", ...);
// lanes 0..9 are resolved by the exporter against GpuTaskKindName.
const char* TraceLaneName(int lane);

struct TraceSpan {
  int node = 0;  // track (Perfetto pid)
  int lane = 0;  // row within the track (Perfetto tid)
  std::string name;
  SimTime start = 0;
  SimTime end = 0;
};

// Append-only span log. The simulator is single-threaded, but DistTrainer
// and tests may record from worker threads, so appends are mutex-guarded.
class SpanCollector {
 public:
  void Add(int node, int lane, std::string name, SimTime start, SimTime end);

  // Snapshot of the recorded spans, in insertion order.
  std::vector<TraceSpan> spans() const;
  size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::vector<TraceSpan> spans_;
};

}  // namespace hipress

#endif  // HIPRESS_SRC_COMMON_METRICS_H_
