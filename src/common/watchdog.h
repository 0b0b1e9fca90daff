// Rule-driven cluster health watchdog.
//
// HealthMonitor evaluates declarative rules over the TimeSeriesHub's
// windows at iteration boundaries: an iteration-progress stall (newest
// iteration time far above the rolling median), a send-bandwidth collapse
// (measured gbps far below its rolling median), a retry storm, steady-state
// buffer-pool miss growth, and scheduler queue-depth blowup. A rule trips
// after kTripAfter (2) consecutive violating evaluations and clears after
// kClearAfter (2) healthy ones (watchdog.cc) — hysteresis so a single
// straggler iteration does not page. Trips emit flight-recorder events,
// bump health.* metrics, optionally trigger a black-box dump, and
// accumulate into the HealthReport that TrainReport/ClusterRunReport carry
// and `train_cluster` summarizes (non-zero exit with --health-exit when a
// rule is still tripped at the end). Evaluation is driven purely by sim
// time and the deterministic series, so trips replay bit-identically for
// a fixed seed.
#ifndef HIPRESS_SRC_COMMON_WATCHDOG_H_
#define HIPRESS_SRC_COMMON_WATCHDOG_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/timeseries.h"
#include "src/common/units.h"

namespace hipress {

class FlightRecorder;
class MetricsRegistry;

// Run-level observability knobs shared by SimulateTraining and
// RunClusterJobs. The black box and the watchdog are on by default —
// bench_observability gates their combined overhead at <= 3% wall — and
// off only for the recorder-off arm of that A/B.
struct ObservabilityOptions {
  bool flight_recorder = true;
  // Dump destination for TriggerDump (fatal path, retry-budget exhaustion,
  // watchdog trips, end-of-run). train_cluster --flight-record=FILE.
  // Empty: record to the rings but never write a file.
  std::string flight_dump_path;
  bool watchdog = true;
};

enum class HealthRuleKind {
  // Newest window mean > threshold * rolling median of prior windows.
  kAboveMedianFactor,
  // Newest window mean < threshold * rolling median of prior windows.
  kBelowMedianFraction,
  // Newest window mean > threshold (absolute bound).
  kAboveValue,
};

struct HealthRule {
  std::string name;    // "stall", "bw_collapse", ...
  std::string series;  // TimeSeriesHub series the rule watches
  HealthRuleKind kind = HealthRuleKind::kAboveValue;
  double threshold = 0.0;  // factor / fraction / absolute bound
  // Median-relative rules arm only once this many prior windows carry
  // samples, so warm-up cannot trip them.
  size_t min_history = 3;
};

// One trip episode: [tripped_at, cleared_at), cleared_at < 0 while open.
struct HealthTrip {
  std::string rule;
  SimTime tripped_at = 0;
  SimTime cleared_at = -1;
  double observed = 0.0;  // newest-window value at trip time
  double bound = 0.0;     // the violated bound at trip time
};

struct HealthReport {
  bool enabled = false;
  uint64_t evaluations = 0;
  std::vector<HealthTrip> trips;
  // Rules still tripped when the run ended (train_cluster --health-exit
  // turns a non-empty list into a non-zero exit).
  std::vector<std::string> tripped_at_end;

  bool healthy() const { return tripped_at_end.empty(); }
  std::string Summary() const;
};

class HealthMonitor {
 public:
  HealthMonitor(TimeSeriesHub* hub, MetricsRegistry* metrics,
                FlightRecorder* recorder);

  void AddRule(HealthRule rule);
  // The standard trainer rule set over the series the trainer feeds:
  // stall (train.iteration_ms), bw_collapse (net.send_gbps), retry_storm
  // (net.retries delta), pool_miss_growth (net.pool_misses delta past
  // warm-up).
  static std::vector<HealthRule> DefaultTrainerRules();

  // Invoked once per trip, after the recorder event and metrics; the
  // trainer hooks the flight-recorder dump here.
  void set_on_trip(std::function<void(const HealthRule&)> on_trip) {
    on_trip_ = std::move(on_trip);
  }

  // Evaluates every rule against its series' newest window.
  void Evaluate(SimTime now);

  bool any_tripped() const;
  // Closes the report (records still-tripped rules) and returns it.
  HealthReport Finalize();
  const std::vector<HealthTrip>& trips() const { return report_.trips; }
  uint64_t evaluations() const { return report_.evaluations; }

 private:
  struct RuleState {
    HealthRule rule;
    uint16_t trip_event = 0;
    uint16_t clear_event = 0;
    int violation_streak = 0;
    int healthy_streak = 0;
    bool tripped = false;
    int open_trip = -1;  // index into report_.trips while tripped
  };

  // True when the rule's bound is violated; fills *observed / *bound.
  bool Violated(const RuleState& state, double* observed, double* bound) const;

  TimeSeriesHub* hub_;
  MetricsRegistry* metrics_;
  FlightRecorder* recorder_;
  std::vector<RuleState> rules_;
  std::function<void(const HealthRule&)> on_trip_;
  HealthReport report_;
};

}  // namespace hipress

#endif  // HIPRESS_SRC_COMMON_WATCHDOG_H_
