#include "src/common/watchdog.h"

#include <algorithm>

#include "src/common/flight_recorder.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/string_util.h"

namespace hipress {
namespace {

// Hysteresis shared by every rule: consecutive violating evaluations
// before a rule trips, and consecutive healthy ones before it clears.
constexpr int kTripAfter = 2;
constexpr int kClearAfter = 2;

}  // namespace

std::string HealthReport::Summary() const {
  if (!enabled) {
    return "health: off";
  }
  std::string out = StrFormat("health: %zu rule trip(s) over %llu checks",
                              trips.size(),
                              static_cast<unsigned long long>(evaluations));
  if (tripped_at_end.empty()) {
    out += ", all clear";
    return out;
  }
  out += ", STILL TRIPPED:";
  for (const std::string& rule : tripped_at_end) {
    out += " " + rule;
  }
  return out;
}

HealthMonitor::HealthMonitor(TimeSeriesHub* hub, MetricsRegistry* metrics,
                             FlightRecorder* recorder)
    : hub_(hub), metrics_(metrics), recorder_(recorder) {
  CHECK(hub_ != nullptr);
  report_.enabled = true;
}

void HealthMonitor::AddRule(HealthRule rule) {
  RuleState state;
  state.rule = std::move(rule);
  if (recorder_ != nullptr) {
    state.trip_event = recorder_->Intern("health.trip:" + state.rule.name);
    state.clear_event = recorder_->Intern("health.clear:" + state.rule.name);
  }
  if (metrics_ != nullptr) {
    metrics_->gauge("health." + state.rule.name).Set(0.0);
  }
  rules_.push_back(std::move(state));
}

std::vector<HealthRule> HealthMonitor::DefaultTrainerRules() {
  std::vector<HealthRule> rules;
  // Iteration-progress stall: the newest iteration took 3x the rolling
  // median — a straggler, a retry stall or a scheduler pathology.
  rules.push_back(HealthRule{"stall", "train.iteration_ms",
                             HealthRuleKind::kAboveMedianFactor, 3.0, 3});
  // Send-bandwidth collapse: measured send throughput fell below 40% of
  // its rolling median (link degradation, retry storms eating the wire).
  rules.push_back(HealthRule{"bw_collapse", "net.send_gbps",
                             HealthRuleKind::kBelowMedianFraction, 0.4, 3});
  // Retry storm: more than 64 transport retries within one iteration.
  rules.push_back(HealthRule{"retry_storm", "net.retries",
                             HealthRuleKind::kAboveValue, 64.0, 0});
  // Steady-state pool-miss growth: the wire pool must stop allocating once
  // warm (min_history skips the warm-up iterations).
  rules.push_back(HealthRule{"pool_miss_growth", "net.pool_misses",
                             HealthRuleKind::kAboveValue, 0.0, 3});
  return rules;
}

bool HealthMonitor::Violated(const RuleState& state, double* observed,
                             double* bound) const {
  const WindowedSeries* series = hub_->Find(state.rule.series);
  if (series == nullptr || series->size() == 0) {
    return false;
  }
  const std::vector<SeriesWindow> windows = series->Windows();
  const SeriesWindow& newest = windows.back();
  if (newest.count == 0) {
    return false;
  }
  *observed = newest.mean();
  // Arm only once `min_history` prior windows carry samples: warm-up must
  // not trip steady-state rules, and the rolling median is meaningless
  // before it has history.
  size_t prior = 0;
  for (size_t i = 0; i + 1 < windows.size(); ++i) {
    prior += windows[i].count > 0 ? 1 : 0;
  }
  if (prior < state.rule.min_history) {
    return false;
  }
  switch (state.rule.kind) {
    case HealthRuleKind::kAboveValue:
      *bound = state.rule.threshold;
      return *observed > *bound;
    case HealthRuleKind::kAboveMedianFactor:
    case HealthRuleKind::kBelowMedianFraction: {
      const double median = series->RollingMedianBefore(16);
      *bound = state.rule.threshold * median;
      if (median <= 0.0) {
        return false;
      }
      return state.rule.kind == HealthRuleKind::kAboveMedianFactor
                 ? *observed > *bound
                 : *observed < *bound;
    }
  }
  return false;
}

void HealthMonitor::Evaluate(SimTime now) {
  ++report_.evaluations;
  for (RuleState& state : rules_) {
    double observed = 0.0;
    double bound = 0.0;
    const bool violated = Violated(state, &observed, &bound);
    if (violated) {
      ++state.violation_streak;
      state.healthy_streak = 0;
    } else {
      ++state.healthy_streak;
      state.violation_streak = 0;
    }
    if (!state.tripped && state.violation_streak >= kTripAfter) {
      state.tripped = true;
      state.open_trip = static_cast<int>(report_.trips.size());
      report_.trips.push_back(
          HealthTrip{state.rule.name, now, -1, observed, bound});
      if (metrics_ != nullptr) {
        metrics_->gauge("health." + state.rule.name).Set(1.0);
        metrics_->counter("health.trips").Increment();
      }
      if (recorder_ != nullptr) {
        recorder_->Record(0, state.trip_event, now,
                          static_cast<uint64_t>(observed * 1000.0),
                          static_cast<uint64_t>(std::max(0.0, bound) *
                                                1000.0));
      }
      LOG(Warning) << "watchdog: rule '" << state.rule.name
                   << "' tripped at t=" << ToMillis(now) << "ms (observed "
                   << observed << ", bound " << bound << ")";
      if (on_trip_) {
        on_trip_(state.rule);
      }
    } else if (state.tripped &&
               state.healthy_streak >= kClearAfter) {
      state.tripped = false;
      report_.trips[state.open_trip].cleared_at = now;
      state.open_trip = -1;
      if (metrics_ != nullptr) {
        metrics_->gauge("health." + state.rule.name).Set(0.0);
      }
      if (recorder_ != nullptr) {
        recorder_->Record(0, state.clear_event, now);
      }
      LOG(Info) << "watchdog: rule '" << state.rule.name << "' cleared at t="
                << ToMillis(now) << "ms";
    }
  }
}

bool HealthMonitor::any_tripped() const {
  return std::any_of(rules_.begin(), rules_.end(),
                     [](const RuleState& state) { return state.tripped; });
}

HealthReport HealthMonitor::Finalize() {
  report_.tripped_at_end.clear();
  for (const RuleState& state : rules_) {
    if (state.tripped) {
      report_.tripped_at_end.push_back(state.rule.name);
    }
  }
  if (metrics_ != nullptr) {
    metrics_->gauge("health.rules").Set(static_cast<double>(rules_.size()));
    metrics_->gauge("health.tripped_at_end")
        .Set(static_cast<double>(report_.tripped_at_end.size()));
  }
  return report_;
}

}  // namespace hipress
