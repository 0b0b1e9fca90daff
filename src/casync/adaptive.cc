#include "src/casync/adaptive.h"

#include <algorithm>
#include <limits>

#include "src/common/logging.h"
#include "src/common/string_util.h"

namespace hipress {
namespace {

// Watermarks on the send share of the iteration's critical path. The gap
// between them is the first hysteresis band: tightening arms above
// kSendShareHigh, relaxing arms below kSendShareLow, and the region in
// between never triggers.
constexpr double kSendShareHigh = 0.45;
constexpr double kSendShareLow = 0.15;
// Consecutive iterations a watermark must stay breached before the
// controller acts (absorbs one-iteration noise spikes).
constexpr int kTriggerIterations = 2;
// Iterations after any decision during which no new decision arms.
constexpr int kCooldownIterations = 2;
// Minimum relative distance between the observed bandwidth and the
// bandwidth the active plan was priced with; re-planning on smaller drift
// would churn plans for sub-noise gains.
constexpr double kMinBandwidthChange = 0.2;
// Send samples required in the iteration window before the bandwidth
// estimate is trusted (an almost-empty window fits garbage).
constexpr uint64_t kMinSendSamples = 4;
// Floor on the bandwidth estimate, as a fraction of the configured link
// bandwidth (guards the planner against degenerate early fits).
constexpr double kMinBandwidthFraction = 0.02;

}  // namespace

AdaptiveController::AdaptiveController(
    const SyncConfig& config, const AdaptiveOptions& options,
    std::vector<uint64_t> unit_bytes, std::vector<AdaptiveCodecOption> codecs)
    : config_(config),
      unit_bytes_(std::move(unit_bytes)),
      codecs_(std::move(codecs)) {
  CHECK(config_.compression && config_.secopa)
      << "adaptive re-planning drives the SeCoPa cutoffs; it requires "
         "compression with SeCoPa enabled";
  CHECK(!codecs_.empty()) << "need at least the configured codec";
  CHECK(!unit_bytes_.empty()) << "nothing to plan";
  // Price against the real path: under an oversubscribed fat tree the
  // fair-share fabric bandwidth, not the NIC rate, bounds steady traffic.
  nominal_bps_ = config_.net.effective_bandwidth().bytes_per_second();
  estimate_bps_ = nominal_bps_;
  // The initial plan is exactly the fixed plan: rung 0 priced at the
  // configured link bandwidth.
  Replan(0, nominal_bps_);
}

int AdaptiveController::Replan(size_t codec, double bytes_per_second) {
  const AdaptiveCodecOption& option = codecs_[codec];
  const SeCoPaPlanner planner =
      SeCoPaPlanner(config_, option.rate, option.speed)
          .WithBandwidth(Bandwidth{bytes_per_second * 8.0});
  int changed = 0;
  plans_.resize(unit_bytes_.size());
  for (size_t i = 0; i < unit_bytes_.size(); ++i) {
    const SyncPlan plan = planner.Plan(unit_bytes_[i]);
    GradientSync sync;
    sync.id = static_cast<uint32_t>(i);
    sync.bytes = unit_bytes_[i];
    sync.compress = plan.compress;
    sync.partitions = plan.partitions;
    sync.rate = option.rate;
    GradientSync& active = plans_[i];
    if (active.bytes != sync.bytes || active.compress != sync.compress ||
        active.partitions != sync.partitions || active.rate != sync.rate) {
      active = sync;
      ++changed;
    }
    active.id = sync.id;
  }
  active_codec_ = codec;
  planned_bps_ = bytes_per_second;
  planned_gbps_ = bytes_per_second * 8.0 / 1e9;
  return changed;
}

bool AdaptiveController::OnMembershipChange(int num_nodes) {
  CHECK_GT(num_nodes, 0);
  if (num_nodes == config_.num_nodes) {
    return false;
  }
  config_.num_nodes = num_nodes;
  // Re-price every unit over the new view with the active codec at the
  // bandwidth the current plan was built with: the SeCoPa cost terms and
  // the 2N partition cap changed underneath the plan, so the old plan is
  // stale regardless of performance signals.
  Replan(active_codec_, planned_bps_);
  // Streaks were evidence about the old membership; a running cooldown
  // stays — this was not a performance decision.
  tighten_streak_ = 0;
  relax_streak_ = 0;
  return true;
}

SimTime AdaptiveController::TotalPlannedCost(
    const SeCoPaPlanner& planner) const {
  SimTime total = 0;
  for (const uint64_t bytes : unit_bytes_) {
    const SyncPlan plan = planner.Plan(bytes);
    total += plan.compress ? plan.t_compressed : plan.t_plain;
  }
  return total;
}

AdaptiveDecision AdaptiveController::Observe(int iteration,
                                             const CpAttribution& attribution,
                                             const CostModelAuditor& auditor) {
  AdaptiveDecision decision;
  decision.iteration = iteration;
  decision.send_share = attribution.Share(CpCategory::kSend);

  // Windowed effective-bandwidth estimate over the send samples recorded
  // since the previous Observe: prefer the least-squares slope (immune to
  // per-message overheads), fall back to aggregate bytes/second when the
  // window's byte sizes are degenerate, and keep the previous estimate
  // when the window is too thin to trust.
  const CostSampleStats snapshot = auditor.Snapshot(CostPrimitive::kSend);
  const CostSampleStats window = snapshot.Since(last_send_snapshot_);
  last_send_snapshot_ = snapshot;
  if (window.count >= kMinSendSamples) {
    KernelCost fitted;
    double estimate = window.Fit(&fitted) ? fitted.bytes_per_second
                                          : window.MeanThroughput();
    if (estimate > 0) {
      estimate_bps_ =
          std::clamp(estimate, kMinBandwidthFraction * nominal_bps_,
                     nominal_bps_);
    }
  }
  decision.observed_gbps = estimate_bps_ * 8.0 / 1e9;

  // Hysteresis: both the share watermark and the bandwidth delta must
  // agree, in the same direction, for kTriggerIterations in a row.
  const bool wire_slow =
      estimate_bps_ <= planned_bps_ * (1.0 - kMinBandwidthChange);
  const bool wire_fast =
      estimate_bps_ >= planned_bps_ * (1.0 + kMinBandwidthChange);
  tighten_streak_ = (decision.send_share >= kSendShareHigh && wire_slow)
                        ? tighten_streak_ + 1
                        : 0;
  relax_streak_ = (decision.send_share <= kSendShareLow && wire_fast)
                      ? relax_streak_ + 1
                      : 0;

  if (cooldown_left_ > 0) {
    --cooldown_left_;
    decision.reason = "cooldown";
  } else if (tighten_streak_ >= kTriggerIterations ||
             relax_streak_ >= kTriggerIterations) {
    const bool tighten = tighten_streak_ >= kTriggerIterations;
    const double target_bps = estimate_bps_;
    // Reprice the whole ladder at the observed bandwidth and take the
    // cheapest rung; ties keep the lower index (deterministic).
    size_t best = active_codec_;
    SimTime best_cost = std::numeric_limits<SimTime>::max();
    for (size_t c = 0; c < codecs_.size(); ++c) {
      const SeCoPaPlanner planner =
          SeCoPaPlanner(config_, codecs_[c].rate, codecs_[c].speed)
              .WithBandwidth(Bandwidth{target_bps * 8.0});
      const SimTime cost = TotalPlannedCost(planner);
      if (cost < best_cost) {
        best = c;
        best_cost = cost;
      }
    }
    decision.codec_switched = best != active_codec_;
    decision.replanned_units = Replan(best, target_bps);
    decision.replanned =
        decision.codec_switched || decision.replanned_units > 0;
    decision.reason = StrFormat(
        "%s: send_share=%.4f observed=%.3fGbps streak=%d",
        tighten ? "tighten" : "relax", decision.send_share,
        decision.observed_gbps, tighten ? tighten_streak_ : relax_streak_);
    // Every trigger starts a cooldown — including no-op re-pricings, so a
    // boundary-riding signal cannot re-evaluate the ladder every iteration.
    cooldown_left_ = kCooldownIterations;
    tighten_streak_ = 0;
    relax_streak_ = 0;
    if (decision.replanned) {
      ++replans_;
    }
    if (decision.codec_switched) {
      ++codec_switches_;
    }
  } else {
    decision.reason = "hold";
  }

  decision.algorithm = codecs_[active_codec_].algorithm;
  decision.planned_gbps = planned_gbps_;
  decision.compressed_units = 0;
  for (const GradientSync& plan : plans_) {
    if (plan.compress) {
      ++decision.compressed_units;
    }
  }
  decisions_.push_back(decision);
  return decision;
}

std::string AdaptiveController::DecisionLog() const {
  std::string log;
  for (const AdaptiveDecision& d : decisions_) {
    log += StrFormat(
        "iter=%d codec=%s send_share=%.4f observed_gbps=%.3f "
        "planned_gbps=%.3f replanned=%d switched=%d changed=%d "
        "compressed=%d reason=%s\n",
        d.iteration, d.algorithm.c_str(), d.send_share, d.observed_gbps,
        d.planned_gbps, d.replanned ? 1 : 0, d.codec_switched ? 1 : 0,
        d.replanned_units, d.compressed_units, d.reason.c_str());
  }
  return log;
}

AdaptiveReport AdaptiveController::Report() const {
  AdaptiveReport report;
  report.enabled = true;
  report.replans = replans_;
  report.codec_switches = codec_switches_;
  report.final_algorithm = codecs_[active_codec_].algorithm;
  report.decisions = decisions_;
  report.decision_log = DecisionLog();
  return report;
}

}  // namespace hipress
