// Runtime-adaptive compression controller (docs/ADAPTIVE.md).
//
// The paper fixes codec and selective-compression choices at plan time
// (Section 3.3); GraVAC and CGX (PAPERS.md) show that trading compression
// gain against compression cost *during* training recovers throughput when
// the bottleneck moves. This controller closes that loop over signals the
// repository already measures:
//
//  * per-primitive critical-path attribution — cp.share.send spiking says
//    the wire, not the kernels, bounds the iteration
//    (src/casync/critical_path.h);
//  * the cost-model auditor's send samples — a windowed least-squares fit
//    over the latest iteration's (bytes, ready-to-delivery) pairs estimates
//    the *effective* link bandwidth, which collapses during the
//    link-degradation windows the fault layer injects
//    (src/common/profiler.h, src/net/fault.h).
//
// When both agree the wire degraded (send share above the high watermark
// AND the bandwidth estimate well below what the active plan was priced
// with) for kTriggerIterations consecutive iterations, the controller
// re-plans: every gradient is repriced through the SeCoPaPlanner re-plan
// path (WithBandwidth/WithCodec) at the observed bandwidth, across a
// candidate codec ladder — switching codec, compression ratio and the
// selective-compression cutoff per gradient in one decision. The reverse
// watermark relaxes the plan when bandwidth recovers. Hysteresis (distinct
// high/low watermarks, consecutive-iteration trigger streaks, a cooldown
// after every decision, and a minimum bandwidth delta) prevents codec
// flapping across a noisy degradation boundary.
//
// Decisions are a pure function of the observed inputs — no wall-clock or
// unseeded randomness — so a replay with the same seed and fault spec
// yields a bit-identical decision sequence (DecisionLog; gated by
// tests/adaptive_test.cc and bench/bench_adaptive.cc). Plans swap only at
// iteration boundaries: the trainer rebuilds task graphs from the
// refreshed GradientSync plans and the engine repoints its kernel-cost
// lines (CaSyncEngine::ApplyCodec) while no graph is in flight, so pooled
// wire buffers and batch frames already handed to the network are never
// touched.
#ifndef HIPRESS_SRC_CASYNC_ADAPTIVE_H_
#define HIPRESS_SRC_CASYNC_ADAPTIVE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/casync/builder.h"
#include "src/casync/config.h"
#include "src/casync/critical_path.h"
#include "src/casync/secopa.h"
#include "src/common/profiler.h"

namespace hipress {

// One rung of the candidate codec ladder. `rate` and `speed` are the same
// inputs the SeCoPa planner prices the static plan with, so candidate
// comparison is apples-to-apples with plan-time selection.
struct AdaptiveCodecOption {
  std::string algorithm;
  CodecImpl impl = CodecImpl::kCompLL;
  double rate = 1.0;  // compressed/original bytes
  CodecSpeed speed;   // T_enc / T_dec lines
};

struct AdaptiveOptions {
  bool enabled = false;
  // Additional codec-ladder rungs by registry name (the configured codec
  // is always rung 0). Resolved by the trainer; unknown names error.
  std::vector<std::string> candidate_algorithms;
};

// One iteration-boundary decision. Every Observe() call produces one (most
// with replanned == false), so the decision log lines up 1:1 with
// iterations on replay.
struct AdaptiveDecision {
  int iteration = 0;
  bool replanned = false;       // plans were refreshed this boundary
  bool codec_switched = false;  // the active ladder rung changed
  std::string algorithm;        // active codec after this boundary
  double send_share = 0.0;      // cp.share.send input
  double observed_gbps = 0.0;   // windowed effective-bandwidth estimate
  double planned_gbps = 0.0;    // bandwidth the active plan prices
  int compressed_units = 0;     // gradients compressed under the plan
  int replanned_units = 0;      // gradients whose <compress?, K> changed
  std::string reason;           // deterministic, human-readable
};

// Whole-run summary carried on the TrainReport.
struct AdaptiveReport {
  bool enabled = false;
  int replans = 0;
  int codec_switches = 0;
  std::string final_algorithm;
  std::vector<AdaptiveDecision> decisions;
  // One line per decision, fixed formatting — the replay artifact two runs
  // of the same configuration must reproduce byte-for-byte.
  std::string decision_log;
};

class AdaptiveController {
 public:
  // `config` must have compression + SeCoPa enabled (the controller's
  // levers are the SeCoPa cutoffs). `unit_bytes` lists the sync units in
  // launch order; `codecs` is the candidate ladder, rung 0 the configured
  // codec the initial plan uses. The controller reads nothing from
  // `options`: the caller resolves `enabled` and the ladder.
  AdaptiveController(const SyncConfig& config, const AdaptiveOptions& options,
                     std::vector<uint64_t> unit_bytes,
                     std::vector<AdaptiveCodecOption> codecs);

  // Per-unit <compress?, K, rate> plans under the active codec and
  // bandwidth estimate. Index-aligned with `unit_bytes`; refreshed by a
  // replanning Observe().
  const std::vector<GradientSync>& plans() const { return plans_; }
  const AdaptiveCodecOption& active_codec() const {
    return codecs_[active_codec_];
  }
  double planned_gbps() const { return planned_gbps_; }

  // Membership change at an iteration boundary: re-prices every unit's
  // plan over the new view size (SeCoPa's alpha/beta/gamma terms and the
  // 2N partition cap all depend on it), keeping the active codec and
  // bandwidth estimate. Clears the tighten/relax streaks — attributions
  // observed over the old membership are not evidence about the new one —
  // but deliberately leaves any cooldown running: membership is a
  // correctness event, not a performance trigger, and must not reopen the
  // decision window early (the cooldown-crash regression in
  // tests/adaptive_test.cc). Returns true when the view size changed and
  // plans were rebuilt.
  bool OnMembershipChange(int num_nodes);

  // Feed iteration `iteration`'s critical-path attribution and the
  // engine's auditor (whose send statistics the controller snapshots for
  // the window estimate). When the returned decision has replanned set,
  // the caller applies plans() to the next iteration's graphs — and, if
  // codec_switched, repoints the engine via ApplyCodec — before building
  // the next iteration's task graphs.
  AdaptiveDecision Observe(int iteration, const CpAttribution& attribution,
                           const CostModelAuditor& auditor);

  const std::vector<AdaptiveDecision>& decisions() const {
    return decisions_;
  }
  int replans() const { return replans_; }
  int codec_switches() const { return codec_switches_; }

  // Deterministic one-line-per-decision serialization (see
  // AdaptiveReport::decision_log).
  std::string DecisionLog() const;

  // The summary the trainer copies onto the TrainReport.
  AdaptiveReport Report() const;

 private:
  // Replaces plans_ by repricing every unit with `codec` at
  // `bytes_per_second`; returns the number of units whose plan changed.
  int Replan(size_t codec, double bytes_per_second);
  // Total planned sync cost of all units under a candidate, at the
  // planner's current bandwidth.
  SimTime TotalPlannedCost(const SeCoPaPlanner& planner) const;

  SyncConfig config_;
  std::vector<uint64_t> unit_bytes_;
  std::vector<AdaptiveCodecOption> codecs_;
  size_t active_codec_ = 0;
  std::vector<GradientSync> plans_;
  double nominal_bps_ = 0.0;  // configured link bandwidth
  double planned_bps_ = 0.0;  // bandwidth the active plan was priced with
  double planned_gbps_ = 0.0;
  double estimate_bps_ = 0.0;  // latest trusted window estimate
  CostSampleStats last_send_snapshot_;
  int tighten_streak_ = 0;
  int relax_streak_ = 0;
  int cooldown_left_ = 0;
  int replans_ = 0;
  int codec_switches_ = 0;
  std::vector<AdaptiveDecision> decisions_;
};

}  // namespace hipress

#endif  // HIPRESS_SRC_CASYNC_ADAPTIVE_H_
