// Deterministic fault injection for the simulated cluster network.
//
// Three fault classes, all derived from seeded hashes or fixed schedules so
// a run is bit-reproducible (no wall-clock randomness):
//
//  * per-message drops — each transfer is dropped with probability
//    `drop_prob`, decided by a SplitMix64 hash of (seed, message ordinal);
//  * link degradation windows — a chosen link (or wildcard endpoint) loses
//    bandwidth during [start, end), modelling congested or flapping links;
//  * scheduled node crashes — from time `at` the node neither sends nor
//    receives; messages touching it are blackholed.
//
// The network applies these at Send/delivery time; recovery (retries,
// backoff, peer-failure reporting) lives one layer up in ReliableChannel.
#ifndef HIPRESS_SRC_NET_FAULT_H_
#define HIPRESS_SRC_NET_FAULT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"

namespace hipress {

// Bandwidth cut on a link during [start, end). src/dst of -1 match any
// endpoint, so {-1, 3} degrades every transfer into node 3.
struct LinkDegradation {
  int src = -1;
  int dst = -1;
  SimTime start = 0;
  SimTime end = 0;
  // Remaining bandwidth fraction in (0, 1]; 0.25 = link at quarter speed.
  double bandwidth_factor = 1.0;
};

// Node `node` fails at time `at`. Without a matching kRejoin membership
// event the failure is fail-stop; with one, the node is dead during
// [at, rejoin.at) and may be re-admitted by the trainer's membership
// layer (docs/FAULT_TOLERANCE.md).
struct NodeCrash {
  int node = -1;
  SimTime at = 0;
};

// Scheduled membership transitions, applied by the trainer at the first
// iteration boundary at or after `at` (the network only consults kRejoin,
// which reopens a crashed node's liveness window).
enum class MembershipEventKind {
  kJoin,    // a standby node is admitted to the worker set
  kLeave,   // a member drains its in-flight work and exits cleanly
  kRejoin,  // a previously crashed node comes back and re-syncs state
};

struct MembershipEvent {
  MembershipEventKind kind = MembershipEventKind::kJoin;
  int node = -1;
  SimTime at = 0;
};

const char* MembershipEventKindName(MembershipEventKind kind);

struct FaultConfig {
  // Per-message drop probability in [0, 1).
  double drop_prob = 0.0;
  // Seed for the drop schedule; same seed => bit-identical schedule.
  uint64_t seed = 0x5eedf001;
  std::vector<LinkDegradation> degradations;
  std::vector<NodeCrash> crashes;
  // Elastic-membership schedule: planned joins/leaves and crash rejoins.
  std::vector<MembershipEvent> membership;
  // Nodes that start outside the worker set and only participate once a
  // kJoin event admits them.
  std::vector<int> standby_nodes;

  bool any() const {
    return drop_prob > 0.0 || !degradations.empty() || !crashes.empty() ||
           !membership.empty() || !standby_nodes.empty();
  }

  // Crash time for `node`, or -1 when it never crashes.
  SimTime CrashTime(int node) const;

  // Interval-based liveness: false while `node` sits inside a crash window
  // [crash.at, rejoin.at) that no kRejoin event has closed by `when`.
  // Standby nodes count as alive — they are silent, not dead.
  bool AliveAt(int node, SimTime when) const;

  // Smallest remaining-bandwidth factor over the windows matching
  // (src, dst) at time `when`; 1.0 when no window matches.
  double DegradationFactor(int src, int dst, SimTime when) const;
};

// Deterministic uniform double in [0, 1) from (seed, ordinal): the
// SplitMix64 finalizer, the same generator the network's bandwidth jitter
// uses. Order-independent — message k's fate does not depend on k-1.
double FaultUniform(uint64_t seed, uint64_t ordinal);

// Parses a fault spec of comma-separated clauses:
//   drop=P            per-message drop probability
//   seed=S            drop-schedule seed
//   crash=N@MS        node N crashes at MS milliseconds
//   degrade=A-B@T0-T1@F   link A->B at factor F during [T0, T1) ms
//                         (A or B may be '*' for any endpoint)
//   join=N@MS         standby node N joins the worker set at MS ms
//   leave=N@MS        member N drains and leaves at MS ms
//   rejoin=N@MS       crashed node N rejoins (re-syncs state) at MS ms
//   standby=N         node N starts outside the worker set
// e.g. "drop=0.01,seed=7,crash=3@40,rejoin=3@120,standby=5,join=5@60".
StatusOr<FaultConfig> ParseFaultSpec(const std::string& spec);

// Deterministic chaos-soak schedule generator (bench_membership,
// train_cluster --chaos). Emits a FaultConfig whose crash/join/leave/
// rejoin/degradation events interleave over the run, derived purely from
// `seed` so two runs with the same options are bit-identical.
struct ChaosOptions {
  uint64_t seed = 1;
  int num_nodes = 8;     // total nodes, including standby
  int num_standby = 1;   // nodes held out of the initial worker set
  int events = 6;        // membership/degradation events to schedule
  double first_event_ms = 40.0;
  double spacing_ms = 60.0;  // nominal gap between events (jittered)
  double drop_prob = 0.0;    // optional background loss
};

// Static feasibility walk over the crash + membership schedule of a
// `num_nodes` cluster: standby nodes in range and listed once, joins only
// admit non-members (never a crashed node), leaves only remove members,
// rejoins need a prior crash, and the view never empties. Detection timing
// is dynamic, but the node sets are decidable up front. Returns
// InvalidArgumentError naming the first violation.
Status ValidateFaultSchedule(const FaultConfig& faults, int num_nodes);

// The generated schedule always keeps at least two live members, pairs
// every crash with a later rejoin, and covers each event class at least
// once when `events` allows.
FaultConfig MakeChaosSchedule(const ChaosOptions& options);

}  // namespace hipress

#endif  // HIPRESS_SRC_NET_FAULT_H_
