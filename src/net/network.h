// Simulated cluster network.
//
// Models N homogeneous nodes joined through a configurable interconnect
// Topology (src/net/topology.h). The default FlatTopology reproduces the
// original model — full-duplex per-node links at the paper's settings
// (100/56/25/10 Gbps), every pair one propagation latency apart — while
// FatTreeTopology routes cross-rack traffic over shared, possibly
// oversubscribed ToR/spine links. Every directed link a route crosses is
// FIFO-serialized independently and forwards cut-through, so the model
// captures per-link serialization, bidirectional bandwidth, endpoint
// contention, and — under a fat tree — cross-job contention on the shared
// fabric (docs/TOPOLOGY.md).
#ifndef HIPRESS_SRC_NET_NETWORK_H_
#define HIPRESS_SRC_NET_NETWORK_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/buffer_pool.h"
#include "src/common/flight_recorder.h"
#include "src/common/metrics.h"
#include "src/common/units.h"
#include "src/net/fault.h"
#include "src/net/topology.h"
#include "src/sim/simulator.h"

namespace hipress {

struct NetworkConfig {
  Bandwidth link_bandwidth = Bandwidth::Gbps(100.0);
  SimTime latency = FromMicros(5.0);
  // Fixed per-message software overhead (RPC framing, RDMA post, etc.).
  SimTime per_message_overhead = FromMicros(2.0);
  // Interconnect shape; defaults to the flat full-duplex model.
  TopologyConfig topology;
  // Deterministic per-transfer bandwidth jitter in [0, 1): each message's
  // serialization time is scaled by a factor in [1, 1 + jitter], drawn from
  // a hash of (src, dst, tag) and a per-sender sequence number — so
  // concurrent jobs on disjoint nodes draw independent jitter streams.
  // Models the interference the paper's cost-model future work worries
  // about; 0 disables.
  double bandwidth_jitter = 0.0;
  // Deterministic fault injection (drops, degradation windows, crashes);
  // defaults to a perfect network. See src/net/fault.h.
  FaultConfig faults;

  // Planning-time view of the configured topology, used by SeCoPa and the
  // cost models so compression decisions price against the real path:
  // end-to-end propagation of a worst-case (cross-rack) route, and the
  // fair-share per-flow bandwidth once the oversubscribed tier is split
  // among its rack's hosts. Both collapse to the flat values under kFlat.
  SimTime path_latency() const {
    if (topology.kind == TopologyKind::kFatTree) {
      return latency + 2 * kTorHopLatency;
    }
    return latency;
  }
  Bandwidth effective_bandwidth() const {
    if (topology.kind == TopologyKind::kFatTree &&
        topology.oversubscription > 1.0) {
      return Bandwidth{link_bandwidth.bits_per_second /
                       topology.oversubscription};
    }
    return link_bandwidth;
  }
};

// A message in flight. The payload pointer is opaque to the network and may
// be null for timing-only simulations.
struct NetMessage {
  int src = -1;
  int dst = -1;
  uint64_t bytes = 0;
  uint64_t tag = 0;
  // Membership epoch the sender stamped at Send time (ReliableChannel).
  // A receiver whose channel has advanced past it rejects the frame as
  // stale instead of handing it upward (docs/FAULT_TOLERANCE.md).
  uint64_t epoch = 0;
  std::shared_ptr<void> payload;
};

// Wraps a copy of `bytes` as a NetMessage payload backed by `pool`. The
// block recycles into the pool when the last reference drops, so
// real-data sends stop allocating once the pool is warm. Readers downcast
// with std::static_pointer_cast<PooledBytes>(message.payload).
inline std::shared_ptr<PooledBytes> MakePooledPayload(
    std::span<const uint8_t> bytes, BufferPool* pool = &BufferPool::Global()) {
  auto payload = std::make_shared<PooledBytes>(pool);
  payload->resize(bytes.size());
  if (!bytes.empty()) {
    std::memcpy(payload->data(), bytes.data(), bytes.size());
  }
  return payload;
}

class Network {
 public:
  // `metrics` (optional) receives transfer counts/bytes and the endpoint
  // queueing-delay histogram ("net.messages_sent", "net.tx_bytes",
  // "net.queue_delay_us"); `spans` (optional) receives one uplink span on
  // the sender's track and one downlink span on the receiver's per message
  // (plus fabric spans for cross-rack hops), for the merged Perfetto trace.
  // Send and delivery only bump the network's own tallies (the counts
  // behind messages_delivered() and friends); they are published into
  // `metrics` each time the simulator's Run()/RunUntil() returns and when
  // the network is destroyed (Simulator::PublishHook).
  Network(Simulator* sim, int num_nodes, NetworkConfig config,
          MetricsRegistry* metrics = nullptr, SpanCollector* spans = nullptr);
  ~Network();

  // Sends `message` from message.src to message.dst; `on_delivered` fires at
  // the receiver's delivery time. src/dst must be valid and distinct
  // (CHECK-enforced: out-of-range or equal endpoints abort). Under fault
  // injection a dropped or blackholed message never fires `on_delivered` —
  // reliability is ReliableChannel's job, one layer up.
  void Send(NetMessage message,
            std::function<void(const NetMessage&)> on_delivered);

  // True when `node` is not inside a crash window at simulated time
  // `when`; a scheduled rejoin closes the window (src/net/fault.h).
  bool AliveAt(int node, SimTime when) const {
    return config_.faults.AliveAt(node, when);
  }
  bool alive(int node) const { return AliveAt(node, sim_->now()); }

  // Earliest time a new transfer from src to dst could start serializing,
  // given the current backlog on every link of its route.
  SimTime EarliestStart(int src, int dst) const;

  // Pure serialization time of `bytes` on one NIC link (no latency or
  // overhead).
  SimTime TransferTime(uint64_t bytes) const {
    return config_.link_bandwidth.TransferTime(bytes);
  }

  // Modelled end-to-end time for an uncontended `bytes` transfer over the
  // topology's worst-case route: cut-through serialization bounded by the
  // slowest link tier, plus propagation across every hop and the fixed
  // overhead. Identical to the original flat formula under FlatTopology.
  SimTime UncontendedSendTime(uint64_t bytes) const;

  int num_nodes() const { return num_nodes_; }
  const NetworkConfig& config() const { return config_; }
  const Topology& topology() const { return *topology_; }

  // Pool backing wire-path payloads (batch frames, retransmit blocks,
  // staging copies). Owned by the network so wire allocations are gated
  // separately from compute-side scratch: it publishes "net.pool_hits"/
  // "net.pool_misses" (plus bytes_in_use/peak_bytes) on the registry the
  // network was constructed with. After warm-up the wire path must stop
  // missing — the invariant bench/bench_wire_pool.cc gates.
  BufferPool* wire_pool() { return &wire_pool_; }

  uint64_t tx_bytes(int node) const { return tx_bytes_[node]; }
  uint64_t rx_bytes(int node) const { return rx_bytes_[node]; }
  // Cumulative serialization time charged to a node's NIC uplink/downlink —
  // the transmit and receive sides of endpoint contention.
  SimTime uplink_busy(int node) const { return link_busy_[node]; }
  SimTime downlink_busy(int node) const {
    return link_busy_[num_nodes_ + node];
  }
  // Cumulative serialization on a ToR fabric link (0 when flat or idle).
  SimTime tor_uplink_busy(int tor) const {
    return link_busy_[2 * num_nodes_ + tor];
  }
  uint64_t messages_delivered() const { return messages_delivered_; }
  uint64_t messages_dropped() const { return messages_dropped_; }

  // Wires the always-on black box: every send/delivery/drop appends a
  // compact event to the owning node's ring (src/common/flight_recorder.h).
  // Not owned; null disables.
  void set_flight_recorder(FlightRecorder* recorder) {
    flight_ = recorder;
    if (flight_ != nullptr) {
      ev_send_ = flight_->Intern("net.send");
      ev_deliver_ = flight_->Intern("net.deliver");
      ev_drop_ = flight_->Intern("net.drop");
    }
  }
  FlightRecorder* flight_recorder() const { return flight_; }

 private:
  void PublishMetrics();

  Simulator* sim_;
  int num_nodes_;
  NetworkConfig config_;
  SpanCollector* spans_ = nullptr;
  std::unique_ptr<Topology> topology_;
  BufferPool wire_pool_;
  // Registry counters the tallies below publish into; unbound when no
  // registry is wired.
  CounterPublisher messages_sent_metric_;
  CounterPublisher messages_delivered_metric_;
  CounterPublisher tx_bytes_metric_;
  CounterPublisher drops_metric_;
  CounterPublisher dropped_bytes_metric_;
  CounterPublisher degraded_metric_;
  LocalHistogram queue_delay_us_;
  LocalHistogram transfer_bytes_;
  // Black-box event sink and its interned event ids (set_flight_recorder).
  FlightRecorder* flight_ = nullptr;
  uint16_t ev_send_ = 0;
  uint16_t ev_deliver_ = 0;
  uint16_t ev_drop_ = 0;

  // Per directed link (uplinks, downlinks, then ToR fabric links): time the
  // link is serialized through, and cumulative busy time.
  std::vector<SimTime> link_free_;
  std::vector<SimTime> link_busy_;
  std::vector<uint64_t> tx_bytes_;
  std::vector<uint64_t> rx_bytes_;
  // Per-sender jitter sequence; keeps jitter draws independent across
  // disjoint sender sets (multi-job determinism).
  std::vector<uint64_t> jitter_seq_;
  uint64_t messages_delivered_ = 0;
  uint64_t messages_sent_ = 0;
  uint64_t messages_dropped_ = 0;
  uint64_t dropped_bytes_ = 0;
  uint64_t degraded_transfers_ = 0;
  Simulator::PublishHook publish_hook_;
};

}  // namespace hipress

#endif  // HIPRESS_SRC_NET_NETWORK_H_
