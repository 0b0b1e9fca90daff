// Reliable transport over the lossy simulated network.
//
// The raw Network is fire-and-forget: under fault injection a message may
// simply never arrive. ReliableChannel layers the classic recovery loop on
// top — ack on delivery, a per-transfer timeout derived from the network's
// uncontended send time plus current endpoint backlog, and capped
// exponential backoff with a bounded retry budget. Exhausting the budget
// declares the peer failed and reports an UNAVAILABLE Status upward instead
// of hanging, which is what lets the BSP barrier above degrade gracefully
// rather than deadlock when a node dies.
//
// Everything is scheduled on the simulator and all randomness comes from
// the network's seeded fault schedule, so runs stay bit-reproducible.
#ifndef HIPRESS_SRC_NET_RELIABLE_CHANNEL_H_
#define HIPRESS_SRC_NET_RELIABLE_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"

namespace hipress {

struct ReliableTransportConfig {
  // Total attempts per transfer (first send + retries). Exhausting the
  // budget fails the transfer and marks the peer dead.
  int max_attempts = 5;
  // Capped exponential backoff between attempts.
  SimTime backoff_base = FromMicros(100.0);
  double backoff_factor = 2.0;
  SimTime backoff_cap = FromMillis(10.0);
};

class ReliableChannel {
 public:
  // `metrics` (optional) receives "net.retries", "net.retransmit_bytes",
  // "net.acks", "net.peer_failures", "net.retry_budget_exhausted",
  // "net.stale_epoch_rejected" and the "net.backoff_us" histogram. The
  // per-frame paths bump plain tallies, published into the registry when
  // the simulator's Run()/RunUntil() returns and when the channel is
  // destroyed (Simulator::PublishHook). `spans` (optional) records each
  // backoff wait on the sender's "net:retry" lane. Retries and budget
  // exhaustion append events to the sender's ring of `net`'s flight
  // recorder, when it has one, and exhaustion triggers a dump.
  ReliableChannel(Simulator* sim, Network* net, ReliableTransportConfig config,
                  MetricsRegistry* metrics = nullptr,
                  SpanCollector* spans = nullptr);
  ~ReliableChannel();
  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  // Sends `message` reliably; `on_complete` fires with OkStatus() once the
  // sender observes the ack (possibly after retries), or with an
  // UNAVAILABLE error once the retry budget for the peer is exhausted.
  // Sends to a peer already marked failed fail fast on the next event.
  void Send(NetMessage message, std::function<void(const Status&)> on_complete);

  // As above, plus `on_deliver` fires exactly once at the *receiver's*
  // delivery time with the first successfully delivered copy of the
  // message (duplicates from spurious retransmits are latched out). The
  // delivered NetMessage aliases the transfer's payload shared_ptr — the
  // channel's ack/timeout/backoff bookkeeping holds the same refcounted
  // block across every retransmit rather than a byte copy, so a pooled
  // payload travels the full retry lifecycle without leaving pool memory
  // (docs/COMMUNICATION.md).
  void Send(NetMessage message,
            std::function<void(const NetMessage&)> on_deliver,
            std::function<void(const Status&)> on_complete);

  // Invoked (at most once per peer) when a retry budget exhausts against
  // that peer; fires before the offending transfer's on_complete.
  void set_on_peer_failure(std::function<void(int peer)> handler) {
    on_peer_failure_ = std::move(handler);
  }

  // Current membership epoch. Every outgoing message is stamped with it at
  // Send time; a message delivered after the channel advanced past its
  // stamp is rejected as stale — acked (the sender's transfer completes)
  // but never handed to on_deliver, because it was built over a worker set
  // that no longer exists ("net.stale_epoch_rejected").
  void set_epoch(uint64_t epoch) { epoch_ = epoch; }
  uint64_t epoch() const { return epoch_; }
  uint64_t stale_epoch_rejected() const { return stale_epoch_rejected_; }

  // Clears the failed mark on `peer` so it can carry traffic again — the
  // rejoin path, called once the node has been re-admitted to the
  // membership view and its state re-synced. No-op for a healthy peer.
  void ReinstatePeer(int peer);

  bool peer_failed(int node) const { return peer_failed_[node]; }
  const std::vector<int>& failed_peers() const { return failed_peers_; }
  uint64_t retries() const { return retries_; }
  uint64_t acks() const { return acks_; }

 private:
  struct Transfer {
    // Holds the payload shared_ptr for the transfer's whole lifetime;
    // retransmits re-send this exact message, refcount and all.
    NetMessage message;
    std::function<void(const NetMessage&)> on_deliver;  // may be empty
    std::function<void(const Status&)> on_complete;
    int attempts = 0;
    bool done = false;       // sender-side: ack observed or transfer failed
    bool delivered = false;  // receiver-side: first copy handed upward
  };

  void Attempt(uint64_t id);
  void HandleTimeout(uint64_t id, int attempt);
  void MarkPeerFailed(int peer);
  SimTime AttemptTimeout(const NetMessage& message) const;
  SimTime BackoffDelay(int attempt) const;
  void PublishMetrics();

  Simulator* sim_;
  Network* net_;
  ReliableTransportConfig config_;
  SpanCollector* spans_ = nullptr;
  // Registry counters the tallies below publish into; unbound when no
  // registry is wired.
  CounterPublisher retries_metric_;
  CounterPublisher retransmit_bytes_metric_;
  CounterPublisher acks_metric_;
  CounterPublisher peer_failures_metric_;
  CounterPublisher budget_exhausted_metric_;
  CounterPublisher stale_epoch_metric_;
  LocalHistogram backoff_us_;
  // The network's black box (null when it has none) and interned ids.
  FlightRecorder* flight_ = nullptr;
  uint16_t ev_retry_ = 0;
  uint16_t ev_exhausted_ = 0;

  std::function<void(int)> on_peer_failure_;
  std::unordered_map<uint64_t, Transfer> transfers_;
  std::vector<bool> peer_failed_;
  std::vector<int> failed_peers_;
  uint64_t next_transfer_id_ = 1;
  uint64_t retries_ = 0;
  uint64_t retransmit_bytes_ = 0;
  uint64_t acks_ = 0;
  uint64_t peer_failures_ = 0;
  uint64_t budget_exhausted_ = 0;
  uint64_t epoch_ = 0;
  uint64_t stale_epoch_rejected_ = 0;
  Simulator::PublishHook publish_hook_;
};

}  // namespace hipress

#endif  // HIPRESS_SRC_NET_RELIABLE_CHANNEL_H_
