#include "src/net/reliable_channel.h"

#include <algorithm>
#include <utility>

#include "src/common/string_util.h"

namespace hipress {
namespace {

// Wire size of an acknowledgement message.
constexpr uint64_t kAckBytes = 64;
// Per-attempt timeout: factor * (uncontended data + ack time) + current
// endpoint backlog + slack. The backlog term keeps honest congestion from
// masquerading as loss.
constexpr double kTimeoutFactor = 3.0;
constexpr SimTime kTimeoutSlack = FromMicros(100.0);

}  // namespace

ReliableChannel::ReliableChannel(Simulator* sim, Network* net,
                                 ReliableTransportConfig config,
                                 MetricsRegistry* metrics,
                                 SpanCollector* spans)
    : sim_(sim),
      net_(net),
      config_(config),
      spans_(spans),
      flight_(net->flight_recorder()),
      publish_hook_(sim, [this] { PublishMetrics(); }) {
  peer_failed_.assign(static_cast<size_t>(net->num_nodes()), false);
  if (flight_ != nullptr) {
    ev_retry_ = flight_->Intern("net.retry");
    ev_exhausted_ = flight_->Intern("net.retry_exhausted");
  }
  if (metrics != nullptr) {
    auto counter = [metrics](const char* name) {
      return CounterPublisher(&metrics->counter(name));
    };
    retries_metric_ = counter("net.retries");
    retransmit_bytes_metric_ = counter("net.retransmit_bytes");
    acks_metric_ = counter("net.acks");
    peer_failures_metric_ = counter("net.peer_failures");
    budget_exhausted_metric_ = counter("net.retry_budget_exhausted");
    stale_epoch_metric_ = counter("net.stale_epoch_rejected");
    backoff_us_ = LocalHistogram(&metrics->histogram("net.backoff_us"));
  }
}

ReliableChannel::~ReliableChannel() { PublishMetrics(); }

void ReliableChannel::PublishMetrics() {
  retries_metric_.Publish(retries_);
  retransmit_bytes_metric_.Publish(retransmit_bytes_);
  acks_metric_.Publish(acks_);
  peer_failures_metric_.Publish(peer_failures_);
  budget_exhausted_metric_.Publish(budget_exhausted_);
  stale_epoch_metric_.Publish(stale_epoch_rejected_);
  backoff_us_.Publish();
}

SimTime ReliableChannel::AttemptTimeout(const NetMessage& message) const {
  const SimTime round_trip = net_->UncontendedSendTime(message.bytes) +
                             net_->UncontendedSendTime(kAckBytes);
  // Both directions' visible backlog: the data message queues behind
  // src->dst, and the ack will queue behind the receiver's own sends on
  // the reverse path (bulk traffic there otherwise triggers spurious
  // retransmit storms).
  const SimTime backlog =
      std::max<SimTime>(
          0, net_->EarliestStart(message.src, message.dst) - sim_->now()) +
      std::max<SimTime>(
          0, net_->EarliestStart(message.dst, message.src) - sim_->now());
  return static_cast<SimTime>(kTimeoutFactor *
                              static_cast<double>(round_trip)) +
         backlog + kTimeoutSlack;
}

SimTime ReliableChannel::BackoffDelay(int attempt) const {
  double delay = static_cast<double>(config_.backoff_base);
  for (int i = 1; i < attempt; ++i) {
    delay *= config_.backoff_factor;
  }
  return std::min<SimTime>(config_.backoff_cap,
                           static_cast<SimTime>(delay));
}

void ReliableChannel::Send(NetMessage message,
                           std::function<void(const Status&)> on_complete) {
  Send(std::move(message), nullptr, std::move(on_complete));
}

void ReliableChannel::Send(NetMessage message,
                           std::function<void(const NetMessage&)> on_deliver,
                           std::function<void(const Status&)> on_complete) {
  const int known_dead =
      peer_failed(message.dst) ? message.dst
      : peer_failed(message.src) ? message.src
                                 : -1;
  if (known_dead >= 0) {
    // Known-dead endpoint: fail fast on the next event instead of burning
    // a full retry budget per transfer. The blamed peer and the epoch the
    // send was attempted under let the caller tell a stale plan from a
    // fresh failure.
    const uint64_t epoch = epoch_;
    sim_->Schedule(0,
                   [known_dead, epoch, on_complete = std::move(on_complete)] {
      on_complete(UnavailableError(StrFormat(
          "peer %d already marked failed (send attempted at epoch %llu)",
          known_dead, static_cast<unsigned long long>(epoch))));
    });
    return;
  }
  // Stamp the sender's current membership epoch; retransmits reuse the
  // stamp, so a transfer that outlives a membership change is rejected on
  // delivery rather than feeding a dissolved worker set.
  message.epoch = epoch_;
  const uint64_t id = next_transfer_id_++;
  Transfer& transfer = transfers_[id];
  transfer.message = std::move(message);
  transfer.on_deliver = std::move(on_deliver);
  transfer.on_complete = std::move(on_complete);
  Attempt(id);
}

void ReliableChannel::Attempt(uint64_t id) {
  auto it = transfers_.find(id);
  if (it == transfers_.end() || it->second.done) {
    return;
  }
  Transfer& transfer = it->second;
  ++transfer.attempts;
  const int attempt = transfer.attempts;
  const NetMessage& data = transfer.message;
  const SimTime timeout = AttemptTimeout(data);
  // Data out; the receiver acks every received copy (duplicates from
  // spurious retransmits are absorbed by the `done` latch).
  net_->Send(data, [this, id](const NetMessage& delivered) {
    // First successful copy reaches the application; later duplicates only
    // refresh the ack. `delivered` aliases the transfer's stored payload —
    // no copy happened on the way here.
    auto deliver_it = transfers_.find(id);
    if (deliver_it != transfers_.end() && !deliver_it->second.delivered) {
      deliver_it->second.delivered = true;
      if (delivered.epoch < epoch_) {
        // The membership view advanced while this copy was in flight: the
        // payload was built over a worker set that no longer exists.
        // Reject it (still acked below — the *transfer* is done, the
        // content is just obsolete).
        ++stale_epoch_rejected_;
      } else if (deliver_it->second.on_deliver) {
        deliver_it->second.on_deliver(delivered);
      }
    }
    NetMessage ack;
    ack.src = delivered.dst;
    ack.dst = delivered.src;
    ack.bytes = kAckBytes;
    ack.tag = delivered.tag;
    net_->Send(ack, [this, id](const NetMessage&) {
      auto ack_it = transfers_.find(id);
      if (ack_it == transfers_.end() || ack_it->second.done) {
        return;
      }
      ack_it->second.done = true;
      ++acks_;
      auto on_complete = std::move(ack_it->second.on_complete);
      transfers_.erase(ack_it);
      on_complete(OkStatus());
    });
  });
  sim_->Schedule(timeout, [this, id, attempt] { HandleTimeout(id, attempt); });
}

void ReliableChannel::HandleTimeout(uint64_t id, int attempt) {
  auto it = transfers_.find(id);
  if (it == transfers_.end() || it->second.done ||
      it->second.attempts != attempt) {
    return;  // acked meanwhile, or a newer attempt owns the transfer
  }
  Transfer& transfer = it->second;
  if (transfer.attempts >= config_.max_attempts) {
    // Blame the endpoint that actually died: a crashed *sender* blackholes
    // its own retransmits, and declaring the destination failed would evict
    // an innocent node from the topology.
    ++budget_exhausted_;
    const int dead = !net_->alive(transfer.message.src)
                         ? transfer.message.src
                         : transfer.message.dst;
    if (flight_ != nullptr) {
      flight_->Record(transfer.message.src, ev_exhausted_, sim_->now(),
                      static_cast<uint64_t>(dead), transfer.message.bytes);
      flight_->TriggerDump("retry-budget-exhausted");
    }
    MarkPeerFailed(dead);
    return;
  }
  ++retries_;
  retransmit_bytes_ += transfer.message.bytes;
  if (flight_ != nullptr) {
    flight_->Record(transfer.message.src, ev_retry_, sim_->now(),
                    static_cast<uint64_t>(transfer.message.dst),
                    static_cast<uint64_t>(transfer.attempts));
  }
  const SimTime backoff = BackoffDelay(transfer.attempts);
  backoff_us_.Observe(static_cast<double>(backoff) / kMicrosecond);
  if (spans_ != nullptr) {
    spans_->Add(transfer.message.src, kTraceLaneRetry,
                StrFormat("backoff #%d ->%d", transfer.attempts,
                          transfer.message.dst),
                sim_->now(), sim_->now() + backoff);
  }
  sim_->Schedule(backoff, [this, id] { Attempt(id); });
}

void ReliableChannel::MarkPeerFailed(int peer) {
  const bool first_failure = !peer_failed_[peer];
  if (first_failure) {
    peer_failed_[peer] = true;
    failed_peers_.push_back(peer);
    ++peer_failures_;
  }
  // Fail every open transfer touching the dead peer (either direction), not
  // just the one whose budget ran out — they would each waste a full budget
  // discovering the same corpse.
  std::vector<uint64_t> doomed;
  for (const auto& [id, transfer] : transfers_) {
    if (!transfer.done && (transfer.message.dst == peer ||
                           transfer.message.src == peer)) {
      doomed.push_back(id);
    }
  }
  std::vector<std::function<void(const Status&)>> callbacks;
  callbacks.reserve(doomed.size());
  for (const uint64_t id : doomed) {
    auto it = transfers_.find(id);
    if (it == transfers_.end() || it->second.done) {
      continue;
    }
    it->second.done = true;
    callbacks.push_back(std::move(it->second.on_complete));
    transfers_.erase(it);
  }
  // Peer-failure handler first: the engine uses it to cancel whole task
  // graphs before individual send completions trickle in.
  if (first_failure && on_peer_failure_) {
    on_peer_failure_(peer);
  }
  const Status status = UnavailableError(StrFormat(
      "retry budget exhausted: peer %d unresponsive after %d attempts "
      "at epoch %llu",
      peer, config_.max_attempts,
      static_cast<unsigned long long>(epoch_)));
  for (auto& callback : callbacks) {
    callback(status);
  }
}

void ReliableChannel::ReinstatePeer(int peer) {
  if (peer < 0 || peer >= static_cast<int>(peer_failed_.size()) ||
      !peer_failed_[peer]) {
    return;
  }
  peer_failed_[peer] = false;
  failed_peers_.erase(
      std::remove(failed_peers_.begin(), failed_peers_.end(), peer),
      failed_peers_.end());
}

}  // namespace hipress
