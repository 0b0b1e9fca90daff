#include "src/net/network.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/string_util.h"

namespace hipress {
namespace {

// Seed of the bandwidth-jitter draws (NetworkConfig::bandwidth_jitter).
constexpr uint64_t kJitterSeed = 0x71773;

// Per-message jitter stream id: a hash of the flow identity (src, dst, tag)
// and a per-sender sequence number. Mixing the flow identity in keeps
// concurrent jobs on disjoint senders drawing independent streams — one
// job's traffic cannot shift another's jitter draws.
uint64_t JitterOrdinal(int src, int dst, uint64_t tag, uint64_t seq) {
  auto mix = [](uint64_t h, uint64_t v) {
    return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  };
  uint64_t h = mix(static_cast<uint64_t>(src) + 1,
                   static_cast<uint64_t>(dst) + 1);
  h = mix(h, tag);
  return mix(h, seq);
}

}  // namespace

Network::Network(Simulator* sim, int num_nodes, NetworkConfig config,
                 MetricsRegistry* metrics, SpanCollector* spans)
    : sim_(sim),
      num_nodes_(num_nodes),
      config_(config),
      spans_(spans),
      topology_(MakeTopology(config.topology, num_nodes, config.latency)),
      wire_pool_(metrics, "net"),
      publish_hook_(sim, [this] { PublishMetrics(); }) {
  CHECK_GT(num_nodes, 0);
  // std::max keeps GCC's range analysis from flagging the vector fill.
  const auto nodes = static_cast<size_t>(std::max(num_nodes, 1));
  const auto links = static_cast<size_t>(std::max(topology_->num_links(), 1));
  link_free_.assign(links, 0);
  link_busy_.assign(links, 0);
  tx_bytes_.assign(nodes, 0);
  rx_bytes_.assign(nodes, 0);
  jitter_seq_.assign(nodes, 0);
  if (metrics != nullptr) {
    auto counter = [metrics](const char* name) {
      return CounterPublisher(&metrics->counter(name));
    };
    messages_sent_metric_ = counter("net.messages_sent");
    messages_delivered_metric_ = counter("net.messages_delivered");
    tx_bytes_metric_ = counter("net.tx_bytes");
    drops_metric_ = counter("net.drops");
    dropped_bytes_metric_ = counter("net.dropped_bytes");
    degraded_metric_ = counter("net.degraded_transfers");
    queue_delay_us_ = LocalHistogram(&metrics->histogram("net.queue_delay_us"));
    transfer_bytes_ = LocalHistogram(&metrics->histogram(
        "net.transfer_bytes", HistogramBuckets::DefaultBytes()));
  }
}

Network::~Network() { PublishMetrics(); }

void Network::PublishMetrics() {
  uint64_t tx_bytes = 0;
  for (const uint64_t node_bytes : tx_bytes_) {
    tx_bytes += node_bytes;
  }
  messages_sent_metric_.Publish(messages_sent_);
  messages_delivered_metric_.Publish(messages_delivered_);
  tx_bytes_metric_.Publish(tx_bytes);
  drops_metric_.Publish(messages_dropped_);
  dropped_bytes_metric_.Publish(dropped_bytes_);
  degraded_metric_.Publish(degraded_transfers_);
  queue_delay_us_.Publish();
  transfer_bytes_.Publish();
}

SimTime Network::EarliestStart(int src, int dst) const {
  Route route;
  topology_->FillRoute(src, dst, &route);
  SimTime earliest = sim_->now();
  for (int i = 0; i < route.hops; ++i) {
    earliest = std::max(earliest, link_free_[route.link[i]]);
  }
  return earliest;
}

SimTime Network::UncontendedSendTime(uint64_t bytes) const {
  SimTime serialize = TransferTime(bytes);
  if (config_.topology.kind == TopologyKind::kFatTree &&
      topology_->num_tors() > 1) {
    // Worst-case (cross-rack) route: cut-through forwarding bounds the
    // transfer by the slowest tier, and the fabric adds two hops.
    const double fabric_scale =
        config_.topology.oversubscription /
        static_cast<double>(std::max(1, config_.topology.hosts_per_tor));
    if (fabric_scale > 1.0) {
      serialize = std::max(
          serialize, static_cast<SimTime>(static_cast<double>(serialize) *
                                          fabric_scale));
    }
    return serialize + config_.path_latency() + config_.per_message_overhead;
  }
  return serialize + config_.latency + config_.per_message_overhead;
}

void Network::Send(NetMessage message,
                   std::function<void(const NetMessage&)> on_delivered) {
  CHECK_GE(message.src, 0);
  CHECK_LT(message.src, num_nodes_);
  CHECK_GE(message.dst, 0);
  CHECK_LT(message.dst, num_nodes_);
  CHECK_NE(message.src, message.dst);

  // A crashed sender transmits nothing: blackhole without touching links.
  if (!alive(message.src)) {
    ++messages_dropped_;
    dropped_bytes_ += message.bytes;
    if (flight_ != nullptr) {
      flight_->Record(message.src, ev_drop_, sim_->now(),
                      static_cast<uint64_t>(message.dst), message.bytes);
    }
    return;
  }
  if (flight_ != nullptr) {
    flight_->Record(message.src, ev_send_, sim_->now(),
                    static_cast<uint64_t>(message.dst), message.bytes);
  }

  SimTime serialize = TransferTime(message.bytes);
  if (config_.bandwidth_jitter > 0.0) {
    // Deterministic, order-independent slowdown factor in [1, 1 + jitter]
    // hashed from the flow identity and a per-sender sequence number.
    const uint64_t ordinal =
        JitterOrdinal(message.src, message.dst, message.tag,
                      jitter_seq_[message.src]++);
    const double uniform = FaultUniform(kJitterSeed, ordinal);
    serialize = static_cast<SimTime>(
        static_cast<double>(serialize) *
        (1.0 + config_.bandwidth_jitter * uniform));
  }
  // Link-degradation window: the transfer serializes at the cut bandwidth.
  const double degrade_factor =
      config_.faults.DegradationFactor(message.src, message.dst, sim_->now());
  if (degrade_factor < 1.0) {
    serialize =
        static_cast<SimTime>(static_cast<double>(serialize) / degrade_factor);
    ++degraded_transfers_;
  }
  // Seeded per-message loss: the message still burns link time (the bits
  // were transmitted) but is never delivered.
  const bool lost =
      config_.faults.drop_prob > 0.0 &&
      FaultUniform(config_.faults.seed, messages_sent_) <
          config_.faults.drop_prob;
  ++messages_sent_;
  // Every link of the route serializes independently and forwards
  // cut-through: segment i may begin once its link is free and the first
  // bit has arrived (previous segment's start plus one hop latency), and
  // finishes no earlier than the previous segment's last bit plus the hop
  // latency. On a flat route this reduces to the original two-endpoint
  // model: a congested receiver never blocks the sender's uplink, and an
  // idle path delivers one propagation latency after the uplink finishes.
  Route route;
  topology_->FillRoute(message.src, message.dst, &route);
  SimTime start[Route::kMaxHops];
  SimTime done[Route::kMaxHops];
  start[0] = std::max(sim_->now(), link_free_[route.link[0]]) +
             config_.per_message_overhead;
  done[0] = start[0] + serialize;
  link_free_[route.link[0]] = done[0];
  link_busy_[route.link[0]] += serialize;
  // Queueing delay beyond the unavoidable overhead + propagation: uplink
  // backlog plus any wait past the arrival of the first bit downstream.
  SimTime queue_wait = start[0] - config_.per_message_overhead - sim_->now();
  for (int i = 1; i < route.hops; ++i) {
    const double scale = route.serialize_scale[i];
    const SimTime hop_serialize =
        scale == 1.0 ? serialize
                     : static_cast<SimTime>(static_cast<double>(serialize) *
                                            scale);
    const SimTime first_bit = start[i - 1] + route.hop_latency[i];
    start[i] = std::max(first_bit, link_free_[route.link[i]]);
    done[i] = std::max(start[i] + hop_serialize,
                       done[i - 1] + route.hop_latency[i]);
    link_free_[route.link[i]] = done[i];
    link_busy_[route.link[i]] += hop_serialize;
    queue_wait += start[i] - first_bit;
  }
  const SimTime deliver_at = done[route.hops - 1];
  tx_bytes_[message.src] += message.bytes;
  rx_bytes_[message.dst] += message.bytes;

  transfer_bytes_.Observe(static_cast<double>(message.bytes));
  queue_delay_us_.Observe(static_cast<double>(queue_wait) / kMicrosecond);
  // The crash schedule is static, so delivery to a node that will be dead
  // at arrival time is decidable now: the bits are sent but never received.
  const bool blackholed = !AliveAt(message.dst, deliver_at);
  if (spans_ != nullptr) {
    const std::string label = StrFormat(
        "%s %d->%d", HumanBytes(message.bytes).c_str(), message.src,
        message.dst);
    spans_->Add(message.src, kTraceLaneNetUplink,
                (lost || blackholed ? "tx(lost) " : "tx ") + label, start[0],
                done[0]);
    if (!lost && !blackholed) {
      if (route.hops == 4) {
        spans_->Add(message.src, kTraceLaneNetFabric, "tor-up " + label,
                    start[1], done[1]);
        spans_->Add(message.dst, kTraceLaneNetFabric, "tor-down " + label,
                    start[2], done[2]);
      }
      spans_->Add(message.dst, kTraceLaneNetDownlink, "rx " + label,
                  start[route.hops - 1], deliver_at);
    }
  }
  if (lost || blackholed) {
    ++messages_dropped_;
    dropped_bytes_ += message.bytes;
    if (flight_ != nullptr) {
      flight_->Record(message.src, ev_drop_, sim_->now(),
                      static_cast<uint64_t>(message.dst), message.bytes);
    }
    return;
  }
  sim_->ScheduleAt(deliver_at, [this, message = std::move(message),
                                on_delivered = std::move(on_delivered)] {
    ++messages_delivered_;
    if (flight_ != nullptr) {
      flight_->Record(message.dst, ev_deliver_, sim_->now(),
                      static_cast<uint64_t>(message.src), message.bytes);
    }
    on_delivered(message);
  });
}

}  // namespace hipress
