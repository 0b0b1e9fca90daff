// Cluster interconnect topologies for the simulated network.
//
// A Topology maps a (src, dst) node pair onto the ordered list of directed
// links a message crosses — its Route — plus per-hop propagation latency and
// per-link serialization scaling. The Network prices and serializes every
// transfer through that route, so endpoint NICs and shared fabric links
// contend independently.
//
//  - FlatTopology: the original model — every node pair is joined by the
//    sender's uplink and the receiver's downlink, one propagation latency
//    apart. Two hops, no shared fabric.
//  - FatTreeTopology: NIC -> ToR -> spine -> ToR -> NIC. Nodes group into
//    top-of-rack switches (`hosts_per_tor`); same-rack traffic short-cuts
//    through the ToR and behaves like the flat model, while cross-rack
//    traffic additionally crosses the sender ToR's uplink and the receiver
//    ToR's downlink into the spine. ToR uplinks carry
//    hosts_per_tor / oversubscription times the host NIC bandwidth, so an
//    oversubscription ratio > hosts_per_tor makes the fabric itself the
//    per-flow bottleneck, and any ratio > 1 makes it the shared bottleneck
//    once enough flows collide (docs/TOPOLOGY.md).
//
// Link ids are dense and stable: uplink(node) = node,
// downlink(node) = N + node, ToR uplink(t) = 2N + t,
// ToR downlink(t) = 2N + T + t.
#ifndef HIPRESS_SRC_NET_TOPOLOGY_H_
#define HIPRESS_SRC_NET_TOPOLOGY_H_

#include <memory>
#include <string>

#include "src/common/units.h"

namespace hipress {

enum class TopologyKind {
  kFlat,
  kFatTree,
};

struct TopologyConfig {
  TopologyKind kind = TopologyKind::kFlat;
  // Fat-tree shape; ignored under kFlat. `oversubscription` is the classic
  // ratio of rack-internal to rack-external capacity: a ToR uplink carries
  // hosts_per_tor * host_bandwidth / oversubscription.
  int hosts_per_tor = 16;
  double oversubscription = 1.0;
};

// Extra one-way propagation per fabric hop (NIC->ToR handoff into the
// spine and back down); a cross-rack route adds two of these on top of the
// endpoint latency.
inline constexpr SimTime kTorHopLatency = FromMicros(1.0);

// An ordered walk over directed links, filled allocation-free into caller
// storage. Segment 0 is the sender's NIC uplink; the last segment is the
// receiver's NIC downlink. `hop_latency[i]` is the propagation delay between
// segment i-1 and segment i (index 0 unused); `serialize_scale[i]` scales
// the NIC serialization time on that link (1.0 = host NIC rate, < 1.0 = a
// fatter fabric link).
struct Route {
  static constexpr int kMaxHops = 4;
  int hops = 0;
  int link[kMaxHops] = {};
  SimTime hop_latency[kMaxHops] = {};
  double serialize_scale[kMaxHops] = {1.0, 1.0, 1.0, 1.0};
};

class Topology {
 public:
  virtual ~Topology() = default;

  // Total directed links (NIC uplinks + downlinks + fabric links).
  virtual int num_links() const = 0;
  virtual int num_tors() const = 0;  // 0 under kFlat
  virtual void FillRoute(int src, int dst, Route* route) const = 0;
  // Rack index of `node`; -1 under kFlat.
  virtual int tor_of(int node) const = 0;
  virtual std::string Describe() const = 0;
};

// `endpoint_latency` is the flat end-to-end propagation delay (the existing
// NetworkConfig::latency); topologies distribute it over the route so a
// flat route and a same-rack fat-tree route reproduce the original timing.
std::unique_ptr<Topology> MakeTopology(const TopologyConfig& config,
                                       int num_nodes,
                                       SimTime endpoint_latency);

}  // namespace hipress

#endif  // HIPRESS_SRC_NET_TOPOLOGY_H_
