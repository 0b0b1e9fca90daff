#include "src/net/topology.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/string_util.h"

namespace hipress {
namespace {

class FlatTopology : public Topology {
 public:
  FlatTopology(int num_nodes, SimTime endpoint_latency)
      : num_nodes_(num_nodes), endpoint_latency_(endpoint_latency) {}

  int num_links() const override { return 2 * num_nodes_; }
  int num_tors() const override { return 0; }
  int tor_of(int /*node*/) const override { return -1; }

  void FillRoute(int src, int dst, Route* route) const override {
    route->hops = 2;
    route->link[0] = src;
    route->link[1] = num_nodes_ + dst;
    route->hop_latency[1] = endpoint_latency_;
    route->serialize_scale[0] = 1.0;
    route->serialize_scale[1] = 1.0;
  }

  std::string Describe() const override {
    return StrFormat("flat(nodes=%d)", num_nodes_);
  }

 private:
  int num_nodes_;
  SimTime endpoint_latency_;
};

class FatTreeTopology : public Topology {
 public:
  FatTreeTopology(const TopologyConfig& config, int num_nodes,
                  SimTime endpoint_latency)
      : num_nodes_(num_nodes),
        hosts_per_tor_(std::max(1, config.hosts_per_tor)),
        oversubscription_(std::max(config.oversubscription, 1e-9)),
        endpoint_latency_(endpoint_latency) {
    num_tors_ = (num_nodes_ + hosts_per_tor_ - 1) / hosts_per_tor_;
    // A ToR uplink runs at hosts_per_tor / oversubscription times the host
    // NIC rate; serialization time scales by the inverse.
    fabric_scale_ = oversubscription_ / static_cast<double>(hosts_per_tor_);
  }

  int num_links() const override { return 2 * num_nodes_ + 2 * num_tors_; }
  int num_tors() const override { return num_tors_; }
  int tor_of(int node) const override { return node / hosts_per_tor_; }

  void FillRoute(int src, int dst, Route* route) const override {
    const int src_tor = tor_of(src);
    const int dst_tor = tor_of(dst);
    if (src_tor == dst_tor) {
      // Rack-local: the ToR switches the flow without touching the spine,
      // reproducing the flat model's timing exactly.
      route->hops = 2;
      route->link[0] = src;
      route->link[1] = num_nodes_ + dst;
      route->hop_latency[1] = endpoint_latency_;
      route->serialize_scale[0] = 1.0;
      route->serialize_scale[1] = 1.0;
      return;
    }
    route->hops = 4;
    route->link[0] = src;
    route->link[1] = 2 * num_nodes_ + src_tor;
    route->link[2] = 2 * num_nodes_ + num_tors_ + dst_tor;
    route->link[3] = num_nodes_ + dst;
    route->hop_latency[1] = kTorHopLatency;
    route->hop_latency[2] = kTorHopLatency;
    route->hop_latency[3] = endpoint_latency_;
    route->serialize_scale[0] = 1.0;
    route->serialize_scale[1] = fabric_scale_;
    route->serialize_scale[2] = fabric_scale_;
    route->serialize_scale[3] = 1.0;
  }

  std::string Describe() const override {
    return StrFormat("fattree(nodes=%d,tors=%d,hosts=%d,ratio=%.2f)",
                     num_nodes_, num_tors_, hosts_per_tor_,
                     oversubscription_);
  }

 private:
  int num_nodes_;
  int hosts_per_tor_;
  double oversubscription_;
  SimTime endpoint_latency_;
  int num_tors_ = 0;
  double fabric_scale_ = 1.0;
};

}  // namespace

std::unique_ptr<Topology> MakeTopology(const TopologyConfig& config,
                                       int num_nodes,
                                       SimTime endpoint_latency) {
  CHECK_GT(num_nodes, 0);
  switch (config.kind) {
    case TopologyKind::kFlat:
      return std::make_unique<FlatTopology>(num_nodes, endpoint_latency);
    case TopologyKind::kFatTree:
      return std::make_unique<FatTreeTopology>(config, num_nodes,
                                               endpoint_latency);
  }
  return std::make_unique<FlatTopology>(num_nodes, endpoint_latency);
}

}  // namespace hipress
