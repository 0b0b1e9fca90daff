// Synchronization configuration shared by the CaSync engine, graph
// builders, the SeCoPa planner, and the strategy presets.
//
// One struct expresses the whole design space of Section 6.3's ablation:
// baselines are CaSync configurations with optimizations switched off
// (Default -> +compression -> +pipelining -> +bulk -> +SeCoPa).
#ifndef HIPRESS_SRC_CASYNC_CONFIG_H_
#define HIPRESS_SRC_CASYNC_CONFIG_H_

#include <string>

#include "src/compress/compressor.h"
#include "src/compress/speed_profile.h"
#include "src/net/network.h"
#include "src/net/reliable_channel.h"

namespace hipress {

enum class StrategyKind {
  kPs,    // parameter-server bipartite graph (aggregators co-located)
  kRing,  // logical ring
  kTree,  // binomial tree reduce + broadcast (generality demonstration)
};

const char* StrategyKindName(StrategyKind kind);

struct SyncConfig {
  StrategyKind strategy = StrategyKind::kPs;
  int num_nodes = 16;

  // --- compression ------------------------------------------------------
  bool compression = false;
  std::string algorithm = "onebit";
  CodecImpl codec_impl = CodecImpl::kCompLL;
  CompressorParams codec_params;

  // --- CaSync optimizations (Figure 11 ablation axes) --------------------
  // Overlap compression kernels with communication. Off models the OSS
  // co-designs where encode/decode serialize against transfers.
  bool pipelining = true;
  // When pipelining is off: whether codec kernels additionally contend
  // with DNN computation on the device's main execution queue (the MXNet /
  // BytePS engine integration) rather than running on a side queue that
  // still overlaps backward (the TensorFlow allreduce path).
  bool codec_on_compute_stream = true;
  // Coordinated bulk communication (Section 3.2): batch small messages per
  // link with balanced sizes.
  bool bulk = true;
  // Selective compression and partitioning (Section 3.3). Off compresses
  // every gradient and uses fixed_partitions.
  bool secopa = true;
  int fixed_partitions = 1;

  // --- baseline-fidelity knobs -------------------------------------------
  // Extra per-message copy overhead on the sync path (BytePS's extra memory
  // copies, Section 6.3 "pipelining" discussion).
  SimTime extra_copy_overhead = 0;
  // Ring gradient fusion-buffer bytes (Horovod batching); CaSync-Ring uses
  // per-gradient rings instead. 0 disables fusion.
  uint64_t ring_fusion_bytes = 0;
  // Horovod executes collectives in a fixed order on a single stream: a
  // bucket's allreduce cannot start until the previous one finished. CaSync
  // lifts this by scheduling per-gradient task graphs concurrently.
  bool sequential_collectives = false;
  // Horovod's per-tensor negotiation (readiness coordination through the
  // master) costs a fixed slice per gradient in a bucket; it dominates for
  // many-gradient NLP models (Table 1's low Ring scaling efficiencies).
  SimTime per_gradient_negotiation = 0;
  // BytePS-style partition size for PS strategies when SeCoPa is off.
  uint64_t ps_partition_bytes = 4 * kMiB;

  // --- fault tolerance ----------------------------------------------------
  // Sync-path transfers go through the ack/retry/backoff ReliableChannel
  // (docs/FAULT_TOLERANCE.md) whenever fault injection is configured
  // (net.faults); these are its timeouts, budget and backoff.
  ReliableTransportConfig reliable;

  // --- platform -----------------------------------------------------------
  GpuPlatform platform = GpuPlatform::kV100;
  NetworkConfig net;
  int gpus_per_node = 8;
  // Intra-node interconnect for local aggregation (NVLink ~150 GB/s on the
  // EC2 nodes, PCIe ~10 GB/s on the local 1080 Ti nodes).
  double intra_node_bytes_per_sec = 150e9;
};

}  // namespace hipress

#endif  // HIPRESS_SRC_CASYNC_CONFIG_H_
