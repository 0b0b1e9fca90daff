// Gradient synchronization on real bytes.
//
// RealSync binds each gradient's CaSync task graph to real data (SyncData,
// src/casync/builder.h) and runs it on a CaSyncEngine over a private
// simulated cluster. The graphs are the ones the timing simulation builds;
// their actions move the bytes in dependency order while the simulator
// prices the same tasks. One Run therefore yields the synchronized values
// and the simulated time they took, and the result is by construction
// what the engine's PS, ring and tree graphs compute.
#ifndef HIPRESS_SRC_CASYNC_REAL_SYNC_H_
#define HIPRESS_SRC_CASYNC_REAL_SYNC_H_

#include <memory>
#include <span>
#include <vector>

#include "src/casync/builder.h"
#include "src/casync/config.h"
#include "src/casync/engine.h"
#include "src/common/status.h"
#include "src/compress/compressor.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"
#include "src/simgpu/gpu.h"

namespace hipress {

// One gradient of a RealSync::Run.
struct RealGradient {
  // One gradient per node, each the size of `result`.
  std::vector<std::span<const float>> inputs;
  // Receives the element-wise sum of the inputs, or, compressed, each
  // partition's decode(encode(sum)).
  std::span<float> result;
};

class RealSync {
 public:
  // `config` chooses the strategy, the node count and the engine's options
  // (bulk, pipelining, ...); its compression fields follow `codec`, which
  // is null for raw sync and must outlive this object.
  RealSync(SyncConfig config, const Compressor* codec);
  // The engine keeps the addresses of the simulator and the network.
  RealSync(const RealSync&) = delete;
  RealSync& operator=(const RealSync&) = delete;

  // Synchronizes every gradient concurrently, each split into `partitions`
  // element ranges (the remainder to the leading ones), and runs the
  // simulator until they finish. Returns the simulated time they took.
  StatusOr<SimTime> Run(std::span<const RealGradient> gradients,
                        int partitions);

 private:
  SyncConfig config_;
  const Compressor* codec_;
  Simulator sim_;
  Network net_;
  std::vector<std::unique_ptr<GpuDevice>> gpus_;
  std::unique_ptr<CaSyncEngine> engine_;
};

}  // namespace hipress

#endif  // HIPRESS_SRC_CASYNC_REAL_SYNC_H_
