#include "src/casync/real_sync.h"

#include <algorithm>
#include <utility>

#include "src/common/string_util.h"

namespace hipress {

RealSync::RealSync(SyncConfig config, const Compressor* codec)
    : config_(std::move(config)),
      codec_(codec),
      net_(&sim_, config_.num_nodes, config_.net) {
  config_.compression = codec != nullptr;
  if (codec != nullptr) {
    config_.algorithm = std::string(codec->name());
  }
  std::vector<GpuDevice*> gpus;
  for (int node = 0; node < config_.num_nodes; ++node) {
    gpus_.push_back(std::make_unique<GpuDevice>(&sim_, node));
    gpus.push_back(gpus_.back().get());
  }
  engine_ = std::make_unique<CaSyncEngine>(&sim_, &net_, std::move(gpus),
                                           config_);
}

StatusOr<SimTime> RealSync::Run(std::span<const RealGradient> gradients,
                                int partitions) {
  for (const RealGradient& gradient : gradients) {
    if (static_cast<int>(gradient.inputs.size()) != config_.num_nodes) {
      return InvalidArgumentError(
          StrFormat("real sync: %zu inputs for %d nodes",
                    gradient.inputs.size(), config_.num_nodes));
    }
    for (const std::span<const float> input : gradient.inputs) {
      if (input.size() != gradient.result.size()) {
        return InvalidArgumentError("real sync: worker gradient sizes differ");
      }
    }
  }

  SyncWorkspace workspace;
  const int k = std::max(1, partitions);
  std::vector<SyncData> bindings(gradients.size());
  std::vector<TaskGraph> graphs(gradients.size());
  for (size_t i = 0; i < gradients.size(); ++i) {
    const size_t elements = gradients[i].result.size();
    bindings[i] = SyncData{gradients[i].inputs, gradients[i].result, codec_,
                           &workspace};
    // Gradient id 0 for all: partition p's aggregator (PS) and root (tree)
    // is node p % n for every gradient.
    GradientSync sync;
    sync.bytes = elements * sizeof(float);
    sync.compress = codec_ != nullptr;
    sync.partitions = k;
    sync.rate = codec_ != nullptr ? codec_->CompressionRate(
                                        std::max<size_t>(1, elements / k))
                                  : 1.0;
    AppendSyncTasks(config_, sync, &graphs[i], &bindings[i]);
  }

  const SimTime start = sim_.now();
  size_t finished = 0;
  Status failure;
  for (TaskGraph& graph : graphs) {
    engine_->Execute(&graph, [&](const Status& status) {
      ++finished;
      if (failure.ok()) {
        failure = status;
      }
    });
  }
  sim_.Run();
  RETURN_IF_ERROR(failure);
  if (finished != graphs.size()) {
    return InternalError("real sync: a task graph did not finish");
  }
  RETURN_IF_ERROR(workspace.status());
  return sim_.now() - start;
}

}  // namespace hipress
