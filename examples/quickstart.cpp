// Quickstart: the three layers of HiPress in ~100 lines.
//
//   1. Compress a gradient with each built-in algorithm (CompLL library).
//   2. Synchronize real tensors across simulated workers (CaSync engine).
//   3. Simulate distributed training end to end and read the metrics.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/quickstart
#include <cstdio>

#include "src/casync/real_sync.h"
#include "src/common/rng.h"
#include "src/common/string_util.h"
#include "src/compress/registry.h"
#include "src/hipress/hipress.h"

using namespace hipress;

int main() {
  // ------------------------------------------------------------------
  // 1. Gradient compression: encode/decode a 4M-element gradient.
  // ------------------------------------------------------------------
  std::printf("== 1. compression codecs ==\n");
  Rng rng(42);
  Tensor gradient("fc6", 4 << 20);
  gradient.FillGaussian(rng);

  for (const char* name : {"onebit", "tbq", "terngrad", "dgc", "graddrop"}) {
    CompressorParams params;
    params.sparsity_ratio = 0.001;  // DGC/GradDrop keep 0.1%
    auto codec = CreateCompressor(name, params);
    if (!codec.ok()) {
      std::printf("  %s: %s\n", name, codec.status().ToString().c_str());
      return 1;
    }
    ByteBuffer encoded;
    if (auto status = (*codec)->Encode(gradient.span(), &encoded);
        !status.ok()) {
      std::printf("  %s: %s\n", name, status.ToString().c_str());
      return 1;
    }
    std::vector<float> decoded(gradient.size());
    (void)(*codec)->Decode(encoded, decoded);
    std::printf("  %-9s %9s -> %9s (%5.2f%%), rms error %.4f\n", name,
                HumanBytes(gradient.byte_size()).c_str(),
                HumanBytes(encoded.size()).c_str(),
                100.0 * encoded.size() / gradient.byte_size(),
                RmsDiff(gradient.span(), std::span<const float>(decoded)));
  }

  // ------------------------------------------------------------------
  // 2. CaSync on real tensors: 4 workers, PS with onebit. The engine runs
  //    the same task graph the simulator times, so one run gives both the
  //    synchronized gradient and its simulated sync time.
  // ------------------------------------------------------------------
  std::printf("\n== 2. compressed gradient synchronization (PS, 4 workers) ==\n");
  auto codec = CreateCompressor("onebit");
  RealGradient layer0;
  std::vector<Tensor> worker_grads;
  Tensor exact("exact", 1024);
  for (int w = 0; w < 4; ++w) {
    Rng worker_rng(100 + w);
    Tensor& tensor = worker_grads.emplace_back("layer0", 1024);
    tensor.FillGaussian(worker_rng);
    exact.Add(tensor);
  }
  for (const Tensor& grad : worker_grads) {
    layer0.inputs.push_back(grad.span());
  }
  Tensor synced("synced", 1024);
  layer0.result = synced.span();
  SyncConfig ps;  // the default strategy
  ps.num_nodes = 4;
  RealSync sync(ps, codec->get());
  auto sync_time = sync.Run({&layer0, 1}, /*partitions=*/2);
  if (!sync_time.ok()) {
    std::printf("  sync failed: %s\n", sync_time.status().ToString().c_str());
    return 1;
  }
  std::printf("  simulated sync:   %.3f ms\n", ToMillis(*sync_time));
  std::printf("  rms vs exact sum: %.4f (onebit is lossy; error feedback "
              "recovers it across steps)\n",
              RmsDiff(synced.span(), exact.span()));

  // ------------------------------------------------------------------
  // 3. End-to-end training simulation: Bert-large on 16 nodes.
  // ------------------------------------------------------------------
  std::printf("\n== 3. training simulation (Bert-large, 128 GPUs) ==\n");
  for (const char* system : {"ring", "hipress-ps"}) {
    HiPressOptions options;
    options.model = "bert-large";
    options.system = system;
    options.algorithm = "onebit";
    options.cluster = ClusterSpec::Ec2(16);
    auto result = RunTrainingSimulation(options);
    if (!result.ok()) {
      std::printf("  %s: %s\n", system, result.status().ToString().c_str());
      return 1;
    }
    std::printf("  %-12s %8.0f sequences/s, scaling efficiency %.2f, "
                "iteration %.1f ms\n",
                system, result->report.throughput,
                result->report.scaling_efficiency,
                ToMillis(result->report.iteration_time));
  }
  std::printf("\nSee examples/compll_tool.cpp for the DSL toolkit and\n"
              "examples/train_cluster.cpp for the full simulation CLI.\n");
  return 0;
}
