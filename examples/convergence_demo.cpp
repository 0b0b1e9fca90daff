// convergence_demo — Figure 13 in miniature: train the same (real) model
// with and without gradient compression through CaSync's task graphs
// and watch both reach the same accuracy, with the compressed run cheaper
// per iteration.
//
//   convergence_demo [algorithm]   (default: onebit; any registry name,
//                                   including DSL-built "dsl-terngrad")
#include <cstdio>
#include <string>

#include "src/hipress/hipress.h"
#include "src/minidnn/dist_trainer.h"

using namespace hipress;

int main(int argc, char** argv) {
  const std::string algorithm = argc > 1 ? argv[1] : "onebit";
  // DSL-authored algorithms participate through the same registry.
  if (auto status = RegisterDslAlgorithms(); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  auto make_config = [&](const std::string& name) {
    DistTrainConfig config;
    config.num_workers = 4;
    config.batch_per_worker = 32;
    config.learning_rate = 0.05f;
    config.momentum = 0.9f;
    config.algorithm = name;
    config.codec_params.sparsity_ratio = 0.25;
    config.codec_params.bitwidth = 4;
    return config;
  };

  std::printf("4 workers x batch 32, synthetic 4-class task, PS topology\n");
  std::printf("%-6s %16s %16s\n", "step", "baseline acc",
              (algorithm + " acc").c_str());

  auto baseline = DistTrainer::Create(make_config(""));
  auto compressed = DistTrainer::Create(make_config(algorithm));
  if (!baseline.ok() || !compressed.ok()) {
    std::fprintf(stderr, "setup failed: %s / %s\n",
                 baseline.status().ToString().c_str(),
                 compressed.status().ToString().c_str());
    return 1;
  }
  auto baseline_result = (*baseline)->Train(150, 10, 0.95);
  auto compressed_result = (*compressed)->Train(150, 10, 0.95);
  if (!baseline_result.ok() || !compressed_result.ok()) {
    std::fprintf(stderr, "training failed\n");
    return 1;
  }
  for (size_t i = 0; i < baseline_result->curve.size(); ++i) {
    std::printf("%-6d %15.1f%% %15.1f%%\n", baseline_result->curve[i].step,
                baseline_result->curve[i].accuracy * 100.0,
                compressed_result->curve[i].accuracy * 100.0);
  }
  std::printf("\nsteps to 95%%: baseline %d, %s %d\n",
              baseline_result->steps_to_target, algorithm.c_str(),
              compressed_result->steps_to_target);
  std::printf("(with compression each step ships a fraction of the bytes —\n"
              " see bench_fig13 for the combined wall-clock picture)\n");
  return 0;
}
