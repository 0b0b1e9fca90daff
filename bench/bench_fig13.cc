// Figure 13: convergence validation — compression-enabled training reaches
// the same quality as the no-compression baseline in a comparable number of
// iterations, while each iteration is cheaper, so wall-clock convergence is
// faster.
//
// Substitution (see DESIGN.md): the paper trains LSTM (perplexity 86.28)
// and ResNet50 (accuracy 77.11%) on 32 GPUs. We train a real MLP on a
// synthetic classification task through CaSync's task graphs + codecs
// with error feedback, and combine the measured steps-to-target with the
// per-iteration times of the corresponding simulated systems (Ring vs
// HiPress-CaSync-Ring(DGC), BytePS vs HiPress-CaSync-PS(TernGrad)).
#include "bench/bench_util.h"
#include "src/minidnn/dist_trainer.h"

using namespace hipress;
using namespace hipress::bench;

namespace {

struct CurveResult {
  DistTrainResult train;
  double seconds_per_step;
};

CurveResult RunCurve(const char* algorithm, StrategyKind strategy,
                     const char* model, const char* system,
                     const char* sim_algorithm) {
  DistTrainConfig config;
  config.num_workers = 4;
  config.batch_per_worker = 32;
  config.learning_rate = 0.05f;
  config.momentum = 0.9f;
  config.algorithm = algorithm ? algorithm : "";
  config.strategy = strategy;
  config.codec_params.sparsity_ratio = 0.25;
  config.codec_params.bitwidth = 4;
  // Harder task than the unit tests use, so the curves have a visible
  // climb (the paper's plots span hours of training).
  config.task.cluster_spread = 1.25f;
  config.learning_rate = 0.04f;
  auto trainer = DistTrainer::Create(config);
  if (!trainer.ok()) {
    std::fprintf(stderr, "fig13: %s\n", trainer.status().ToString().c_str());
    std::abort();
  }
  auto result = (*trainer)->Train(200, 5, 0.88);
  if (!result.ok()) {
    std::fprintf(stderr, "fig13: %s\n", result.status().ToString().c_str());
    std::abort();
  }

  const TrainReport report =
      Run(model, system, ClusterSpec::Local(16), sim_algorithm);
  CurveResult curve;
  curve.train = *result;
  curve.seconds_per_step = ToSeconds(report.iteration_time);
  return curve;
}

void Panel(const char* title, StrategyKind strategy, const char* algorithm,
           const char* model, const char* base_system,
           const char* hipress_system, const char* sim_algorithm) {
  Header(title);
  const CurveResult base =
      RunCurve(nullptr, strategy, model, base_system, sim_algorithm);
  const CurveResult compressed =
      RunCurve(algorithm, strategy, model, hipress_system, sim_algorithm);

  std::printf("%-26s %10s %12s %14s %14s\n", "Run", "steps@88%",
              "final acc", "sec/step", "time-to-88%");
  auto row = [](const char* label, const CurveResult& curve) {
    const int steps = curve.train.steps_to_target;
    std::printf("%-26s %10d %11.1f%% %13.4f %13.1fs\n", label, steps,
                curve.train.final_accuracy * 100.0, curve.seconds_per_step,
                steps > 0 ? steps * curve.seconds_per_step : -1.0);
  };
  row("no compression", base);
  row(algorithm, compressed);

  std::printf("\ncurves (eval accuracy %% and train perplexity):\n");
  std::printf("%-6s %12s %12s %12s %12s\n", "step", "base acc", "cpr acc",
              "base ppl", "cpr ppl");
  for (size_t i = 0; i < base.train.curve.size() &&
                     i < compressed.train.curve.size();
       i += 2) {
    std::printf("%-6d %11.1f%% %11.1f%% %12.3f %12.3f\n",
                base.train.curve[i].step,
                base.train.curve[i].accuracy * 100.0,
                compressed.train.curve[i].accuracy * 100.0,
                base.train.curve[i].perplexity,
                compressed.train.curve[i].perplexity);
  }
}

}  // namespace

int main() {
  Panel("Figure 13 (left, LSTM-substitute): Ring vs CaSync-Ring(DGC)",
        StrategyKind::kRing, "dgc", "lstm", "ring", "hipress-ring", "dgc");
  Panel("Figure 13 (right, ResNet50-substitute): PS vs CaSync-PS(TernGrad)",
        StrategyKind::kPs, "terngrad", "resnet50", "byteps", "hipress-ps",
        "terngrad");
  std::printf(
      "\npaper: compression converges to the same perplexity/accuracy with "
      "up to 28.6%% less wall-clock time\n");
  return 0;
}
