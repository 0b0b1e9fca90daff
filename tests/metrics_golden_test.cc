// Golden registry contents: every counter value, and every histogram's
// count, bucket counts, min and max, of the metrics a training run leaves
// in its registry, pinned as one FNV-1a hash per configuration. Histogram
// sums are compared one by one with a 1e-12 relative bound instead: where
// partial sums are merged (one per GPU device feeding gpu.kernel_us, one
// per simulator run), the last bits may round differently.
//
// Gauges are left out: several measure host wall time.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/models/model_profile.h"
#include "src/net/fault.h"
#include "src/strategies/presets.h"
#include "src/train/cluster_job.h"
#include "src/train/trainer.h"

namespace hipress {
namespace {

struct RegistryPrint {
  uint64_t hash = 14695981039346656037ULL;
  std::vector<double> sums;  // histogram sums, in name order
};

void FnvBytes(RegistryPrint* print, const char* data, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    print->hash ^= static_cast<unsigned char>(data[i]);
    print->hash *= 1099511628211ULL;
  }
}

// Folds one registry into `print`. ToJson serializes every number in
// shortest round-trip form, so its text carries the exact values: the
// "counters" block and the "histograms" block are hashed as they stand,
// except that each histogram's "sum" is cut out (its value goes to
// print->sums) and so are its interpolated quantiles, whose last bits
// depend on floating-point contraction (-march=x86-64-v3 fuses them);
// count, min, max and the buckets they derive from stay in the hash.
void AddRegistry(const MetricsRegistry& registry, RegistryPrint* print) {
  const std::string json = registry.ToJson();
  const size_t gauges = json.find(",\"gauges\":{");
  const size_t histograms = json.find(",\"histograms\":{");
  ASSERT_NE(gauges, std::string::npos);
  ASSERT_NE(histograms, std::string::npos);
  FnvBytes(print, json.data(), gauges);
  static constexpr char kSum[] = "\"sum\":";
  size_t cursor = histograms;
  for (size_t at = json.find(kSum, cursor); at != std::string::npos;
       at = json.find(kSum, cursor)) {
    FnvBytes(print, json.data() + cursor, at - cursor);
    const char* number = json.c_str() + at + sizeof(kSum) - 1;
    char* end = nullptr;
    print->sums.push_back(std::strtod(number, &end));
    cursor = static_cast<size_t>(end - json.c_str());
    const size_t quantiles = json.find(",\"p50\":", cursor);
    const size_t buckets = json.find(",\"buckets\":", cursor);
    ASSERT_NE(quantiles, std::string::npos);
    ASSERT_NE(buckets, std::string::npos);
    FnvBytes(print, json.data() + cursor, quantiles - cursor);
    cursor = buckets;
  }
  FnvBytes(print, json.data() + cursor, json.size() - cursor);
}

std::string SumsText(const std::vector<double>& sums) {
  std::string text;
  for (const double sum : sums) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g, ", sum);
    text += buffer;
  }
  return text;
}

void ExpectPrint(const char* name, const RegistryPrint& actual,
                 uint64_t hash, const std::vector<double>& sums) {
  EXPECT_EQ(actual.hash, hash)
      << name << std::hex << " registry hash 0x" << actual.hash;
  ASSERT_EQ(actual.sums.size(), sums.size())
      << name << " sums {" << SumsText(actual.sums) << "}";
  for (size_t i = 0; i < sums.size(); ++i) {
    const double bound = 1e-12 * std::max(std::abs(sums[i]), 1.0);
    EXPECT_NEAR(actual.sums[i], sums[i], bound)
        << name << " histogram #" << i << "; sums {"
        << SumsText(actual.sums) << "}";
  }
}

struct TrainingCase {
  const char* name;
  const char* system;
  const char* faults;
  uint64_t hash;
  std::vector<double> sums;
};

TEST(RegistryGoldenTest, SimulateTrainingRegistriesMatchRecordedValues) {
  // hipress-* run bulk coordination over the pipelined kernel stream;
  // byteps-oss runs its codec on the compute stream and its sends through
  // the node's serial path; ring-oss serializes codec and sends on that
  // path and pumps ordered collectives. The fault case drops messages and
  // degrades every link for a window, so the drop, retry and
  // degraded-transfer metrics are live.
  const TrainingCase cases[] = {
      {"hipress-ps",
       "hipress-ps",
       "",
       0x2a3a8a6815f854faULL,
       {88140288, 613953.36000000022, 123252.84000000017, 85558.608000000488,
        22684.015999999967, 88140288, 231495.46399999826, 0, 0,
        36246.855999999898, 88140288, 721.99049200000002, 0,
        1.9904919999999999}},
      {"hipress-ring",
       "hipress-ring",
       "",
       0x9641a8c07a6217d9ULL,
       {88139040, 89559.843999999881, 183251.51999999775, 125557.823999999,
        10226.44800000002, 88139040, 319035.79199999035, 0, 0, 0, 88139040,
        721.44638399999997, 0, 1.4463839999999999}},
      {"hipress-tree",
       "hipress-tree",
       "",
       0x7a54be19209a7803ULL,
       {88139040, 552935.57199999981, 183251.51999999778, 125557.823999999,
        10226.44800000002, 88139040, 319035.79199999035, 0, 0,
        6632.940000000006, 88139040, 721.483656, 0, 1.4836560000000001}},
      {"byteps-oss",
       "byteps-oss",
       "",
       0x3d5595f36670d023ULL,
       {133778.92800000042, 93954.959999999934, 8097.7680000000091, 76650720,
        235831.65599999967, 0, 0, 1790995.5679999993, 76650720,
        780.23796000000004, 0, 60.237960000000001}},
      {"ring-oss",
       "ring-oss",
       "",
       0x84bfce19c86be35ULL,
       {27220.703999999936, 22916.160000000022, 0, 76652544, 0, 0, 0, 0,
        76652544, 868.70263599999998, 0, 148.70263600000001}},
      {"faults",
       "hipress-ps",
       "drop=0.02,seed=5,degrade=*-*@100-300@0.4",
       0xce6b42913547d31ULL,
       {88140288, 639178.06899999978, 123252.84000000029, 85558.608000000226,
        22684.015999999985, 88140288, 231495.46400000007, 0, 0, 26900,
        127318.56100000005, 92552656, 722.68764499999997, 0,
        2.6876450000000003}},
  };
  auto profile = GetModelProfile("resnet50");
  ASSERT_TRUE(profile.ok());
  for (const TrainingCase& c : cases) {
    ClusterSpec cluster = ClusterSpec::Ec2(4);
    cluster.net.link_bandwidth = Bandwidth::Gbps(10.0);
    if (*c.faults != '\0') {
      auto faults = ParseFaultSpec(c.faults);
      ASSERT_TRUE(faults.ok()) << c.name << ": " << faults.status();
      cluster.net.faults = *faults;
    }
    auto config = MakeSystemConfig(c.system, cluster, "onebit");
    ASSERT_TRUE(config.ok()) << c.name;
    TrainOptions options;
    options.iterations = 4;
    auto run = SimulateTraining(*profile, *config, options);
    ASSERT_TRUE(run.ok()) << c.name << ": " << run.status();
    RegistryPrint print;
    AddRegistry(*run->metrics, &print);
    ExpectPrint(c.name, print, c.hash, c.sums);
  }
}

TEST(RegistryGoldenTest, ClusterJobRegistriesMatchRecordedValues) {
  // Two hipress-ps jobs on an 8-node 4:1 fat tree: the shared registry
  // (network, GPUs, engine totals) and each job's engine registry.
  ClusterJobsOptions options;
  options.cluster = ClusterSpec::Ec2(8);
  options.cluster.net.link_bandwidth = Bandwidth::Gbps(10.0);
  options.cluster.net.topology.kind = TopologyKind::kFatTree;
  options.cluster.net.topology.oversubscription = 4.0;
  options.cluster.net.topology.hosts_per_tor = 2;
  for (int k = 0; k < 2; ++k) {
    ClusterJobSpec spec;
    spec.model = "resnet50";
    spec.system = "hipress-ps";
    spec.algorithm = "onebit";
    spec.iterations = 3;
    options.jobs.push_back(spec);
  }
  auto run = RunClusterJobs(options);
  ASSERT_TRUE(run.ok()) << run.status();
  RegistryPrint print;
  AddRegistry(*run->metrics, &print);
  for (const ClusterJobReport& job : run->jobs) {
    ASSERT_NE(job.engine_metrics, nullptr) << job.name;
    AddRegistry(*job.engine_metrics, &print);
  }
  ExpectPrint("fat-tree", print, 0xad4c4e17ae75fc5aULL,
              {478987.37399997638, 541.67776900000001, 541.73597900000004,
               323571.54399999976, 121333500, 60666750, 618991.96499999997,
               132523.84799999939, 90899.555999999837, 16070.283000000018,
               60666750, 60666750, 670240.75599999935, 132523.84799999939,
               90899.555999999837, 16070.283000000018, 60666750});
}

}  // namespace
}  // namespace hipress
