// Flight recorder, windowed time series and health watchdog
// (docs/OBSERVABILITY.md): ring semantics, the binary dump format and its
// Python decoder, the fatal-path dump hook, window aggregation, rule
// hysteresis, and the end-to-end crash post-mortem — a run with an
// unrecoverable node failure must leave a dump whose decoded tail
// reconstructs the failing node's last recorded events.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/flight_recorder.h"
#include "src/common/metrics.h"
#include "src/common/string_util.h"
#include "src/common/timeseries.h"
#include "src/common/watchdog.h"
#include "src/hipress/hipress.h"
#include "src/train/cluster_job.h"

namespace hipress {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

FlightRecorder::Options RingOptions(int nodes, size_t per_node,
                                    std::string dump_path = {}) {
  FlightRecorder::Options options;
  options.num_nodes = nodes;
  options.events_per_node = per_node;
  options.dump_path = std::move(dump_path);
  return options;
}

bool HavePython() {
  return std::system("python3 --version > /dev/null 2>&1") == 0;
}

// Runs tools/flight_decode.py over `dump` and returns the JSONL lines.
std::vector<std::string> DecodeDump(const std::string& dump,
                                    const std::string& extra_args = "") {
  const std::string out = dump + ".jsonl";
  const std::string command = "python3 \"" +
                              std::string(HIPRESS_SOURCE_DIR) +
                              "/tools/flight_decode.py\" \"" + dump + "\" " +
                              extra_args + " > \"" + out + "\" 2>/dev/null";
  EXPECT_EQ(std::system(command.c_str()), 0) << command;
  std::ifstream file(out);
  EXPECT_TRUE(file.good()) << out;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(file, line)) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

TEST(FlightRecorderTest, InternsStableIds) {
  FlightRecorder recorder(RingOptions(1, 8));
  const uint16_t send = recorder.Intern("net.send");
  const uint16_t drop = recorder.Intern("net.drop");
  EXPECT_NE(send, drop);
  EXPECT_EQ(send, recorder.Intern("net.send"));
  const std::vector<std::string> names = recorder.type_names();
  ASSERT_GT(names.size(), static_cast<size_t>(std::max(send, drop)));
  EXPECT_EQ(names[send], "net.send");
  EXPECT_EQ(names[drop], "net.drop");
}

TEST(FlightRecorderTest, RingKeepsNewestAfterWrap) {
  FlightRecorder recorder(RingOptions(2, 4));
  const uint16_t type = recorder.Intern("ev");
  for (uint64_t i = 0; i < 10; ++i) {
    recorder.Record(0, type, static_cast<SimTime>(100 + i), i, 2 * i);
  }
  EXPECT_EQ(recorder.events_recorded(), 10u);
  EXPECT_EQ(recorder.events_overwritten(), 6u);
  const std::vector<FlightRecord> records = recorder.Snapshot(0);
  ASSERT_EQ(records.size(), 4u);
  for (size_t i = 0; i < records.size(); ++i) {
    const uint64_t expect = 6 + i;  // events 6..9 survive
    EXPECT_EQ(records[i].time(), static_cast<SimTime>(100 + expect));
    EXPECT_EQ(records[i].type(), type);
    EXPECT_EQ(records[i].a0, expect);
    EXPECT_EQ(records[i].a1, 2 * expect);
  }
  EXPECT_TRUE(recorder.Snapshot(1).empty());
  // Out-of-range nodes are ignored, not fatal.
  recorder.Record(-1, type, 0);
  recorder.Record(99, type, 0);
  EXPECT_EQ(recorder.events_recorded(), 10u);
}

TEST(FlightRecorderTest, SerializeCarriesMagicAndTypeTable) {
  FlightRecorder recorder(RingOptions(1, 4));
  const uint16_t type = recorder.Intern("hello");
  recorder.Record(0, type, 42, 1, 2);
  const std::string bytes = recorder.Serialize();
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(bytes.substr(0, 4), "HPFR");
  EXPECT_NE(bytes.find("hello"), std::string::npos);
}

TEST(FlightRecorderTest, PythonDecoderRoundTrips) {
  if (!HavePython()) {
    GTEST_SKIP() << "python3 unavailable";
  }
  FlightRecorder recorder(RingOptions(2, 4));
  const uint16_t alpha = recorder.Intern("alpha");
  const uint16_t beta = recorder.Intern("beta");
  recorder.Record(0, alpha, 1000, 7, 8);
  recorder.Record(1, beta, 2000, 9, 10);
  recorder.Record(1, alpha, 3000, 11, 12);
  const std::string dump = TempPath("roundtrip.hpfr");
  ASSERT_TRUE(recorder.Dump(dump).ok());
  const std::vector<std::string> lines = DecodeDump(dump);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0],
            "{\"node\": 0, \"seq\": 0, \"t_ns\": 1000, \"type\": \"alpha\", "
            "\"a0\": 7, \"a1\": 8}");
  EXPECT_EQ(lines[1],
            "{\"node\": 1, \"seq\": 0, \"t_ns\": 2000, \"type\": \"beta\", "
            "\"a0\": 9, \"a1\": 10}");
  EXPECT_EQ(lines[2],
            "{\"node\": 1, \"seq\": 1, \"t_ns\": 3000, \"type\": \"alpha\", "
            "\"a0\": 11, \"a1\": 12}");
  // --node / --tail filter to one ring's newest records.
  const std::vector<std::string> tail =
      DecodeDump(dump, "--node 1 --tail 1");
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0], lines[2]);
}

TEST(FlightRecorderDeathTest, FatalCheckDumpsRings) {
  const std::string dump = TempPath("fatal.hpfr");
  std::remove(dump.c_str());
  EXPECT_DEATH(
      {
        FlightRecorder recorder(
            {.num_nodes = 1, .events_per_node = 8, .dump_path = dump});
        FlightRecorder::InstallGlobal(&recorder);
        recorder.Record(0, recorder.Intern("last.words"), 123, 4, 5);
        CHECK(false) << "boom";
      },
      "boom");
  std::ifstream file(dump, std::ios::binary);
  ASSERT_TRUE(file.good()) << "fatal handler did not write " << dump;
  char magic[4] = {};
  file.read(magic, 4);
  EXPECT_EQ(std::string(magic, 4), "HPFR");
}

TEST(WindowedSeriesTest, AggregatesWithinAndAcrossWindows) {
  WindowedSeries series("x", 10 * kMillisecond, 4);
  series.Observe(5 * kMillisecond, 2.0);
  series.Observe(7 * kMillisecond, 4.0);
  series.Observe(25 * kMillisecond, 10.0);
  const std::vector<SeriesWindow> windows = series.Windows();
  ASSERT_EQ(windows.size(), 3u);  // window 1 materialized empty
  EXPECT_EQ(windows[0].count, 2u);
  EXPECT_DOUBLE_EQ(windows[0].min, 2.0);
  EXPECT_DOUBLE_EQ(windows[0].max, 4.0);
  EXPECT_DOUBLE_EQ(windows[0].mean(), 3.0);
  EXPECT_EQ(windows[1].count, 0u);
  EXPECT_EQ(windows[2].count, 1u);
  EXPECT_DOUBLE_EQ(windows[2].last, 10.0);
  EXPECT_EQ(series.total_samples(), 3u);
  // Rolling baseline: only non-empty prior windows count.
  EXPECT_DOUBLE_EQ(series.RollingMedianBefore(8), 3.0);
}

TEST(WindowedSeriesTest, RingDropsOldestWindows) {
  WindowedSeries series("x", kMillisecond, 4);
  for (int i = 0; i < 6; ++i) {
    series.Observe(i * kMillisecond, static_cast<double>(i));
  }
  const std::vector<SeriesWindow> windows = series.Windows();
  ASSERT_EQ(windows.size(), 4u);
  EXPECT_DOUBLE_EQ(windows.front().last, 2.0);
  EXPECT_DOUBLE_EQ(windows.back().last, 5.0);
}

TEST(TimeSeriesHubTest, CounterAttachmentsSampleDeltas) {
  MetricsRegistry registry;
  TimeSeriesHub hub;
  hub.AttachCounter(&registry, "net.retries");
  registry.counter("net.retries").Increment(5);
  hub.SampleAll(10 * kMillisecond);
  registry.counter("net.retries").Increment(3);
  hub.SampleAll(10 * kMillisecond + hub.window_width());
  const WindowedSeries* series = hub.Find("net.retries");
  ASSERT_NE(series, nullptr);
  const std::vector<SeriesWindow> windows = series->Windows();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_DOUBLE_EQ(windows[0].last, 5.0);  // first delta = total so far
  EXPECT_DOUBLE_EQ(windows[1].last, 3.0);
  hub.AttachGauge(&registry, "sim.queue_depth");
  registry.gauge("sim.queue_depth").Set(17.0);
  hub.SampleAll(10 * kMillisecond + 2 * hub.window_width());
  EXPECT_DOUBLE_EQ(hub.Find("sim.queue_depth")->last_value(), 17.0);
}

// Drives `values` one window apart through a monitor holding `rule`.
HealthReport RunRule(const HealthRule& rule,
                     const std::vector<double>& values,
                     MetricsRegistry* metrics = nullptr,
                     FlightRecorder* recorder = nullptr) {
  TimeSeriesHub hub;
  HealthMonitor monitor(&hub, metrics, recorder);
  monitor.AddRule(rule);
  SimTime t = 0;
  for (const double value : values) {
    t += hub.window_width();
    hub.Series(rule.series).Observe(t, value);
    monitor.Evaluate(t);
  }
  return monitor.Finalize();
}

TEST(WatchdogTest, StallTripsAndClearsWithHysteresis) {
  HealthRule stall{"stall", "iter_ms", HealthRuleKind::kAboveMedianFactor,
                   3.0, 3};
  // A single slow window must NOT trip (trip_after = 2)...
  const HealthReport spike =
      RunRule(stall, {10, 10, 10, 10, 80, 10, 10, 10});
  EXPECT_TRUE(spike.trips.empty());
  EXPECT_TRUE(spike.healthy());
  // ...two consecutive ones must, and recovery must clear the rule.
  FlightRecorder recorder(RingOptions(1, 16));
  MetricsRegistry metrics;
  const HealthReport burst = RunRule(
      stall, {10, 10, 10, 10, 80, 80, 10, 10, 10}, &metrics, &recorder);
  ASSERT_EQ(burst.trips.size(), 1u);
  EXPECT_EQ(burst.trips[0].rule, "stall");
  EXPECT_GT(burst.trips[0].cleared_at, burst.trips[0].tripped_at);
  EXPECT_DOUBLE_EQ(burst.trips[0].observed, 80.0);
  EXPECT_TRUE(burst.healthy());
  EXPECT_DOUBLE_EQ(metrics.counter("health.trips").value(), 1.0);
  EXPECT_DOUBLE_EQ(metrics.gauge("health.stall").value(), 0.0);  // cleared
  // Trip + clear landed in the black box.
  const std::vector<FlightRecord> records = recorder.Snapshot(0);
  ASSERT_EQ(records.size(), 2u);
  const std::vector<std::string> names = recorder.type_names();
  EXPECT_EQ(names[records[0].type()], "health.trip:stall");
  EXPECT_EQ(names[records[1].type()], "health.clear:stall");
}

TEST(WatchdogTest, StillTrippedAtEndIsUnhealthy) {
  HealthRule stall{"stall", "iter_ms", HealthRuleKind::kAboveMedianFactor,
                   3.0, 3};
  const HealthReport report =
      RunRule(stall, {10, 10, 10, 10, 80, 80, 80, 80});
  ASSERT_EQ(report.trips.size(), 1u);
  EXPECT_LT(report.trips[0].cleared_at, 0);  // still open
  EXPECT_FALSE(report.healthy());
  ASSERT_EQ(report.tripped_at_end.size(), 1u);
  EXPECT_EQ(report.tripped_at_end[0], "stall");
  EXPECT_NE(report.Summary().find("STILL TRIPPED: stall"),
            std::string::npos);
}

TEST(WatchdogTest, AboveValueRuleArmsAfterMinHistory) {
  // min_history must gate absolute rules too: warm-up pool misses in the
  // first windows are expected and must not trip.
  HealthRule misses{"pool_miss_growth", "misses",
                    HealthRuleKind::kAboveValue, 0.0, 3};
  EXPECT_TRUE(RunRule(misses, {50, 20, 0, 0, 0, 0}).trips.empty());
  const HealthReport late = RunRule(misses, {50, 20, 0, 0, 7, 7, 7});
  ASSERT_EQ(late.trips.size(), 1u);
  EXPECT_EQ(late.trips[0].rule, "pool_miss_growth");
}

TEST(WatchdogTest, TripsReplayDeterministically) {
  HealthRule stall{"stall", "iter_ms", HealthRuleKind::kAboveMedianFactor,
                   3.0, 3};
  const std::vector<double> values = {10, 10, 10, 10, 80, 80, 10, 10, 10};
  const HealthReport a = RunRule(stall, values);
  const HealthReport b = RunRule(stall, values);
  ASSERT_EQ(a.trips.size(), b.trips.size());
  for (size_t i = 0; i < a.trips.size(); ++i) {
    EXPECT_EQ(a.trips[i].tripped_at, b.trips[i].tripped_at);
    EXPECT_EQ(a.trips[i].cleared_at, b.trips[i].cleared_at);
  }
}

TEST(TrainerObservabilityTest, HealthyRunReportsCleanBlackBox) {
  HiPressOptions options;
  options.model = "resnet50";
  options.system = "hipress-ps";
  options.cluster = ClusterSpec::Ec2(4);
  options.train.iterations = 3;
  auto result = RunTrainingSimulation(options);
  ASSERT_TRUE(result.ok()) << result.status();
  const TrainReport& report = result->report;
  ASSERT_NE(report.flight, nullptr);
  EXPECT_GT(report.flight->events_recorded(), 0u);
  EXPECT_EQ(report.flight->num_nodes(), 4);
  EXPECT_TRUE(report.health.enabled);
  EXPECT_EQ(report.health.evaluations, 3u);
  EXPECT_TRUE(report.health.healthy());
  EXPECT_GT(report.metrics->gauge("fr.events_recorded").value(), 0.0);
  EXPECT_DOUBLE_EQ(report.metrics->gauge("health.rules").value(), 4.0);
  EXPECT_DOUBLE_EQ(report.metrics->gauge("health.tripped_at_end").value(),
                   0.0);
}

TEST(TrainerObservabilityTest, RecorderOffLeavesResultsIdentical) {
  auto run = [](bool observability) {
    HiPressOptions options;
    options.model = "vgg19";
    options.system = "hipress-ring";
    options.cluster = ClusterSpec::Ec2(4);
    options.train.observability.flight_recorder = observability;
    options.train.observability.watchdog = observability;
    auto result = RunTrainingSimulation(options);
    EXPECT_TRUE(result.ok()) << result.status();
    return result->report;
  };
  const TrainReport on = run(true);
  const TrainReport off = run(false);
  EXPECT_EQ(on.iteration_time, off.iteration_time);
  EXPECT_EQ(on.throughput, off.throughput);
  EXPECT_EQ(off.flight, nullptr);
  EXPECT_FALSE(off.health.enabled);
}

TEST(ClusterObservabilityTest, MultiJobRunCarriesHealthAndRings) {
  ClusterJobsOptions options;
  options.cluster = ClusterSpec::Ec2(8);
  for (int k = 0; k < 2; ++k) {
    ClusterJobSpec spec;
    spec.model = "resnet50";
    spec.iterations = 3;
    options.jobs.push_back(spec);
  }
  auto run = RunClusterJobs(options);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_NE(run->flight, nullptr);
  EXPECT_EQ(run->flight->num_nodes(), 8);
  EXPECT_GT(run->flight->events_recorded(), 0u);
  EXPECT_TRUE(run->health.enabled);
  // One evaluation per finished job iteration.
  EXPECT_EQ(run->health.evaluations, 6u);
  EXPECT_TRUE(run->health.healthy());
  // Per-job stall rules + queue_blowup + pool_miss_growth.
  EXPECT_DOUBLE_EQ(run->metrics->gauge("health.rules").value(), 4.0);
}

// The acceptance path (ISSUE 9): an unrecoverable node failure writes a
// black-box dump mid-run whose decoded JSONL tail reconstructs the failing
// node's final recorded events byte-for-byte.
TEST(PostMortemTest, CrashDumpReconstructsFailingNodeTail) {
  if (!HavePython()) {
    GTEST_SKIP() << "python3 unavailable";
  }
  const std::string dump = TempPath("postmortem.hpfr");
  std::remove(dump.c_str());
  const int crashed = 3;
  HiPressOptions options;
  options.model = "resnet50";
  options.system = "hipress-ps";
  options.cluster = ClusterSpec::Ec2(4);
  options.cluster.net.faults.crashes.push_back(
      {crashed, FromMillis(40.0)});
  options.train.iterations = 3;
  options.train.observability.flight_dump_path = dump;
  auto result = RunTrainingSimulation(options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->report.degraded);
  ASSERT_NE(result->report.flight, nullptr);
  EXPECT_GT(result->report.flight->dumps_written(), 0u);

  // The in-memory ring for the crashed node is ground truth; the decoded
  // dump's tail for that node must match it record-for-record.
  const std::vector<FlightRecord> truth =
      result->report.flight->Snapshot(crashed);
  ASSERT_FALSE(truth.empty());
  const std::vector<std::string> names =
      result->report.flight->type_names();
  constexpr size_t kTail = 8;
  const std::vector<std::string> lines = DecodeDump(
      dump, StrFormat("--node %d --tail %zu", crashed, kTail));
  ASSERT_EQ(lines.size(), std::min(kTail, truth.size()));
  const size_t skip = truth.size() - lines.size();
  for (size_t i = 0; i < lines.size(); ++i) {
    const FlightRecord& record = truth[skip + i];
    const std::string expect = StrFormat(
        "\"t_ns\": %lld, \"type\": \"%s\", \"a0\": %llu, \"a1\": %llu}",
        static_cast<long long>(record.time()),
        names[record.type()].c_str(),
        static_cast<unsigned long long>(record.a0),
        static_cast<unsigned long long>(record.a1));
    EXPECT_NE(lines[i].find(expect), std::string::npos)
        << "line " << i << ": " << lines[i] << " vs " << expect;
  }
  // The run survived the crash, so the last dump reason on node 0 is the
  // end-of-run one; the mid-run retry-exhaustion dump happened first.
  const std::vector<std::string> node0 =
      DecodeDump(dump, "--node 0 --tail 1");
  ASSERT_EQ(node0.size(), 1u);
  EXPECT_NE(node0[0].find("fr.dump:end-of-run"), std::string::npos);
}

// A lossy multi-job run that loses a peer returns UNAVAILABLE before its
// end-of-run dump, so the black box must already hold the retry-budget
// exhaustion dump written by the job's transport through the shared
// recorder.
TEST(PostMortemTest, LossyMultiJobRunDumpsRetryExhaustion) {
  if (!HavePython()) {
    GTEST_SKIP() << "python3 unavailable";
  }
  const std::string dump = TempPath("multijob.hpfr");
  std::remove(dump.c_str());
  ClusterJobsOptions options;
  options.cluster = ClusterSpec::Ec2(8);
  auto faults = ParseFaultSpec("drop=0.2,seed=7");
  ASSERT_TRUE(faults.ok()) << faults.status();
  options.cluster.net.faults = *faults;
  options.jobs.resize(2);
  options.observability.flight_dump_path = dump;
  auto run = RunClusterJobs(options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kUnavailable) << run.status();
  ASSERT_TRUE(std::ifstream(dump).good()) << "no dump at " << dump;
  const std::vector<std::string> tail = DecodeDump(dump, "--tail 4");
  EXPECT_TRUE(std::ranges::any_of(tail, [](const std::string& line) {
    return line.find("\"type\": \"net.retry_exhausted\"") !=
           std::string::npos;
  }));
}

}  // namespace
}  // namespace hipress
