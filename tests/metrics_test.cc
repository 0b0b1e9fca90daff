#include "src/common/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

namespace hipress {
namespace {

// ------------------------------------------------- mini JSON parser
// Just enough of a recursive-descent JSON parser to round-trip what
// MetricsRegistry::ToJson emits: objects, arrays, numbers, strings.
struct JsonValue;
using JsonObject = std::map<std::string, std::shared_ptr<JsonValue>>;
using JsonArray = std::vector<std::shared_ptr<JsonValue>>;

struct JsonValue {
  std::variant<double, std::string, JsonObject, JsonArray> value;

  double number() const { return std::get<double>(value); }
  const JsonObject& object() const { return std::get<JsonObject>(value); }
  const JsonArray& array() const { return std::get<JsonArray>(value); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  std::shared_ptr<JsonValue> Parse() {
    auto value = ParseValue();
    SkipSpace();
    EXPECT_EQ(pos_, text_.size()) << "trailing garbage";
    return value;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() {
    SkipSpace();
    EXPECT_LT(pos_, text_.size()) << "unexpected end of JSON";
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  void Expect(char c) {
    EXPECT_EQ(Peek(), c) << "at offset " << pos_;
    ++pos_;
  }

  std::shared_ptr<JsonValue> ParseValue() {
    const char c = Peek();
    auto value = std::make_shared<JsonValue>();
    if (c == '{') {
      value->value = ParseObject();
    } else if (c == '[') {
      value->value = ParseArray();
    } else if (c == '"') {
      value->value = ParseString();
    } else {
      value->value = ParseNumber();
    }
    return value;
  }

  JsonObject ParseObject() {
    JsonObject object;
    Expect('{');
    if (Peek() == '}') {
      ++pos_;
      return object;
    }
    for (;;) {
      const std::string key = ParseString();
      Expect(':');
      object[key] = ParseValue();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect('}');
      return object;
    }
  }

  JsonArray ParseArray() {
    JsonArray array;
    Expect('[');
    if (Peek() == ']') {
      ++pos_;
      return array;
    }
    for (;;) {
      array.push_back(ParseValue());
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect(']');
      return array;
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char escape = text_[pos_++];
        switch (escape) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'u': {
            // Only \u00XX (control chars) are emitted by the serializer.
            EXPECT_LE(pos_ + 4, text_.size());
            c = static_cast<char>(
                std::stoi(text_.substr(pos_ + 2, 2), nullptr, 16));
            pos_ += 4;
            break;
          }
          default: c = escape;
        }
      }
      out.push_back(c);
    }
    Expect('"');
    return out;
  }

  double ParseNumber() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    EXPECT_GT(pos_, start) << "expected a number";
    return std::stod(text_.substr(start, pos_ - start));
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ----------------------------------------------------------- counters etc.

TEST(MetricsTest, CounterIncrements) {
  MetricsRegistry registry;
  registry.counter("x").Increment();
  registry.counter("x").Increment(41);
  EXPECT_EQ(registry.counter_value("x"), 42u);
  EXPECT_EQ(registry.counter_value("missing"), 0u);
}

TEST(MetricsTest, GaugeLastWriteWins) {
  MetricsRegistry registry;
  registry.gauge("g").Set(1.5);
  registry.gauge("g").Set(-2.25);
  EXPECT_DOUBLE_EQ(registry.gauge_value("g"), -2.25);
}

TEST(MetricsTest, RegistrationReturnsStableReferences) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("stable");
  for (int i = 0; i < 100; ++i) {
    registry.counter("filler" + std::to_string(i));
  }
  counter.Increment(7);
  EXPECT_EQ(registry.counter_value("stable"), 7u);
}

TEST(MetricsTest, HistogramBucketsAndStats) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("h", {1.0, 10.0, 100.0});
  histogram.Observe(0.5);    // bucket 0 (le 1)
  histogram.Observe(1.0);    // bucket 0 (inclusive bound)
  histogram.Observe(50.0);   // bucket 2
  histogram.Observe(1e6);    // overflow
  EXPECT_EQ(histogram.count(), 4u);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.5);
  EXPECT_DOUBLE_EQ(histogram.max(), 1e6);
  const std::vector<uint64_t> counts = histogram.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);  // overflow
}

TEST(MetricsTest, HistogramFirstRegistrationFixesBounds) {
  MetricsRegistry registry;
  registry.histogram("h", {1.0, 2.0});
  Histogram& again = registry.histogram("h", {99.0});
  EXPECT_EQ(again.bounds().size(), 2u);
}

TEST(MetricsTest, BucketHelpers) {
  const auto exponential = HistogramBuckets::Exponential(1.0, 2.0, 4);
  EXPECT_EQ(exponential, (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
  const auto linear = HistogramBuckets::Linear(0.0, 5.0, 3);
  EXPECT_EQ(linear, (std::vector<double>{0.0, 5.0, 10.0}));
  EXPECT_EQ(HistogramBuckets::DefaultTime().size(), 20u);
  EXPECT_EQ(HistogramBuckets::DefaultBytes().size(), 22u);
}

TEST(MetricsTest, ConcurrentIncrementsDontLoseCounts) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("c");
  Histogram& histogram = registry.histogram("h");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        counter.Increment();
        histogram.Observe(static_cast<double>(i % 100));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.value(), 40000u);
  EXPECT_EQ(histogram.count(), 40000u);
}

// GCC 12 flags the inlined copy in `"g" + std::to_string(i)` as an
// overlapping memcpy: a known false positive of its -Wrestrict.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
TEST(MetricsTest, ConcurrentWritersAndJsonReaderAreSafe) {
  // Counter/gauge/histogram writers racing a ToJson snapshotter: the TSan
  // CI job runs this to prove the registry's cross-thread contract.
  MetricsRegistry registry;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&registry, t] {
      for (int i = 0; i < 5000; ++i) {
        registry.counter("w" + std::to_string(t)).Increment();
        registry.gauge("g" + std::to_string(t))
            .Set(static_cast<double>(i));
        registry.histogram("h").Observe(static_cast<double>(i % 64));
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      EXPECT_FALSE(registry.ToJson().empty());
    }
  });
  for (auto& writer : writers) {
    writer.join();
  }
  stop.store(true);
  reader.join();
  auto root = JsonParser(registry.ToJson()).Parse();
  const JsonObject& counters = root->object().at("counters")->object();
  EXPECT_DOUBLE_EQ(counters.at("w0")->number(), 5000.0);
  EXPECT_DOUBLE_EQ(counters.at("w2")->number(), 5000.0);
  EXPECT_DOUBLE_EQ(
      root->object().at("histograms")->object().at("h")->object()
          .at("count")->number(),
      15000.0);
}
#pragma GCC diagnostic pop

// ------------------------------------------------ single-owner tallies

TEST(LocalHistogramTest, MergeMatchesObservingEachValue) {
  // The same stream into a LocalHistogram (published once, into an empty
  // histogram) and straight into Observe: identical buckets, count, min,
  // max, and a bit-equal sum. Values include both bucket edges, the
  // overflow bucket, a negative and sums that round.
  MetricsRegistry registry;
  Histogram& direct = registry.histogram("direct", {1.0, 10.0, 100.0});
  Histogram& merged = registry.histogram("merged", {1.0, 10.0, 100.0});
  LocalHistogram local(&merged);
  const double values[] = {0.1, 1.0,  10.0, 3.3, 1e6, -2.5,
                           0.7, 99.9, 0.3,  7e-5, 100.0, 1e-300};
  for (const double value : values) {
    direct.Observe(value);
    local.Observe(value);
  }
  EXPECT_EQ(local.count(), std::size(values));
  EXPECT_EQ(merged.count(), 0u);  // nothing reaches the target unpublished
  local.Publish();
  EXPECT_EQ(local.count(), 0u);
  EXPECT_EQ(merged.bucket_counts(), direct.bucket_counts());
  EXPECT_EQ(merged.count(), direct.count());
  EXPECT_EQ(merged.min(), direct.min());
  EXPECT_EQ(merged.max(), direct.max());
  const double merged_sum = merged.sum();
  const double direct_sum = direct.sum();
  EXPECT_EQ(std::memcmp(&merged_sum, &direct_sum, sizeof(double)), 0);

  // A second publish adds to what is there; min/max/count stay exact.
  local.Observe(-7.0);
  local.Observe(2e6);
  direct.Observe(-7.0);
  direct.Observe(2e6);
  local.Publish();
  local.Publish();  // nothing new: a no-op
  EXPECT_EQ(merged.bucket_counts(), direct.bucket_counts());
  EXPECT_EQ(merged.count(), direct.count());
  EXPECT_EQ(merged.min(), -7.0);
  EXPECT_EQ(merged.max(), 2e6);
  EXPECT_NEAR(merged.sum(), direct.sum(), 1e-12 * std::abs(direct.sum()));
}

TEST(LocalHistogramTest, UnboundTallyPublishesNowhere) {
  LocalHistogram local;
  local.Observe(3.0);
  EXPECT_EQ(local.count(), 1u);
  local.Publish();
  EXPECT_EQ(local.count(), 1u);
}

TEST(CounterPublisherTest, PublishesTheIncreaseSinceTheLastPublish) {
  MetricsRegistry registry;
  CounterPublisher publisher(&registry.counter("c"));
  registry.counter("c").Increment(5);  // another writer's share
  publisher.Publish(3);
  publisher.Publish(3);
  EXPECT_EQ(registry.counter_value("c"), 8u);
  publisher.Publish(10);
  EXPECT_EQ(registry.counter_value("c"), 15u);
  CounterPublisher().Publish(99);  // unbound: no target, no effect
}

TEST(LocalHistogramTest, PublishRacesJsonReaderSafely) {
  // One thread owns the tallies and publishes them; another serializes the
  // registry meanwhile. The TSan CI job runs this: publishing is the only
  // point where a tally meets the registry's cross-thread contract.
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("h");
  Counter& counter = registry.counter("c");
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      EXPECT_FALSE(registry.ToJson().empty());
    }
  });
  std::thread owner([&] {
    LocalHistogram local(&histogram);
    CounterPublisher publisher(&counter);
    uint64_t total = 0;
    for (int round = 0; round < 500; ++round) {
      for (int i = 0; i < 20; ++i) {
        local.Observe(static_cast<double>(i));
        ++total;
      }
      local.Publish();
      publisher.Publish(total);
    }
  });
  owner.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(histogram.count(), 10000u);
  EXPECT_EQ(counter.value(), 10000u);
  EXPECT_EQ(histogram.min(), 0.0);
  EXPECT_EQ(histogram.max(), 19.0);
}

// -------------------------------------------------------- JSON round-trip

TEST(MetricsTest, JsonRoundTripThroughParser) {
  MetricsRegistry registry;
  registry.counter("engine.send_tasks").Increment(12);
  registry.counter("zeta").Increment(0);
  registry.gauge("train.throughput").Set(1234.5);
  registry.gauge("negative").Set(-0.125);
  Histogram& histogram = registry.histogram("lat_us", {1.0, 10.0});
  histogram.Observe(0.5);
  histogram.Observe(5.0);
  histogram.Observe(99.0);

  const std::string json = registry.ToJson();
  auto root = JsonParser(json).Parse();
  const JsonObject& top = root->object();
  ASSERT_EQ(top.count("counters"), 1u);
  ASSERT_EQ(top.count("gauges"), 1u);
  ASSERT_EQ(top.count("histograms"), 1u);

  const JsonObject& counters = top.at("counters")->object();
  EXPECT_EQ(counters.size(), 2u);
  EXPECT_DOUBLE_EQ(counters.at("engine.send_tasks")->number(), 12.0);
  EXPECT_DOUBLE_EQ(counters.at("zeta")->number(), 0.0);

  const JsonObject& gauges = top.at("gauges")->object();
  EXPECT_DOUBLE_EQ(gauges.at("train.throughput")->number(), 1234.5);
  EXPECT_DOUBLE_EQ(gauges.at("negative")->number(), -0.125);

  const JsonObject& hist = top.at("histograms")->object().at("lat_us")
                               ->object();
  EXPECT_DOUBLE_EQ(hist.at("count")->number(), 3.0);
  EXPECT_DOUBLE_EQ(hist.at("sum")->number(), 104.5);
  EXPECT_DOUBLE_EQ(hist.at("min")->number(), 0.5);
  EXPECT_DOUBLE_EQ(hist.at("max")->number(), 99.0);
  EXPECT_DOUBLE_EQ(hist.at("overflow")->number(), 1.0);
  const JsonArray& buckets = hist.at("buckets")->array();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_DOUBLE_EQ(buckets[0]->object().at("le")->number(), 1.0);
  EXPECT_DOUBLE_EQ(buckets[0]->object().at("count")->number(), 1.0);
  EXPECT_DOUBLE_EQ(buckets[1]->object().at("le")->number(), 10.0);
  EXPECT_DOUBLE_EQ(buckets[1]->object().at("count")->number(), 1.0);
}

// The same GCC 12 -Wrestrict false positive as above.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
TEST(MetricsTest, JsonNumbersRoundTripBitExactly) {
  // JsonNumber emits std::to_chars shortest round-trip literals: parsing
  // what ToJson wrote must reproduce the stored double bit-for-bit, with
  // no fixed-precision truncation (0.1, 1/3) and no overflow to inf at
  // the extremes of the double range.
  const double values[] = {0.1,
                           1.0 / 3.0,
                           -0.125,
                           1e300,
                           std::numeric_limits<double>::max(),
                           // Smallest normal; subnormals stay out because
                           // this test's std::stod-based parser reports
                           // ERANGE on them, not because JsonNumber can't
                           // print them.
                           std::numeric_limits<double>::min(),
                           1e-7,
                           123456789.123456789};
  MetricsRegistry registry;
  for (size_t i = 0; i < std::size(values); ++i) {
    registry.gauge("g" + std::to_string(i)).Set(values[i]);
  }
  auto root = JsonParser(registry.ToJson()).Parse();
  const JsonObject& gauges = root->object().at("gauges")->object();
  for (size_t i = 0; i < std::size(values); ++i) {
    const double parsed = gauges.at("g" + std::to_string(i))->number();
    EXPECT_EQ(std::memcmp(&parsed, &values[i], sizeof(double)), 0)
        << "gauge g" << i << " drifted: " << parsed << " vs " << values[i];
  }
}
#pragma GCC diagnostic pop

TEST(MetricsTest, JsonEscapesMetricNames) {
  MetricsRegistry registry;
  registry.counter("weird \"name\"\nwith\tescapes\\").Increment(3);
  const std::string json = registry.ToJson();
  auto root = JsonParser(json).Parse();
  const JsonObject& counters = root->object().at("counters")->object();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_DOUBLE_EQ(counters.at("weird \"name\"\nwith\tescapes\\")->number(),
                   3.0);
}

TEST(MetricsTest, JsonClampsNonFiniteGauges) {
  MetricsRegistry registry;
  registry.gauge("inf").Set(std::numeric_limits<double>::infinity());
  registry.gauge("nan").Set(std::nan(""));
  auto root = JsonParser(registry.ToJson()).Parse();
  const JsonObject& gauges = root->object().at("gauges")->object();
  EXPECT_DOUBLE_EQ(gauges.at("inf")->number(), 0.0);
  EXPECT_DOUBLE_EQ(gauges.at("nan")->number(), 0.0);
}

TEST(MetricsTest, NonFiniteGaugesAreCounted) {
  MetricsRegistry registry;
  registry.gauge("bad").Set(std::nan(""));
  registry.gauge("good").Set(1.0);
  auto root = JsonParser(registry.ToJson()).Parse();
  const JsonObject& counters = root->object().at("counters")->object();
  ASSERT_EQ(counters.count("metrics.nonfinite_gauges"), 1u);
  EXPECT_DOUBLE_EQ(counters.at("metrics.nonfinite_gauges")->number(), 1.0);
  EXPECT_EQ(registry.counter_value("metrics.nonfinite_gauges"), 1u);
  // Every dump of a still-broken gauge counts again.
  registry.ToJson();
  EXPECT_EQ(registry.counter_value("metrics.nonfinite_gauges"), 2u);
  // A healthy registry does not grow the synthetic counter.
  MetricsRegistry clean;
  clean.gauge("fine").Set(0.5);
  auto clean_root = JsonParser(clean.ToJson()).Parse();
  EXPECT_EQ(clean_root->object().at("counters")->object().count(
                "metrics.nonfinite_gauges"),
            0u);
}

TEST(MetricsTest, HistogramQuantilesInterpolate) {
  Histogram histogram(HistogramBuckets::Linear(10.0, 10.0, 10));
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 0.0);  // empty
  for (int i = 1; i <= 100; ++i) {
    histogram.Observe(static_cast<double>(i));
  }
  // Uniform 1..100: interpolated quantiles land within one bucket width.
  EXPECT_NEAR(histogram.Quantile(0.5), 50.0, 10.0);
  EXPECT_NEAR(histogram.Quantile(0.95), 95.0, 10.0);
  EXPECT_NEAR(histogram.Quantile(0.99), 99.0, 10.0);
  // Extremes clamp to the observed range.
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 100.0);
  EXPECT_GE(histogram.Quantile(0.0), 1.0);
}

TEST(MetricsTest, HistogramQuantileSingleObservation) {
  Histogram histogram({10.0});
  histogram.Observe(5.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.99), 5.0);
}

TEST(MetricsTest, HistogramQuantileBucketBoundaries) {
  // 10 samples in (.., 10], 10 in (10, 20]: the median rank lands exactly
  // on the shared bucket edge and must interpolate to that bound, with
  // higher q continuing smoothly into the next bucket.
  Histogram histogram({10.0, 20.0, 30.0});
  for (int i = 0; i < 10; ++i) {
    histogram.Observe(5.0);
    histogram.Observe(15.0);
  }
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.75), 12.5);
  // The ends clamp to the observed extremes, not the bucket bounds.
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 15.0);
  // Out-of-range q clamps rather than extrapolating.
  EXPECT_DOUBLE_EQ(histogram.Quantile(-1.0), 5.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(2.0), 15.0);
}

TEST(MetricsTest, JsonHistogramCarriesQuantiles) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("lat", {1.0, 10.0, 100.0});
  for (int i = 1; i <= 99; ++i) {
    histogram.Observe(static_cast<double>(i));
  }
  auto root = JsonParser(registry.ToJson()).Parse();
  const JsonObject& hist =
      root->object().at("histograms")->object().at("lat")->object();
  ASSERT_EQ(hist.count("p50"), 1u);
  ASSERT_EQ(hist.count("p95"), 1u);
  ASSERT_EQ(hist.count("p99"), 1u);
  EXPECT_LE(hist.at("p50")->number(), hist.at("p95")->number());
  EXPECT_LE(hist.at("p95")->number(), hist.at("p99")->number());
  EXPECT_LE(hist.at("p99")->number(), hist.at("max")->number());
}

TEST(MetricsTest, WriteJsonRoundTripsThroughFile) {
  MetricsRegistry registry;
  registry.counter("written").Increment(5);
  const std::string path =
      testing::TempDir() + "/metrics_test_write.json";
  ASSERT_TRUE(registry.WriteJson(path).ok());
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string contents;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(file);
  std::remove(path.c_str());
  auto root = JsonParser(contents).Parse();
  EXPECT_DOUBLE_EQ(
      root->object().at("counters")->object().at("written")->number(), 5.0);
}

TEST(MetricsTest, WriteJsonRejectsBadPath) {
  MetricsRegistry registry;
  EXPECT_FALSE(registry.WriteJson("/nonexistent-dir/x/y.json").ok());
}

TEST(MetricsTest, DefaultRegistryIsSingleton) {
  EXPECT_EQ(&MetricsRegistry::Default(), &MetricsRegistry::Default());
}

// ----------------------------------------------------------------- spans

TEST(SpanCollectorTest, RecordsInInsertionOrder) {
  SpanCollector collector;
  collector.Add(0, kTraceLaneNetUplink, "tx a", 10, 20);
  collector.Add(3, kTraceLaneCoordinator, "round", 5, 40);
  ASSERT_EQ(collector.size(), 2u);
  const std::vector<TraceSpan> spans = collector.spans();
  EXPECT_EQ(spans[0].node, 0);
  EXPECT_EQ(spans[0].lane, kTraceLaneNetUplink);
  EXPECT_EQ(spans[0].name, "tx a");
  EXPECT_EQ(spans[0].start, 10);
  EXPECT_EQ(spans[0].end, 20);
  EXPECT_EQ(spans[1].node, 3);
  EXPECT_EQ(spans[1].lane, kTraceLaneCoordinator);
}

TEST(SpanCollectorTest, ConcurrentAddsAreSafe) {
  SpanCollector collector;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&collector, t] {
      for (int i = 0; i < 1000; ++i) {
        collector.Add(t, 0, "s", i, i + 1);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(collector.size(), 4000u);
}

TEST(SpanCollectorTest, LaneNames) {
  EXPECT_STREQ(TraceLaneName(kTraceLaneNetUplink), "net:uplink");
  EXPECT_STREQ(TraceLaneName(kTraceLaneNetDownlink), "net:downlink");
  EXPECT_STREQ(TraceLaneName(kTraceLaneCoordinator), "coordinator");
}

}  // namespace
}  // namespace hipress
