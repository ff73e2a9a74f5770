// obs::MetricsRegistry — named counters/gauges/histograms and labeled
// collector series, with Prometheus text and JSONL exporters plus the
// periodic sampler.
//
// Load-bearing properties:
//   * registration validates names against the Prometheus grammar and
//     refuses cross-kind re-registration; same-kind re-registration
//     returns the SAME handle;
//   * snapshots are wall-clock stamped and sorted by (name, labels);
//     collector series with equal name and labels are summed, and a
//     detached collector's series are gone from the next snapshot;
//   * the Prometheus exposition format is pinned (dashboards parse it):
//     one `# TYPE` line per family, contiguous families, escaped label
//     values;
//   * every JSONL line is a self-contained parseable JSON object;
//   * the sampler appends at least an initial and a final snapshot and
//     flips timing_enabled() for its lifetime.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "util/thread_pool.hpp"

namespace oselm::obs {
namespace {

TEST(MetricsHandles, CounterGaugeHistogramBasics) {
  Counter counter;
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);

  Gauge gauge;
  gauge.set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.add(-1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);

  Histogram histogram;
  histogram.record(10.0);
  histogram.record(20.0);
  EXPECT_EQ(histogram.snapshot().count(), 2u);
}

TEST(MetricsHandles, ConcurrentCounterAddsSumExactly) {
  Counter counter;
  util::ThreadPool pool(4);
  std::vector<std::future<void>> futures;
  futures.reserve(4);
  for (int t = 0; t < 4; ++t) {
    futures.push_back(pool.submit([&counter] {
      for (int i = 0; i < 10'000; ++i) counter.add();
    }));
  }
  for (std::future<void>& f : futures) f.get();
  EXPECT_EQ(counter.value(), 40'000u);
}

TEST(MetricsRegistry, ValidatesNamesAndKinds) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.counter(""), std::invalid_argument);
  EXPECT_THROW(registry.counter("1leading_digit"), std::invalid_argument);
  EXPECT_THROW(registry.counter("has-dash"), std::invalid_argument);
  EXPECT_THROW(registry.gauge("has space"), std::invalid_argument);
  EXPECT_NO_THROW(registry.counter("ok_name_total"));
  EXPECT_NO_THROW(registry.gauge("ns:scoped_value"));

  // Same kind: same handle. Other kind: refused.
  Counter& a = registry.counter("shared");
  Counter& b = registry.counter("shared");
  EXPECT_EQ(&a, &b);
  EXPECT_THROW(registry.gauge("shared"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("shared"), std::invalid_argument);
}

TEST(MetricsRegistry, SnapshotIsStampedAndSorted) {
  MetricsRegistry registry;
  registry.counter("zz_total").add(7);
  registry.counter("aa_total").add(1);
  registry.gauge("mid_value").set(3.0);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_GT(snap.captured_at_us, 0u);
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "aa_total");
  EXPECT_EQ(snap.counters[1].name, "zz_total");
  EXPECT_TRUE(snap.counters[1].labels.empty());
  EXPECT_EQ(snap.counters[1].value, 7u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 3.0);
}

/// A collector exporting `counters` as `name{server="<server>"}` series.
MetricsRegistry::CollectorHandle attach_server(
    MetricsRegistry& registry, const std::string& server,
    std::vector<std::pair<std::string, std::uint64_t>> counters) {
  return registry.add_collector([server, counters](MetricsSnapshot& snapshot) {
    for (const auto& [name, value] : counters) {
      snapshot.counters.push_back({name, {{"server", server}}, value});
    }
  });
}

TEST(MetricsRegistry, CollectorSeriesWithEqualLabelsAreSummed) {
  MetricsRegistry registry;
  const auto first = attach_server(registry, "a", {{"events_total", 3}});
  const auto second = attach_server(registry, "a", {{"events_total", 4}});
  const auto third = attach_server(registry, "b", {{"events_total", 5}});
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "events_total");
  EXPECT_EQ(snap.counters[0].labels, (Labels{{"server", "a"}}));
  EXPECT_EQ(snap.counters[0].value, 7u);
  EXPECT_EQ(snap.counters[1].labels, (Labels{{"server", "b"}}));
  EXPECT_EQ(snap.counters[1].value, 5u);
}

TEST(MetricsRegistry, DetachedCollectorSeriesLeaveTheNextSnapshot) {
  MetricsRegistry registry;
  auto kept = attach_server(registry, "kept", {{"events_total", 1}});
  auto dropped = attach_server(registry, "dropped", {{"events_total", 2}});
  EXPECT_EQ(registry.snapshot().counters.size(), 2u);
  {
    const MetricsRegistry::CollectorHandle gone = std::move(dropped);
  }
  MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].labels, (Labels{{"server", "kept"}}));
  // Assigning over a handle detaches what it held.
  kept = attach_server(registry, "replacement", {{"events_total", 3}});
  snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].labels, (Labels{{"server", "replacement"}}));
  kept = MetricsRegistry::CollectorHandle();
  EXPECT_TRUE(registry.snapshot().counters.empty());
}

TEST(MetricsRegistry, LabeledFamiliesGetOneTypeLineAndStayContiguous) {
  MetricsRegistry registry;
  // "steps_total_max" extends the "steps_total" prefix and sorts between
  // the unlabeled and the labeled spellings as plain text; the family
  // must stay in one piece anyway.
  registry.counter("steps_total").add(1);
  registry.counter("steps_total_max").add(9);
  const auto collector = attach_server(
      registry, "r0", {{"steps_total", 2}, {"steps_total_max", 8}});
  const auto other = attach_server(registry, "r1", {{"steps_total", 3}});
  registry.histogram("wait_us").record(10.0);
  const auto histograms = registry.add_collector([](MetricsSnapshot& snap) {
    util::LatencyHistogram histogram;
    histogram.record(20.0);
    snap.histograms.push_back({"wait_us", {{"server", "r0"}}, histogram});
  });
  EXPECT_EQ(registry.prometheus_text(),
            "# TYPE steps_total counter\n"
            "steps_total 1\n"
            "steps_total{server=\"r0\"} 2\n"
            "steps_total{server=\"r1\"} 3\n"
            "# TYPE steps_total_max counter\n"
            "steps_total_max 9\n"
            "steps_total_max{server=\"r0\"} 8\n"
            "# TYPE wait_us summary\n"
            "wait_us{quantile=\"0.5\"} 10\n"
            "wait_us{quantile=\"0.95\"} 10\n"
            "wait_us{quantile=\"0.99\"} 10\n"
            "wait_us_sum 10\n"
            "wait_us_count 1\n"
            "wait_us{server=\"r0\",quantile=\"0.5\"} 20\n"
            "wait_us{server=\"r0\",quantile=\"0.95\"} 20\n"
            "wait_us{server=\"r0\",quantile=\"0.99\"} 20\n"
            "wait_us_sum{server=\"r0\"} 20\n"
            "wait_us_count{server=\"r0\"} 1\n");
}

TEST(MetricsRegistry, LabelValuesAreEscapedInBothExporters) {
  MetricsRegistry registry;
  const std::string server = "say \"hi\"\\\nbye";
  const auto collector = attach_server(registry, server, {{"events_total", 6}});
  const MetricsSnapshot snap = registry.snapshot();
  const std::string text = MetricsRegistry::prometheus_text(snap);
  EXPECT_NE(text.find("events_total{server=\"say \\\"hi\\\"\\\\\\nbye\"} 6\n"),
            std::string::npos)
      << text;
  // The escaped newline keeps the series on one line.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2) << text;

  const std::string line = MetricsRegistry::jsonl_line(snap);
  JsonValue root;
  std::string error;
  ASSERT_TRUE(parse_json(line, &root, &error)) << error << "\n" << line;
  const JsonValue* counters = root.find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* events =
      counters->find("events_total{server=\"say \\\"hi\\\"\\\\\\nbye\"}");
  ASSERT_NE(events, nullptr) << line;
  EXPECT_DOUBLE_EQ(events->number_value, 6.0);
}

TEST(MetricsRegistry, PrometheusTextFormatIsPinned) {
  MetricsRegistry registry;
  registry.counter("requests_total").add(3);
  registry.gauge("queue_depth").set(2.5);
  registry.histogram("latency_us").record(10.0);
  const std::string text = registry.prometheus_text();

  EXPECT_NE(text.find("# TYPE requests_total counter\nrequests_total 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE queue_depth gauge\nqueue_depth 2.5\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE latency_us summary\n"), std::string::npos);
  for (const char* quantile : {"0.5", "0.95", "0.99"}) {
    EXPECT_NE(text.find("latency_us{quantile=\"" + std::string(quantile) +
                        "\"} "),
              std::string::npos)
        << text;
  }
  EXPECT_NE(text.find("latency_us_sum 10\n"), std::string::npos) << text;
  EXPECT_NE(text.find("latency_us_count 1\n"), std::string::npos) << text;
}

TEST(MetricsRegistry, JsonlLineIsSelfContainedJson) {
  MetricsRegistry registry;
  registry.counter("events_total").add(5);
  registry.gauge("level").set(-1.25);
  registry.histogram("lat_us").record(100.0);
  const std::string line = MetricsRegistry::jsonl_line(registry.snapshot());

  JsonValue root;
  std::string error;
  ASSERT_TRUE(parse_json(line, &root, &error)) << error << "\n" << line;
  ASSERT_TRUE(root.is_object());
  const JsonValue* stamp = root.find("captured_at_us");
  ASSERT_NE(stamp, nullptr);
  EXPECT_TRUE(stamp->is_number());
  const JsonValue* counters = root.find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* events = counters->find("events_total");
  ASSERT_NE(events, nullptr);
  EXPECT_DOUBLE_EQ(events->number_value, 5.0);
  const JsonValue* gauges = root.find("gauges");
  ASSERT_NE(gauges, nullptr);
  const JsonValue* level = gauges->find("level");
  ASSERT_NE(level, nullptr);
  EXPECT_DOUBLE_EQ(level->number_value, -1.25);
  const JsonValue* histograms = root.find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* lat = histograms->find("lat_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_NE(lat->find("count"), nullptr);
}

TEST(MetricsRegistry, SamplerWritesParseableSeriesAndFlipsTimingFlag) {
  const std::string path =
      ::testing::TempDir() + "/oselm_metrics_sampler_test.jsonl";
  MetricsRegistry registry;
  Counter& ticks = registry.counter("ticks_total");
  EXPECT_FALSE(timing_enabled());
  ASSERT_TRUE(registry.start_sampler(path, /*period_ms=*/5));
  EXPECT_TRUE(timing_enabled());
  EXPECT_FALSE(registry.start_sampler(path, 5));  // one sampler at a time
  ticks.add(3);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  registry.stop_sampler();
  EXPECT_FALSE(timing_enabled());
  registry.stop_sampler();  // idempotent

  std::ifstream file(path);
  ASSERT_TRUE(file.is_open());
  std::string line;
  std::size_t lines = 0;
  std::uint64_t last_stamp = 0;
  while (std::getline(file, line)) {
    ++lines;
    JsonValue root;
    std::string error;
    ASSERT_TRUE(parse_json(line, &root, &error)) << error << "\n" << line;
    const JsonValue* stamp = root.find("captured_at_us");
    ASSERT_NE(stamp, nullptr);
    EXPECT_GE(static_cast<std::uint64_t>(stamp->number_value), last_stamp);
    last_stamp = static_cast<std::uint64_t>(stamp->number_value);
  }
  EXPECT_GE(lines, 2u);  // at least the initial and the final snapshot
  std::remove(path.c_str());
}

TEST(MetricsRegistry, DetachingCollectorLeavesItsLastValuesInTheSeries) {
  // A collector that lives shorter than the sampling period still gets
  // one line: detaching writes a sample taken with it attached.
  const std::string path =
      ::testing::TempDir() + "/oselm_metrics_detach_test.jsonl";
  MetricsRegistry registry;
  ASSERT_TRUE(registry.start_sampler(path, /*period_ms=*/60'000));
  {
    const auto collector =
        attach_server(registry, "short-lived", {{"events_total", 11}});
  }
  registry.stop_sampler();

  std::ifstream file(path);
  ASSERT_TRUE(file.is_open());
  std::string line;
  std::vector<bool> with_series;  // per line
  while (std::getline(file, line)) {
    JsonValue root;
    std::string error;
    ASSERT_TRUE(parse_json(line, &root, &error)) << error << "\n" << line;
    const JsonValue* events = root.find("counters")->find(
        "events_total{server=\"short-lived\"}");
    if (events != nullptr) {
      EXPECT_DOUBLE_EQ(events->number_value, 11.0);
    }
    with_series.push_back(events != nullptr);
  }
  // The detach sample has the series (the lane's first sample may too,
  // if it ran after the attach); the final sample, after it, has not.
  ASSERT_GE(with_series.size(), 3u);
  EXPECT_GE(std::count(with_series.begin(), with_series.end(), true), 1);
  EXPECT_FALSE(with_series.back());
  std::remove(path.c_str());
}

TEST(MetricsRegistry, SamplerRefusesUnwritablePath) {
  MetricsRegistry registry;
  EXPECT_FALSE(registry.start_sampler("", 5));
  EXPECT_FALSE(
      registry.start_sampler("/nonexistent-dir-zz/metrics.jsonl", 5));
  EXPECT_FALSE(timing_enabled());
}

TEST(MetricsGlobals, WallClockLooksLikeUnixMicroseconds) {
  const std::uint64_t us = wall_clock_us();
  // After 2020-01-01 and before 2100-01-01, in microseconds.
  EXPECT_GT(us, 1'577'836'800'000'000u);
  EXPECT_LT(us, 4'102'444'800'000'000u);
}

}  // namespace
}  // namespace oselm::obs
