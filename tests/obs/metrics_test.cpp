// obs::MetricsRegistry — labeled series pulled from collectors, with
// Prometheus text and JSONL exporters plus the periodic sampler.
//
// Load-bearing properties:
//   * the registry holds no metric of its own: a snapshot is exactly the
//     series its attached collectors append, read at snapshot time;
//   * snapshots are wall-clock stamped and sorted by (name, labels);
//     series with equal name and labels are summed, and a detached
//     collector's series are gone from the next snapshot;
//   * the Prometheus exposition format is pinned (dashboards parse it):
//     one `# TYPE` line per family, contiguous families, escaped label
//     values;
//   * every JSONL line is a self-contained parseable JSON object;
//   * the sampler appends at least an initial and a final snapshot and
//     flips timing_enabled() for its lifetime.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace oselm::obs {
namespace {

TEST(MetricsHandles, CounterGaugeHistogramBasics) {
  // An owner keeps its own counter, gauge and histogram; its collector
  // reads them at snapshot time, so each snapshot sees current values.
  std::atomic<std::uint64_t> events{0};
  std::atomic<double> level{0.0};
  Histogram histogram;
  MetricsRegistry registry;
  const Labels owner{{"server", "s"}};
  const auto collector =
      registry.add_collector([&](MetricsSnapshot& snapshot) {
        snapshot.counters.push_back({"events_total", owner, events.load()});
        snapshot.gauges.push_back({"level", owner, level.load()});
        snapshot.histograms.push_back(
            {"wait_us", owner, histogram.snapshot()});
      });
  events += 42;
  level = 2.5;
  histogram.record(10.0);
  histogram.record(20.0);
  MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].labels, owner);
  EXPECT_EQ(snap.counters[0].value, 42u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 2.5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].value.count(), 2u);

  events += 1;
  level = 1.5;
  snap = registry.snapshot();
  EXPECT_EQ(snap.counters[0].value, 43u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 1.5);
}

TEST(MetricsRegistry, SnapshotIsStampedAndSorted) {
  MetricsRegistry registry;
  const auto collector = registry.add_collector([](MetricsSnapshot& snap) {
    snap.counters.push_back({"zz_total", {{"server", "s"}}, 7});
    snap.counters.push_back({"aa_total", {{"server", "s"}}, 1});
    snap.gauges.push_back({"mid_value", {{"server", "s"}}, 3.0});
  });
  EXPECT_TRUE(MetricsRegistry().snapshot().counters.empty());
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_GT(snap.captured_at_us, 0u);
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "aa_total");
  EXPECT_EQ(snap.counters[1].name, "zz_total");
  EXPECT_EQ(snap.counters[1].labels, (Labels{{"server", "s"}}));
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
  const auto unlabeled = registry.add_collector([](MetricsSnapshot& snap) {
    snap.counters.push_back({"steps_total", {}, 1});
    snap.counters.push_back({"steps_total_max", {}, 9});
    util::LatencyHistogram histogram;
    histogram.record(10.0);
    snap.histograms.push_back({"wait_us", {}, histogram});
  });
  const auto collector = attach_server(
      registry, "r0", {{"steps_total", 2}, {"steps_total_max", 8}});
  const auto other = attach_server(registry, "r1", {{"steps_total", 3}});
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

/// A collector exporting one counter, gauge and histogram series of
/// server "s": requests_total 3, queue_depth 2.5, latency_us {10}.
MetricsRegistry::CollectorHandle attach_one_of_each(MetricsRegistry& registry) {
  return registry.add_collector([](MetricsSnapshot& snap) {
    const Labels server{{"server", "s"}};
    snap.counters.push_back({"requests_total", server, 3});
    snap.gauges.push_back({"queue_depth", server, 2.5});
    util::LatencyHistogram histogram;
    histogram.record(10.0);
    snap.histograms.push_back({"latency_us", server, histogram});
  });
}

TEST(MetricsRegistry, PrometheusTextFormatIsPinned) {
  MetricsRegistry registry;
  const auto collector = attach_one_of_each(registry);
  const std::string text = registry.prometheus_text();

  EXPECT_NE(text.find("# TYPE requests_total counter\n"
                      "requests_total{server=\"s\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE queue_depth gauge\n"
                      "queue_depth{server=\"s\"} 2.5\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE latency_us summary\n"), std::string::npos);
  for (const char* quantile : {"0.5", "0.95", "0.99"}) {
    EXPECT_NE(text.find("latency_us{server=\"s\",quantile=\"" +
                        std::string(quantile) + "\"} "),
              std::string::npos)
        << text;
  }
  EXPECT_NE(text.find("latency_us_sum{server=\"s\"} 10\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("latency_us_count{server=\"s\"} 1\n"),
            std::string::npos)
      << text;
}

TEST(MetricsRegistry, JsonlLineIsSelfContainedJson) {
  MetricsRegistry registry;
  const auto collector = attach_one_of_each(registry);
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
  const JsonValue* requests = counters->find("requests_total{server=\"s\"}");
  ASSERT_NE(requests, nullptr) << line;
  EXPECT_DOUBLE_EQ(requests->number_value, 3.0);
  const JsonValue* gauges = root.find("gauges");
  ASSERT_NE(gauges, nullptr);
  const JsonValue* depth = gauges->find("queue_depth{server=\"s\"}");
  ASSERT_NE(depth, nullptr) << line;
  EXPECT_DOUBLE_EQ(depth->number_value, 2.5);
  const JsonValue* histograms = root.find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* latency = histograms->find("latency_us{server=\"s\"}");
  ASSERT_NE(latency, nullptr) << line;
  EXPECT_NE(latency->find("count"), nullptr);
}

TEST(MetricsRegistry, SamplerWritesParseableSeriesAndFlipsTimingFlag) {
  const std::string path =
      ::testing::TempDir() + "/oselm_metrics_sampler_test.jsonl";
  MetricsRegistry registry;
  std::atomic<std::uint64_t> ticks{0};
  const auto collector =
      registry.add_collector([&ticks](MetricsSnapshot& snapshot) {
        snapshot.counters.push_back(
            {"ticks_total", {{"server", "s"}}, ticks.load()});
      });
  EXPECT_FALSE(timing_enabled());
  ASSERT_TRUE(registry.start_sampler(path, /*period_ms=*/5));
  EXPECT_TRUE(timing_enabled());
  EXPECT_FALSE(registry.start_sampler(path, 5));  // one sampler at a time
  ticks += 3;
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
