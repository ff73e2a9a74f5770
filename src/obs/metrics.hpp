// Metrics registry: labeled series pulled from collectors, a periodic
// sampler, and Prometheus / JSONL exporters.
//
// The registry keeps no metric of its own. Every object that measures
// something (AsyncQServer, RouterQServer) owns its counters, histograms
// and gauges and attaches one collector that snapshot() calls to append
// them as series labeled with the owner, e.g.
// `oselm_async_steps_total{server="router/r1"}`, so each event is
// counted once and every series names the server it belongs to.
// Histograms wrap util::LatencyHistogram (quarter-octave buckets,
// merge-based) behind a mutex; they sit off the per-step hot path (batch
// linger, admission wait), so a mutexed record is fine there.
//
// Snapshots are wall-clock stamped (`captured_at_us`, microseconds since
// the Unix epoch) so they line up with AsyncServerStats/RouterStats
// captured_at_us and with trace timelines. Two writers, no network
// dependency:
//   - prometheus_text(): the text exposition format (one `# TYPE` line
//     per family, histograms as summaries with p50/p95/p99 quantile
//     lines) — serve the file with any static server or node_exporter's
//     textfile collector;
//   - jsonl_line(): one self-contained JSON object per snapshot,
//     appended to a .metrics.jsonl time-series file by the sampler.
//
// The sampler runs on a util::ThreadPool(1) lane (never a naked
// std::thread — the lint gate forbids those) and flips the global
// timing_enabled() flag while active, which is what gates the few
// instrumentation sites that need an extra clock read (e.g. batch-linger
// measurement) so the default-off serving path stays clock-free.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/latency_histogram.hpp"

namespace oselm::util {
class ThreadPool;
}  // namespace oselm::util

namespace oselm::obs {

/// Thread-safe wrapper over util::LatencyHistogram. Keep off per-step
/// hot paths (record takes a mutex, a leaf lock); fine for per-batch /
/// per-admission seams.
class Histogram {
 public:
  void record(double value) noexcept {
    const std::lock_guard<std::mutex> lock(mutex_);
    histogram_.record(value);
  }
  [[nodiscard]] util::LatencyHistogram snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return histogram_;
  }

 private:
  mutable std::mutex mutex_;
  util::LatencyHistogram histogram_;
};

/// (key, value) pairs, printed in this order.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// One series of a snapshot.
template <typename Value>
struct Series {
  std::string name;
  Labels labels;
  Value value{};
};

/// One timestamped view of every collector series, sorted by (name,
/// labels) so a family is contiguous; series with equal name and labels
/// are summed.
struct MetricsSnapshot {
  std::uint64_t captured_at_us = 0;  ///< wall clock, us since Unix epoch
  std::vector<Series<std::uint64_t>> counters;
  std::vector<Series<double>> gauges;
  std::vector<Series<util::LatencyHistogram>> histograms;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  using Collector = std::function<void(MetricsSnapshot&)>;
  struct Detach {
    std::uint64_t id = 0;
    void operator()(MetricsRegistry* registry) const noexcept {
      registry->remove_collector(id);
    }
  };
  /// Keeps a collector attached; destroying (or assigning over) it
  /// detaches the collector, waiting out a snapshot that is running it.
  /// While a sampler runs, detaching first writes one sample that still
  /// holds the collector's series, so an object shorter-lived than the
  /// period leaves its last values in the file. The registry must
  /// outlive its handles.
  using CollectorHandle = std::unique_ptr<MetricsRegistry, Detach>;

  /// Process-wide registry every server attaches its collector to.
  /// Tests build private instances instead.
  static MetricsRegistry& global();

  /// Attaches `collector`: every snapshot() calls it, in attach order,
  /// to append series (names must match the Prometheus grammar
  /// [a-zA-Z_:][a-zA-Z0-9_:]*). It runs on the snapshotting thread (the
  /// sampler lane) under the registry's collector lock, so it may take
  /// only leaf locks of its owner, and no caller may attach or detach
  /// while holding a lock it could wait on.
  [[nodiscard]] CollectorHandle add_collector(Collector collector);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Prometheus text exposition for a snapshot: one `# TYPE` line per
  /// family, `name{k="v",...} value` per series (label values escape \,
  /// " and newline), histograms as summaries (quantile labels 0.5 /
  /// 0.95 / 0.99 plus _sum/_count). Pinned by tests/obs/metrics_test.
  [[nodiscard]] static std::string prometheus_text(
      const MetricsSnapshot& snapshot);
  [[nodiscard]] std::string prometheus_text() const {
    return prometheus_text(snapshot());
  }

  /// One JSONL record: {"captured_at_us":..,"counters":{..},
  /// "gauges":{..},"histograms":{name:{count,min,mean,p50,p95,p99,max}}},
  /// each key a series' Prometheus spelling.
  [[nodiscard]] static std::string jsonl_line(const MetricsSnapshot& snapshot);

  /// Starts a background sampler appending jsonl_line(snapshot()) to
  /// `path` every `period_ms` (>= 1). Idempotent stop via
  /// stop_sampler(), which writes one final snapshot. While any sampler
  /// runs, timing_enabled() is true.
  bool start_sampler(const std::string& path, std::uint64_t period_ms);
  void stop_sampler();

 private:
  void sampler_loop(std::uint64_t period_ms);
  void write_sample();  ///< a snapshot line, if the sampler file is open
  void remove_collector(std::uint64_t id) noexcept;

  // Lock order: sampler_mutex_ > loop_mutex_; file_mutex_ >
  // collectors_mutex_ > the leaf locks collectors take (each Histogram's
  // internal mutex among them).
  mutable std::mutex collectors_mutex_;            // held while collectors run
  std::map<std::uint64_t, Collector> collectors_;  // by id: attach order
  std::uint64_t next_collector_id_ = 0;

  std::mutex sampler_mutex_;  // start/stop lifecycle (never held in loop)
  std::unique_ptr<util::ThreadPool> sampler_pool_;
  std::mutex file_mutex_;  // held across a whole sample
  std::ofstream sampler_file_;
  std::mutex loop_mutex_;  // sampler_stop_ + wakeup cv
  std::condition_variable loop_cv_;
  bool sampler_stop_ = false;
};

/// True while timing-hungry instrumentation should take clock reads:
/// set by MetricsRegistry sampler activity or explicitly (the tracer has
/// its own flag). Relaxed load — safe on hot paths.
[[nodiscard]] bool timing_enabled() noexcept;
void set_timing_enabled(bool enabled) noexcept;

/// Wall-clock microseconds since the Unix epoch (snapshot stamps and the
/// stats-satellite captured_at_us fields share this definition).
[[nodiscard]] std::uint64_t wall_clock_us() noexcept;

}  // namespace oselm::obs
