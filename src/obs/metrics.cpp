#include "obs/metrics.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <utility>

#include "obs/json.hpp"
#include "util/thread_pool.hpp"

namespace oselm::obs {
namespace {

std::atomic<bool> g_timing_enabled{false};

void append(std::string* out, double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  *out += buf;
}

void append(std::string* out, std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(value));
  *out += buf;
}

void append(std::string* out, const util::LatencyHistogram& histogram) {
  *out += histogram.to_json();
}

void add_to(std::uint64_t* sum, std::uint64_t value) { *sum += value; }
void add_to(double* sum, double value) { *sum += value; }
void add_to(util::LatencyHistogram* sum, const util::LatencyHistogram& value) {
  sum->merge(value);
}

/// Sorts series by (name, labels), summing series with equal keys.
template <typename Value>
void sort_and_sum(std::vector<Series<Value>>& series) {
  std::map<std::pair<std::string, Labels>, Value> merged;
  for (Series<Value>& s : series) {
    const auto [it, fresh] = merged.try_emplace(
        {std::move(s.name), std::move(s.labels)}, s.value);
    if (!fresh) add_to(&it->second, s.value);
  }
  series.clear();
  for (auto& [key, value] : merged) {
    series.push_back({key.first, key.second, std::move(value)});
  }
}

/// The Prometheus spelling of a series: name{k="v",...}, label values
/// escaped; just the name when there are no labels.
std::string series_text(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;
  std::string out = name + '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].first + "=\"";
    for (const char c : labels[i].second) {
      if (c == '\\' || c == '"' || c == '\n') out += '\\';
      out += c == '\n' ? 'n' : c;
    }
    out += '"';
  }
  return out + '}';
}

/// Appends `# TYPE name kind` when series `i` starts a new family.
template <typename Value>
void append_type_line(std::string* out, const std::vector<Series<Value>>& all,
                      std::size_t i, const char* kind) {
  if (i > 0 && all[i - 1].name == all[i].name) return;
  *out += "# TYPE " + all[i].name + ' ' + kind + '\n';
}

/// Prometheus lines of a counter or gauge family list.
template <typename Value>
void append_prometheus(std::string* out, const std::vector<Series<Value>>& all,
                       const char* kind) {
  for (std::size_t i = 0; i < all.size(); ++i) {
    append_type_line(out, all, i, kind);
    *out += series_text(all[i].name, all[i].labels) + ' ';
    append(out, all[i].value);
    *out += '\n';
  }
}

/// `"key":{"series":value,...}` for one kind of a JSONL record.
template <typename Value>
void append_json_object(std::string* out, const char* key,
                        const std::vector<Series<Value>>& all) {
  *out += '"' + std::string(key) + "\":{";
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i > 0) *out += ',';
    *out += '"' + json_escape(series_text(all[i].name, all[i].labels)) + "\":";
    append(out, all[i].value);
  }
  *out += '}';
}

}  // namespace

bool timing_enabled() noexcept {
  return g_timing_enabled.load(std::memory_order_relaxed);
}

void set_timing_enabled(bool enabled) noexcept {
  g_timing_enabled.store(enabled, std::memory_order_relaxed);
}

std::uint64_t wall_clock_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

MetricsRegistry::MetricsRegistry() = default;

MetricsRegistry::~MetricsRegistry() { stop_sampler(); }

MetricsRegistry& MetricsRegistry::global() {
  // Leaked: a server destroyed during static destruction still detaches
  // its collector from a live registry, whatever the destruction order.
  static MetricsRegistry* instance = new MetricsRegistry;
  return *instance;
}

MetricsRegistry::CollectorHandle MetricsRegistry::add_collector(
    Collector collector) {
  const std::lock_guard<std::mutex> lock(collectors_mutex_);
  const std::uint64_t id = next_collector_id_++;
  collectors_.emplace(id, std::move(collector));
  return CollectorHandle(this, Detach{id});
}

void MetricsRegistry::remove_collector(std::uint64_t id) noexcept {
  write_sample();  // the collector's last values, while a sampler runs
  const std::lock_guard<std::mutex> lock(collectors_mutex_);
  collectors_.erase(id);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.captured_at_us = wall_clock_us();
  {
    const std::lock_guard<std::mutex> lock(collectors_mutex_);
    for (const auto& [id, collector] : collectors_) collector(snap);
  }
  sort_and_sum(snap.counters);
  sort_and_sum(snap.gauges);
  sort_and_sum(snap.histograms);
  return snap;
}

std::string MetricsRegistry::prometheus_text(const MetricsSnapshot& snapshot) {
  std::string out;
  append_prometheus(&out, snapshot.counters, "counter");
  append_prometheus(&out, snapshot.gauges, "gauge");
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const Series<util::LatencyHistogram>& s = snapshot.histograms[i];
    append_type_line(&out, snapshot.histograms, i, "summary");
    for (const auto& [label, q] :
         {std::pair<const char*, double>{"0.5", 0.50},
          {"0.95", 0.95},
          {"0.99", 0.99}}) {
      Labels labels = s.labels;
      labels.emplace_back("quantile", label);
      out += series_text(s.name, labels) + ' ';
      append(&out, s.value.quantile(q));
      out += '\n';
    }
    out += series_text(s.name + "_sum", s.labels) + ' ';
    append(&out, s.value.sum());
    out += '\n' + series_text(s.name + "_count", s.labels) + ' ';
    append(&out, s.value.count());
    out += '\n';
  }
  return out;
}

std::string MetricsRegistry::jsonl_line(const MetricsSnapshot& snapshot) {
  std::string out = "{\"captured_at_us\":";
  append(&out, snapshot.captured_at_us);
  out += ',';
  append_json_object(&out, "counters", snapshot.counters);
  out += ',';
  append_json_object(&out, "gauges", snapshot.gauges);
  out += ',';
  append_json_object(&out, "histograms", snapshot.histograms);
  return out + '}';
}

bool MetricsRegistry::start_sampler(const std::string& path,
                                    std::uint64_t period_ms) {
  const std::lock_guard<std::mutex> lock(sampler_mutex_);
  if (sampler_pool_ != nullptr || path.empty()) return false;
  {
    // Truncate up front so a restart never appends to a stale series,
    // and so an unwritable path fails here rather than silently in the
    // background lane.
    const std::lock_guard<std::mutex> file_lock(file_mutex_);
    sampler_file_.open(path, std::ios::trunc);
    if (!sampler_file_) {
      sampler_file_.close();
      return false;
    }
  }
  {
    const std::lock_guard<std::mutex> loop_lock(loop_mutex_);
    sampler_stop_ = false;
  }
  set_timing_enabled(true);
  sampler_pool_ = std::make_unique<util::ThreadPool>(1);
  const std::uint64_t period = period_ms > 0 ? period_ms : 1;
  (void)sampler_pool_->submit([this, period] { sampler_loop(period); });
  return true;
}

void MetricsRegistry::write_sample() {
  const std::lock_guard<std::mutex> lock(file_mutex_);
  if (!sampler_file_.is_open()) return;
  sampler_file_ << jsonl_line(snapshot()) << '\n';
  sampler_file_.flush();
}

void MetricsRegistry::sampler_loop(std::uint64_t period_ms) {
  while (true) {
    write_sample();
    std::unique_lock<std::mutex> lock(loop_mutex_);
    if (loop_cv_.wait_for(lock, std::chrono::milliseconds(period_ms),
                          [this] { return sampler_stop_; })) {
      break;
    }
  }
  // Final snapshot so short runs always leave at least two points.
  write_sample();
}

void MetricsRegistry::stop_sampler() {
  const std::lock_guard<std::mutex> lock(sampler_mutex_);
  if (sampler_pool_ == nullptr) return;
  {
    const std::lock_guard<std::mutex> loop_lock(loop_mutex_);
    sampler_stop_ = true;
  }
  loop_cv_.notify_all();
  sampler_pool_.reset();  // joins the lane; the loop wrote its final line
  {
    const std::lock_guard<std::mutex> file_lock(file_mutex_);
    sampler_file_.close();
  }
  set_timing_enabled(false);
}

}  // namespace oselm::obs
