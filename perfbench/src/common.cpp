#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "linalg/kernels.hpp"

extern char** environ;

namespace perfbench {

namespace {

/// `text` as a JSON string literal, quotes included.
std::string json_string(const std::string& text) {
  std::string out(1, '"');
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

/// Full-precision rendering: the contract wants every digit as measured.
std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

Options parse_options(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + key);
    }
    const std::string value = argv[++i];
    if (key == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
      if (!(options.seconds > 0.0) || options.seconds > 600.0) {
        throw std::invalid_argument("--seconds must be in (0, 600]");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      options.trace = value == "1";
    } else if (key == "--trace-out") {
      options.trace_out = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return options;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(index, values.size() - 1));
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof original_, &original_);
}

void CpuRotation::pin(std::size_t turn) const {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[turn % cpus_.size()], &one);
  (void)sched_setaffinity(0, sizeof one, &one);
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void Report::fail(const std::string& why) {
  correct = false;
  problems.push_back(why);
}

void print_config_line(const Options& options) {
  std::string overrides;
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    const std::string entry = *env;
    if (entry.rfind("OSELM_", 0) == 0 || entry.rfind("OMP_", 0) == 0) {
      if (!overrides.empty()) overrides += ",";
      overrides += json_string(entry);
    }
  }
  namespace kernels = oselm::linalg::kernels;
  std::printf(
      "config: {\"workload\":%s,\"seed\":%llu,\"seconds\":%s,"
      "\"trace\":%d,\"kernels\":\"%s\",\"simd_available\":%s,"
      "\"hardware_threads\":%u,\"env_overrides\":[%s]}\n",
      json_string(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      number(options.seconds).c_str(), options.trace ? 1 : 0,
      kernels::active_kernel_set(),
      kernels::simd_available() ? "true" : "false",
      std::thread::hardware_concurrency(), overrides.c_str());
}

void print_result_line(const Report& report) {
  for (const std::string& problem : report.problems) {
    std::printf("INCORRECT: %s\n", problem.c_str());
  }
  std::string metrics;
  for (const Metric& m : report.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(m.name);
    metrics += ": {\"value\": ";
    metrics += number(m.value);
    metrics += ", \"unit\": ";
    metrics += json_string(m.unit);
    metrics += "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
