// Shared plumbing for the benchmark driver: command-line options, exact
// sample percentiles, seeded streams, the run report and the final JSON
// line the benchmark contract requires.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its Perfetto-loadable trace.
  std::string trace_out;
};

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>
/// [--trace-out <path>]`; throws std::invalid_argument on bad input.
Options parse_options(int argc, char** argv);

using Clock = std::chrono::steady_clock;

/// Microseconds between two steady-clock instants.
inline double micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// The instant `seconds` after `t`.
inline Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

/// SplitMix64 — derives independent streams from one workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Exact quantile of `values` (nearest-rank on a sorted copy; q in [0,1]).
/// Returns 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// Median of a small sample (set-up repetitions).
double median(std::vector<double> values);

/// Peak resident set size of this process in MiB (getrusage ru_maxrss).
double peak_rss_mb();

/// Pins the calling thread to one CPU of its original affinity set at a
/// time, round robin; restores the set on destruction. A no-op where
/// affinity cannot be read or set. Threads the pinned thread creates
/// inherit the pin, so restore before starting servers.
class CpuRotation {
 public:
  CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  ~CpuRotation();

  /// Pins to the `turn`-th CPU of the set.
  void pin(std::size_t turn) const;

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
};

/// One metric line of the final JSON object.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. The workload fills `metrics` with the
/// end-to-end set (untraced run) or the per-layer set (traced run).
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable reasons `correct` is false, printed before the JSON.
  std::vector<std::string> problems;

  void add(const std::string& name, double value, const std::string& unit);
  /// Marks the run incorrect and records why.
  void fail(const std::string& why);
};

/// Prints the configuration line (kernel dispatch, OSELM_* and OMP_*
/// overrides, hardware threads) so runs from different configurations
/// are never compared by accident.
void print_config_line(const Options& options);

/// Prints `report` as the contract's last stdout line:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
void print_result_line(const Report& report);

}  // namespace perfbench
