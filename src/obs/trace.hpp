// Always-compiled, run-time-toggleable event tracer.
//
// Every thread that records gets its own fixed-capacity SPSC ring of
// trace slots; the record path is one relaxed load of the global enable
// flag, one steady-clock read, and a handful of relaxed atomic stores
// into the thread's own ring — no heap allocation, no mutex, no
// cross-thread contention. The ring drops OLDEST on overflow (a slot is
// simply overwritten) and the drain reconstructs the exact number of
// overwritten events from per-slot sequence numbers, surfaced as
// dropped_events(). A single drainer may run concurrently with all
// producers: each slot is a tiny seqlock whose sequence encodes the
// global write index, and every payload field is a relaxed atomic so the
// concurrent read is race-free by construction (TSan-clean, not just
// "benign").
//
// Spans use RAII — OSELM_TRACE_SPAN(category, name) records one Chrome
// "X" (complete) event at scope exit; OSELM_TRACE_INSTANT records an "i"
// event. Category/name must be string literals (or otherwise outlive the
// process): the ring stores the pointers, never copies.
//
// Export: Tracer::drain() moves all completed events out of every ring
// (oldest-first per thread); chrome_trace_json() renders the Chrome
// trace-event format that Perfetto / chrome://tracing load directly;
// write_chrome_trace() drains straight to a file. validate_chrome_trace()
// round-trip parses an export and checks the keys Perfetto requires —
// the tests and the chaos tooling both call it, so a malformed export
// cannot ship silently.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace oselm::obs {

/// One drained event. `category`/`name` point at the caller's literals.
struct TraceEvent {
  std::uint64_t ts_us = 0;   ///< start, microseconds since trace epoch
  std::uint64_t dur_us = 0;  ///< span duration; 0 for instants
  const char* category = "";
  const char* name = "";
  std::uint32_t tid = 0;  ///< registry-assigned thread id (1-based)
  char phase = 'i';       ///< 'X' span / 'i' instant
};

class Tracer {
 public:
  /// Record-path gate. Disabled is the default and must stay near-free:
  /// one relaxed atomic load + branch per macro site (bench_obs_overhead
  /// pins that in CI).
  static void set_enabled(bool enabled) noexcept;
  [[nodiscard]] static bool enabled() noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Microseconds on the steady clock since the process trace epoch.
  /// The ONE sanctioned clock read for instrumentation code — hot-loop
  /// code calling std::chrono clocks directly is lint-rejected
  /// (tools/lint/check_contracts.py, hot-loop-clock).
  [[nodiscard]] static std::uint64_t now_us() noexcept;

  /// Records an instant event on the calling thread's ring (no-op when
  /// disabled). Strings must outlive the process (use literals).
  static void instant(const char* category, const char* name) noexcept;

  /// Records a completed span (used by TraceSpan; callable directly for
  /// spans whose lifetime does not fit a scope).
  static void complete(const char* category, const char* name,
                       std::uint64_t start_us, std::uint64_t end_us) noexcept;

  /// Names the calling thread in exports ("batch", "worker-0", ...).
  /// Copied (truncated to 31 chars), so non-literals are fine here.
  static void set_thread_name(const char* name) noexcept;

  /// Moves every completed event out of every thread's ring,
  /// oldest-first per thread. Single-drainer: concurrent drain() calls
  /// serialize on an internal mutex; producers are never blocked.
  [[nodiscard]] static std::vector<TraceEvent> drain();

  /// Total events overwritten before they could be drained, exact.
  [[nodiscard]] static std::uint64_t dropped_events() noexcept;

  /// Chrome trace-event JSON for `events` plus thread_name metadata:
  /// {"traceEvents":[{"name":..,"cat":..,"ph":"X","ts":..,"dur":..,
  ///  "pid":1,"tid":..}, ..., {"name":"thread_name","ph":"M",...}]}
  [[nodiscard]] static std::string chrome_trace_json(
      const std::vector<TraceEvent>& events);

  /// drain() + chrome_trace_json() + write to `path`. Returns false when
  /// the file cannot be written.
  static bool write_chrome_trace(const std::string& path);

  /// Capacity for rings created AFTER this call (0 restores the default:
  /// OSELM_TRACE_RING_CAP env var, else 8192). Rounded up to a power of
  /// two, minimum 2. Existing rings keep their capacity — tests set this
  /// then record from a fresh thread.
  static void set_default_ring_capacity(std::size_t capacity) noexcept;

  /// Drains and discards everything, zeroes dropped counters, and
  /// forgets rings of threads that have exited. For tests.
  static void reset_for_testing();

 private:
  static std::atomic<bool> enabled_;
};

/// RAII span: captures the start timestamp at construction (only when
/// tracing is enabled at that moment) and records one complete event at
/// destruction. Cheap enough to leave in hot seams permanently.
class TraceSpan {
 public:
  TraceSpan(const char* category, const char* name) noexcept
      : category_(category), name_(name) {
    if (Tracer::enabled()) start_us_ = Tracer::now_us() + 1;
  }
  ~TraceSpan() {
    if (start_us_ != 0) {
      const std::uint64_t start = start_us_ - 1;
      std::uint64_t end = Tracer::now_us();
      if (end < start) end = start;
      Tracer::complete(category_, name_, start, end);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* category_;
  const char* name_;
  std::uint64_t start_us_ = 0;  ///< 1 + start timestamp; 0 = not armed
};

/// Round-trip validation of a Chrome trace export: parses `json` and
/// checks the Perfetto-required shape — root object with a "traceEvents"
/// array; every element an object with string "name"/"ph" and numeric
/// "pid"/"tid"; "X"/"i" events additionally need numeric "ts" (and "dur"
/// for "X"); "M" metadata events need an "args" object. On failure
/// returns false and stores a diagnostic in `error` when non-null.
bool validate_chrome_trace(const std::string& json, std::string* error);

#define OSELM_OBS_CONCAT_INNER(a, b) a##b
#define OSELM_OBS_CONCAT(a, b) OSELM_OBS_CONCAT_INNER(a, b)

/// Records a Chrome "X" span covering the enclosing scope.
#define OSELM_TRACE_SPAN(category, name)                 \
  const ::oselm::obs::TraceSpan OSELM_OBS_CONCAT(        \
      oselm_trace_span_, __COUNTER__)((category), (name))

/// Records a Chrome "i" instant event. The enable check is inline, so a
/// disabled instant costs one relaxed load + branch, like a span.
#define OSELM_TRACE_INSTANT(category, name)              \
  do {                                                   \
    if (::oselm::obs::Tracer::enabled()) {               \
      ::oselm::obs::Tracer::instant((category), (name)); \
    }                                                    \
  } while (false)

}  // namespace oselm::obs
