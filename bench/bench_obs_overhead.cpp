// Observability overhead benchmark (BENCH_obs.json).
//
// The tracing layer is always compiled into the hot seams, so its
// DISABLED cost is a production constant — this bench pins it. Three
// variants of one identical CPU-bound loop (an FNV-style integer mix per
// iteration, the kind of work a serving hot path does between seams):
//
//   * plain      — no instrumentation at all (the baseline);
//   * disabled   — OSELM_TRACE_SPAN + OSELM_TRACE_INSTANT per iteration
//                  with the tracer OFF: each macro must cost one relaxed
//                  load + branch;
//   * enabled    — the same loop with the tracer ON (events land in the
//                  ring and mostly drop): the opt-in cost, reported.
//
// Plain and disabled run as OSELM_OBS_BENCH_REPS (default 21) interleaved
// pairs, the order flipping every pair, so host drift lands on both
// halves of a pair instead of on one variant. Each pair gives one
// disabled/plain time ratio; the median ratio is the statistic, printed
// with the pairs' quartiles and range as its spread.
//
// Gate: OSELM_OBS_MAX_OVERHEAD_PCT (percentage; unset/0 disables). By the
// median pair, the disabled variant must sustain at least (1 - pct/100)
// of the plain throughput. CI passes 2 — tracing compiled-in-but-off
// costs at most 2%. The enabled variant (one run) and a traced
// async-serving window are reported as telemetry, never gated (recording
// cost is an opt-in trade).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rl/async_server.hpp"
#include "rl/backend_registry.hpp"
#include "util/env_flags.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace oselm;

/// One iteration of synthetic hot-path work: a 64-bit FNV-1a-style mix.
/// Marked always-inline-hostile via the accumulator dependency chain so
/// the compiler cannot fold the loop away.
inline std::uint64_t mix(std::uint64_t h, std::uint64_t i) noexcept {
  h ^= i + 0x9e3779b97f4a7c15ull;
  h *= 0x100000001b3ull;
  h ^= h >> 29;
  return h;
}

/// The baseline loop: no instrumentation.
[[gnu::noinline]] std::uint64_t run_plain(std::size_t iters) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < iters; ++i) {
    h = mix(h, i);
  }
  return h;
}

/// The SAME loop with the per-iteration macros the hot seams carry.
[[gnu::noinline]] std::uint64_t run_instrumented(std::size_t iters) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < iters; ++i) {
    OSELM_TRACE_SPAN("bench", "iter");
    OSELM_TRACE_INSTANT("bench", "tick");
    h = mix(h, i);
  }
  return h;
}

/// Wall seconds of one run of a variant.
template <typename Fn>
double run_seconds(Fn&& fn) {
  util::WallTimer timer;
  const std::uint64_t checksum = fn();
  const double seconds = timer.seconds();
  // The checksum keeps the loop alive through optimization; consuming
  // it through printf-on-impossible keeps this branch-predictable.
  if (checksum == 0) std::printf("checksum hit zero\n");
  return seconds;
}

/// Interleaved plain/disabled pairs: even pairs run plain first, odd
/// pairs disabled first.
struct PairedRuns {
  std::vector<double> ratios;  ///< disabled/plain seconds, one per pair
  double best_plain_s = 1e300;
};

PairedRuns run_pairs(std::size_t pairs, std::size_t iters) {
  PairedRuns runs;
  runs.ratios.reserve(pairs);
  for (std::size_t pair = 0; pair < pairs; ++pair) {
    double plain_s = 0.0;
    double disabled_s = 0.0;
    const auto time_plain = [&] {
      plain_s = run_seconds([&] { return run_plain(iters); });
    };
    const auto time_disabled = [&] {
      disabled_s = run_seconds([&] { return run_instrumented(iters); });
    };
    if (pair % 2 == 0) {
      time_plain();
      time_disabled();
    } else {
      time_disabled();
      time_plain();
    }
    runs.ratios.push_back(disabled_s / plain_s);
    runs.best_plain_s = std::min(runs.best_plain_s, plain_s);
  }
  return runs;
}

/// A short traced/untraced async-serving window: steps/sec with the
/// tracer off vs on over the real hot seams (reported, not gated).
double serving_steps_per_sec(bool traced, double window_seconds) {
  obs::Tracer::set_enabled(traced);
  const rl::SimplifiedOutputModel model(4, 2);
  rl::BackendConfig backend;
  backend.input_dim = model.input_dim();
  backend.hidden_units = 32;
  backend.l2_delta = 0.5;
  backend.spectral_normalize = true;
  backend.seed = 404;
  rl::AsyncQServerConfig config;
  config.worker_threads = 4;
  config.max_live_sessions = 8;
  config.max_batch = 8;
  config.max_wait_us = 100;
  rl::AsyncQServer server(rl::make_backend("software", backend), model,
                          config);
  util::WallTimer timer;
  for (std::size_t i = 0; i < 8; ++i) {
    rl::AsyncSessionSpec spec;
    spec.mode = rl::AsyncSessionMode::kTrain;
    spec.session.env_id = "ShapedCartPole-v0";
    spec.session.env_seed = 1000 + 17 * i;
    spec.session.agent_seed = 7 + i;
    spec.session.trainer.max_episodes = 1u << 30;
    spec.session.trainer.solved_threshold = 1e9;
    spec.session.trainer.episode_step_cap = 50;
    spec.session.trainer.reset_interval = 0;
    server.add_session(spec);
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(window_seconds));
  server.stop();
  const double wall = timer.seconds();
  const rl::AsyncServerStats stats = server.stats();
  obs::Tracer::set_enabled(false);
  (void)obs::Tracer::drain();  // leave an empty ring for whoever is next
  return static_cast<double>(stats.steps) / wall;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_obs.json";
  const auto iters = static_cast<std::size_t>(
      util::env_int("OSELM_OBS_BENCH_ITERS", 8'000'000));
  const auto pairs = std::max<std::size_t>(
      1, static_cast<std::size_t>(util::env_int("OSELM_OBS_BENCH_REPS", 21)));
  const double window_seconds =
      static_cast<double>(util::env_int("OSELM_OBS_WINDOW_MS", 300)) /
      1000.0;
  const double max_overhead_pct =
      static_cast<double>(util::env_int("OSELM_OBS_MAX_OVERHEAD_PCT", 0));

  obs::Tracer::set_enabled(false);

  // Warm up the calling thread's ring OUTSIDE the measurement so the
  // enabled variant's one-time allocation is not charged to it.
  obs::Tracer::set_enabled(true);
  OSELM_TRACE_INSTANT("bench", "warmup");
  obs::Tracer::set_enabled(false);
  (void)obs::Tracer::drain();

  const PairedRuns runs = run_pairs(pairs, iters);
  obs::Tracer::set_enabled(true);
  const double enabled_s =
      run_seconds([&] { return run_instrumented(iters); });
  obs::Tracer::set_enabled(false);
  const std::uint64_t recorded_or_dropped =
      obs::Tracer::drain().size() + obs::Tracer::dropped_events();

  // Per-pair overhead quantiles, in percent.
  const auto overhead_pct = [&](double q) {
    return (util::percentile(runs.ratios, q) - 1.0) * 100.0;
  };
  const double disabled_ratio = util::percentile(runs.ratios, 0.5);
  const double disabled_overhead_pct = (disabled_ratio - 1.0) * 100.0;
  const double q1_pct = overhead_pct(0.25);
  const double q3_pct = overhead_pct(0.75);
  const double plain_mops =
      static_cast<double>(iters) / runs.best_plain_s / 1e6;
  const double enabled_mops = static_cast<double>(iters) / enabled_s / 1e6;
  const double enabled_overhead_pct =
      (enabled_s / runs.best_plain_s - 1.0) * 100.0;

  std::printf(
      "Tracing overhead — %zu iterations, %zu interleaved pairs\n"
      "  plain            %8.1f Mops/s (best pair)\n"
      "  tracing disabled %+.2f%% (median pair; quartiles %+.2f%% .. "
      "%+.2f%%, range %+.2f%% .. %+.2f%%)\n"
      "  tracing enabled  %8.1f Mops/s (%+.2f%%, one run, %llu events)\n",
      iters, pairs, plain_mops, disabled_overhead_pct, q1_pct, q3_pct,
      overhead_pct(0.0), overhead_pct(1.0), enabled_mops,
      enabled_overhead_pct,
      static_cast<unsigned long long>(recorded_or_dropped));

  const double untraced_sps =
      serving_steps_per_sec(/*traced=*/false, window_seconds);
  const double traced_sps =
      serving_steps_per_sec(/*traced=*/true, window_seconds);
  std::printf(
      "Async serving window (%.0f ms, reported only)\n"
      "  tracing off %8.0f steps/s\n"
      "  tracing on  %8.0f steps/s\n",
      window_seconds * 1000.0, untraced_sps, traced_sps);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"config\": {\"iters\": %zu, \"pairs\": %zu, \"window_ms\": %.0f, "
      "\"max_overhead_pct\": %.1f},\n"
      "  \"loop\": {\"plain_mops\": %.2f, \"enabled_mops\": %.2f,\n"
      "           \"disabled_overhead_pct\": %.3f, "
      "\"disabled_overhead_q1_pct\": %.3f, "
      "\"disabled_overhead_q3_pct\": %.3f,\n"
      "           \"enabled_overhead_pct\": %.3f, \"enabled_events\": %llu},\n"
      "  \"serving\": {\"untraced_steps_per_sec\": %.1f, "
      "\"traced_steps_per_sec\": %.1f}\n"
      "}\n",
      iters, pairs, window_seconds * 1000.0, max_overhead_pct, plain_mops,
      enabled_mops, disabled_overhead_pct, q1_pct, q3_pct,
      enabled_overhead_pct,
      static_cast<unsigned long long>(recorded_or_dropped), untraced_sps,
      traced_sps);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  // The regression gate: by the median pair, disabled tracing must hold
  // (1 - pct/100) of the plain throughput. Throughput ratio, not time
  // delta — immune to the absolute speed of the host.
  const double disabled_throughput = 1.0 / disabled_ratio;
  if (max_overhead_pct > 0.0 &&
      disabled_throughput < 1.0 - max_overhead_pct / 100.0) {
    std::fprintf(stderr,
                 "FAIL: disabled tracing sustains %.2f%% of the plain "
                 "throughput (median of %zu pairs), below the %.1f%% "
                 "overhead bar (OSELM_OBS_MAX_OVERHEAD_PCT)\n",
                 disabled_throughput * 100.0, pairs, max_overhead_pct);
    return 1;
  }
  return 0;
}
