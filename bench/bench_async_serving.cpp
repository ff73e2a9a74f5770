// Asynchronous vs lockstep serving benchmark (BENCH_async_serving.json).
//
// The question: how much steps/sec does continuous batching buy over
// lockstep serving when environments have heterogeneous latency? Both
// runs use rl::AsyncQServer with the SAME training-session specs (same
// seeds, same latency mix via the env registry's "delay:<us>:<id>"
// modifier, same shared software backend configuration); only the
// configuration differs:
//
//   * lockstep — rl::lockstep_config(N): every drain waits for every live
//     session's request (N workers, so sleeping environments overlap);
//     with a heterogeneous mix every drain costs the SLOWEST session's
//     delay. Sessions get equal fixed episode budgets, so total_steps /
//     wall is its sustained throughput.
//   * async — sessions advance at their own pace; fast sessions lap slow
//     ones between batches. Sustained throughput is measured over a fixed
//     wall-clock window (huge budgets, stop() at the deadline).
//
// Mixes: homogeneous (every session at the fast delay — async ~matches
// lockstep, reported as a sanity row) and heterogeneous (half fast, half
// slow — the motivating case, CI-gated).
//
// Gate: OSELM_ASYNC_MIN_SPEEDUP_PCT (shared bench_common parsing; CI
// passes 120) applies to every heterogeneous row with N >= 32.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "rl/async_server.hpp"
#include "rl/backend_registry.hpp"
#include "util/timer.hpp"

namespace {

using namespace oselm;

constexpr std::size_t kStateDim = 4;  // CartPole observation (§4.2)
constexpr std::size_t kActions = 2;

struct MixConfig {
  const char* name;
  std::uint64_t fast_us;
  std::uint64_t slow_us;  ///< == fast_us for the homogeneous mix
};

std::string delayed_env_id(std::uint64_t micros) {
  return "delay:" + std::to_string(micros) + ":ShapedCartPole-v0";
}

rl::ServingSessionSpec session_spec(const MixConfig& mix, std::size_t i,
                                    std::size_t episodes) {
  rl::ServingSessionSpec spec;
  // Heterogeneous: even indices fast, odd indices slow.
  spec.env_id = delayed_env_id((i % 2 == 0) ? mix.fast_us : mix.slow_us);
  spec.env_seed = 1000 + 17 * i;
  spec.agent_seed = 7 + i;
  spec.trainer.max_episodes = episodes;
  spec.trainer.solved_threshold = 1e9;  // run the full budget
  spec.trainer.episode_step_cap = 50;
  spec.trainer.reset_interval = 0;      // shared network: no §4.3 resets
  return spec;
}

rl::BackendConfig backend_config(std::size_t hidden_units) {
  rl::BackendConfig config;
  config.input_dim = rl::SimplifiedOutputModel(kStateDim, kActions)
                         .input_dim();
  config.hidden_units = hidden_units;
  config.l2_delta = 0.5;
  config.spectral_normalize = true;
  config.seed = 404;
  return config;
}

struct Row {
  std::string mix;
  std::size_t sessions = 0;
  double lockstep_steps_per_sec = 0.0;
  double async_steps_per_sec = 0.0;
  double speedup = 0.0;
  double mean_batch_rows = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

double run_lockstep(const MixConfig& mix, std::size_t n_sessions,
                    std::size_t episodes, std::size_t hidden_units) {
  const rl::SimplifiedOutputModel model(kStateDim, kActions);
  rl::AsyncQServer server(
      rl::make_backend("software", backend_config(hidden_units)), model,
      rl::lockstep_config(n_sessions));
  std::vector<rl::AsyncSessionSpec> specs(n_sessions);
  for (std::size_t i = 0; i < n_sessions; ++i) {
    specs[i].session = session_spec(mix, i, episodes);
    specs[i].mode = rl::AsyncSessionMode::kTrain;
  }
  const util::WallTimer timer;
  rl::add_cohort(server, specs);
  std::uint64_t total_steps = 0;
  for (const rl::AsyncSessionResult& r : server.drain()) {
    total_steps += r.train.total_steps;
  }
  return static_cast<double>(total_steps) / timer.seconds();
}

Row run_async(const MixConfig& mix, std::size_t n_sessions,
              std::size_t hidden_units, double window_seconds) {
  const rl::SimplifiedOutputModel model(kStateDim, kActions);
  rl::AsyncQServerConfig config;
  config.worker_threads = n_sessions;  // sleeping sessions overlap
  config.max_live_sessions = n_sessions;
  config.max_batch = std::min<std::size_t>(n_sessions, 32);
  config.max_wait_us = 200;
  rl::AsyncQServer server(
      rl::make_backend("software", backend_config(hidden_units)), model,
      config);

  util::WallTimer timer;
  for (std::size_t i = 0; i < n_sessions; ++i) {
    rl::AsyncSessionSpec spec;
    spec.session = session_spec(mix, i, /*episodes=*/1u << 30);
    spec.mode = rl::AsyncSessionMode::kTrain;
    server.add_session(spec);
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(window_seconds));
  server.stop();
  const double wall = timer.seconds();
  const rl::AsyncServerStats stats = server.stats();

  Row row;
  row.sessions = n_sessions;
  row.async_steps_per_sec = static_cast<double>(stats.steps) / wall;
  row.mean_batch_rows = stats.mean_batch_rows();
  row.p50_us = stats.step_latency_us.quantile(0.50);
  row.p95_us = stats.step_latency_us.quantile(0.95);
  row.p99_us = stats.step_latency_us.quantile(0.99);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_async_serving.json";
  const auto hidden_units =
      static_cast<std::size_t>(util::env_int("OSELM_UNITS", 32));
  const auto episodes = static_cast<std::size_t>(
      util::env_int("OSELM_ASYNC_EPISODES", 2));
  const double window_seconds =
      static_cast<double>(util::env_int("OSELM_ASYNC_WINDOW_MS", 400)) /
      1000.0;
  const auto fast_us = static_cast<std::uint64_t>(
      util::env_int("OSELM_ASYNC_FAST_US", 300));
  const auto slow_us = static_cast<std::uint64_t>(
      util::env_int("OSELM_ASYNC_SLOW_US", 1500));
  std::vector<std::size_t> session_counts = {8, 32, 128};
  if (const auto n = util::env_int("OSELM_ASYNC_SESSIONS", 0); n > 0) {
    session_counts = {static_cast<std::size_t>(n)};
  }
  const MixConfig mixes[] = {
      {"homogeneous", fast_us, fast_us},
      {"heterogeneous", fast_us, slow_us},
  };

  std::printf(
      "Async serving — training sessions on one shared software backend "
      "(N-tilde=%zu)\n  env mixes: homogeneous %llu us, heterogeneous "
      "%llu/%llu us; lockstep budget %zu episodes; async window %.0f ms\n\n",
      hidden_units, static_cast<unsigned long long>(fast_us),
      static_cast<unsigned long long>(fast_us),
      static_cast<unsigned long long>(slow_us), episodes,
      window_seconds * 1000.0);

  std::vector<Row> rows;
  double gated_min = 0.0;
  bool gated_any = false;
  for (const MixConfig& mix : mixes) {
    for (const std::size_t n : session_counts) {
      const double lockstep =
          run_lockstep(mix, n, episodes, hidden_units);
      Row row = run_async(mix, n, hidden_units, window_seconds);
      row.mix = mix.name;
      row.lockstep_steps_per_sec = lockstep;
      row.speedup = lockstep > 0.0 ? row.async_steps_per_sec / lockstep
                                   : 0.0;
      std::printf(
          "  %-13s N=%-4zu lockstep %8.0f steps/s | async %8.0f steps/s "
          "(%.2fx)  batch %.2f rows, p50/p95/p99 %0.0f/%0.0f/%0.0f us\n",
          row.mix.c_str(), n, row.lockstep_steps_per_sec,
          row.async_steps_per_sec, row.speedup, row.mean_batch_rows,
          row.p50_us, row.p95_us, row.p99_us);
      if (std::string(mix.name) == "heterogeneous" && n >= 32) {
        gated_min = gated_any ? std::min(gated_min, row.speedup)
                              : row.speedup;
        gated_any = true;
      }
      rows.push_back(std::move(row));
    }
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"config\": {\"hidden_units\": %zu, \"episodes\": %zu, "
      "\"window_ms\": %.0f, \"fast_us\": %llu, \"slow_us\": %llu},\n"
      "  \"results\": [\n",
      hidden_units, episodes, window_seconds * 1000.0,
      static_cast<unsigned long long>(fast_us),
      static_cast<unsigned long long>(slow_us));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"mix\": \"%s\", \"sessions\": %zu, "
        "\"lockstep_steps_per_sec\": %.1f, \"async_steps_per_sec\": %.1f, "
        "\"speedup\": %.3f, \"mean_batch_rows\": %.3f, "
        "\"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f}%s\n",
        r.mix.c_str(), r.sessions, r.lockstep_steps_per_sec,
        r.async_steps_per_sec, r.speedup, r.mean_batch_rows, r.p50_us,
        r.p95_us, r.p99_us, i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(f,
               "  ],\n"
               "  \"gated_heterogeneous_min_speedup\": %.3f\n"
               "}\n",
               gated_min);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  // Gate every heterogeneous row at N >= 32 (bench_common's uniform
  // percentage parsing; CI passes OSELM_ASYNC_MIN_SPEEDUP_PCT=120).
  if (gated_any &&
      !bench::check_speedup_gate("OSELM_ASYNC_MIN_SPEEDUP_PCT",
                                 "async heterogeneous serving",
                                 gated_min)) {
    return 1;
  }
  return 0;
}
