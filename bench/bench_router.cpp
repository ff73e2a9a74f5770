// Router replica-scaling benchmark (BENCH_router.json).
//
// The question: how much serving throughput does the RouterQServer's
// replica tier buy over a single AsyncQServer when demand exceeds one
// server's admission capacity? The workload models an I/O-bound serving
// fleet: `offered` evaluation sessions against "delay:<us>:" environments
// (each step sleeps, so throughput is capacity-bound, not CPU-bound —
// which keeps the scaling measurable on the 1-2 core CI hosts). Every
// configuration gets the SAME offered load and the SAME per-replica
// admission cap; what changes is the replica count:
//
//   * R=1 admits only `cap` sessions — the rest are rejected at
//     placement, exactly what a capped single server does under burst;
//   * R=2/R=4 admit 2x/4x the sessions via affinity + spillover routing,
//     so fleet steps/sec scales with the admitted session count while
//     per-step latency stays flat (each replica serves the same load).
//
// Sustained throughput is measured over a fixed wall-clock window (huge
// budgets, stop() at the deadline), from the router's AGGREGATED stats —
// the same merge path RouterStats::to_json() reports in production.
//
// Gate: OSELM_ROUTER_MIN_SPEEDUP_PCT (shared bench_common parsing; CI
// passes 250) applies to the R=4 vs R=1 speedup.
//
// Compute-bound regime (telemetry, no gate): the same fleets with zero
// env latency, so steps/sec shows the tier's own cost — batch threads,
// the shared worker pool, placement — rather than sleeping envs. Each
// R runs kComputeRepeats windows; the row reports the median and
// interquartile range over them.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "rl/router.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace oselm;

constexpr std::size_t kStateDim = 4;  // CartPole observation (§4.2)
constexpr std::size_t kActions = 2;
/// Windows per compute-bound row; it reports their median and quartiles.
constexpr std::size_t kComputeRepeats = 5;

rl::BackendConfig backend_config(std::size_t hidden_units) {
  rl::BackendConfig config;
  config.input_dim =
      rl::SimplifiedOutputModel(kStateDim, kActions).input_dim();
  config.hidden_units = hidden_units;
  config.l2_delta = 0.5;
  config.spectral_normalize = true;
  config.seed = 404;
  return config;
}

struct Row {
  std::size_t replicas = 0;
  std::size_t offered = 0;
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  std::uint64_t spillovers = 0;
  std::uint64_t rescued = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t replacements = 0;
  double steps_per_sec = 0.0;
  double speedup_vs_r1 = 0.0;
  double mean_batch_rows = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

Row run_fleet(std::size_t replicas, std::size_t offered, std::size_t cap,
              std::uint64_t delay_us, std::size_t hidden_units,
              double window_seconds, bool kill_one_mid_window = false) {
  const rl::SimplifiedOutputModel model(kStateDim, kActions);
  rl::RouterConfig config;
  config.replicas = replicas;
  config.backend_id = "software";
  config.backend = backend_config(hidden_units);
  config.server.max_live_sessions = cap;
  // Every admitted session can sleep in its environment concurrently —
  // the fleet is capacity-bound by admission, not by worker starvation.
  config.server.worker_threads = cap;
  config.server.max_batch = std::min<std::size_t>(cap, 32);
  config.server.max_wait_us = 100;
  rl::RouterQServer router(config, model);

  util::WallTimer timer;
  Row row;
  row.replicas = replicas;
  row.offered = offered;
  for (std::size_t i = 0; i < offered; ++i) {
    rl::AsyncSessionSpec spec;
    spec.mode = rl::AsyncSessionMode::kEvaluate;
    spec.session.env_id =
        delay_us == 0
            ? std::string("ShapedCartPole-v0")
            : "delay:" + std::to_string(delay_us) + ":ShapedCartPole-v0";
    spec.session.env_seed = 1000 + 17 * i;
    spec.session.agent_seed = 7 + i;
    spec.session.trainer.max_episodes = 1u << 30;  // run until stop()
    spec.session.trainer.solved_threshold = 1e9;
    spec.session.trainer.episode_step_cap = 50;
    spec.session.trainer.reset_interval = 0;
    try {
      router.add_session({spec, "client-" + std::to_string(i)});
      ++row.admitted;
    } catch (const std::runtime_error&) {
      ++row.rejected;  // fleet at capacity — the R=1 burst behavior
    }
  }
  if (kill_one_mid_window) {
    // The self-healing cost probe: hard-kill one replica halfway through
    // the window. Its sessions rescue onto the state-seeded replacement
    // and the fleet keeps serving — the row shows what the outage costs
    // in steps/sec next to the undisturbed fleet of the same size.
    std::this_thread::sleep_for(
        std::chrono::duration<double>(window_seconds / 2));
    router.kill_replica(0);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(window_seconds / 2));
  } else {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(window_seconds));
  }
  router.stop();
  const double wall = timer.seconds();

  const rl::RouterStats stats = router.stats();
  row.spillovers = stats.spillovers;
  row.rescued = stats.rescued;
  row.abandoned = stats.abandoned;
  row.replacements = stats.replacements;
  row.steps_per_sec = static_cast<double>(stats.aggregate.steps) / wall;
  row.mean_batch_rows = stats.aggregate.mean_batch_rows();
  row.p50_us = stats.aggregate.step_latency_us.quantile(0.50);
  row.p95_us = stats.aggregate.step_latency_us.quantile(0.95);
  row.p99_us = stats.aggregate.step_latency_us.quantile(0.99);
  return row;
}

/// The compute-bound row of one fleet size: spread over repeated windows.
struct ComputeRow {
  std::size_t replicas = 0;
  std::size_t admitted = 0;
  double steps_median = 0.0;
  double steps_q1 = 0.0;
  double steps_q3 = 0.0;
  double p50_us_median = 0.0;
  double p99_us_median = 0.0;
};

ComputeRow run_compute_bound(std::size_t replicas, std::size_t offered,
                             std::size_t cap, std::size_t hidden_units,
                             double window_seconds) {
  std::vector<double> steps;
  std::vector<double> p50;
  std::vector<double> p99;
  ComputeRow out;
  out.replicas = replicas;
  for (std::size_t i = 0; i < kComputeRepeats; ++i) {
    const Row row = run_fleet(replicas, offered, cap, /*delay_us=*/0,
                              hidden_units, window_seconds);
    out.admitted = row.admitted;
    steps.push_back(row.steps_per_sec);
    p50.push_back(row.p50_us);
    p99.push_back(row.p99_us);
  }
  out.steps_median = util::percentile(steps, 0.50);
  out.steps_q1 = util::percentile(steps, 0.25);
  out.steps_q3 = util::percentile(std::move(steps), 0.75);
  out.p50_us_median = util::percentile(std::move(p50), 0.50);
  out.p99_us_median = util::percentile(std::move(p99), 0.50);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_router.json";
  const auto hidden_units =
      static_cast<std::size_t>(util::env_int("OSELM_UNITS", 32));
  const double window_seconds =
      static_cast<double>(util::env_int("OSELM_ROUTER_WINDOW_MS", 400)) /
      1000.0;
  const auto delay_us = static_cast<std::uint64_t>(
      util::env_int("OSELM_ROUTER_DELAY_US", 2000));
  const auto offered = static_cast<std::size_t>(
      util::env_int("OSELM_ROUTER_OFFERED", 32));
  const auto cap =
      static_cast<std::size_t>(util::env_int("OSELM_ROUTER_CAP", 8));

  std::printf(
      "Router replica scaling — %zu offered evaluation sessions, "
      "per-replica cap %zu, step delay %llu us, software backend "
      "(N-tilde=%zu), window %.0f ms\n\n",
      offered, cap, static_cast<unsigned long long>(delay_us), hidden_units,
      window_seconds * 1000.0);

  std::vector<Row> rows;
  double r1_steps = 0.0;
  double r4_speedup = 0.0;
  for (const std::size_t replicas : {1u, 2u, 4u}) {
    Row row = run_fleet(replicas, offered, cap, delay_us, hidden_units,
                        window_seconds);
    if (replicas == 1) r1_steps = row.steps_per_sec;
    row.speedup_vs_r1 =
        r1_steps > 0.0 ? row.steps_per_sec / r1_steps : 0.0;
    if (replicas == 4) r4_speedup = row.speedup_vs_r1;
    std::printf(
        "  R=%zu admitted %3zu/%zu (rejected %3zu, spillovers %3llu) "
        "%8.0f steps/s (%.2fx vs R=1)  batch %.2f rows, "
        "p50/p95/p99 %0.0f/%0.0f/%0.0f us\n",
        row.replicas, row.admitted, row.offered, row.rejected,
        static_cast<unsigned long long>(row.spillovers), row.steps_per_sec,
        row.speedup_vs_r1, row.mean_batch_rows, row.p50_us, row.p95_us,
        row.p99_us);
    rows.push_back(std::move(row));
  }

  // Self-healing cost: the same R=4 fleet with one replica hard-killed
  // mid-window. Rescue + state-seeded replacement should keep throughput
  // near the undisturbed row — this is reported, not gated (outage cost
  // is timing-noisy on loaded CI hosts).
  Row kill_row = run_fleet(4, offered, cap, delay_us, hidden_units,
                           window_seconds, /*kill_one_mid_window=*/true);
  kill_row.speedup_vs_r1 =
      r1_steps > 0.0 ? kill_row.steps_per_sec / r1_steps : 0.0;
  std::printf(
      "  R=4 with a mid-window replica kill: %8.0f steps/s (%.2fx vs "
      "R=1), rescued %llu, abandoned %llu, replacements %llu\n",
      kill_row.steps_per_sec, kill_row.speedup_vs_r1,
      static_cast<unsigned long long>(kill_row.rescued),
      static_cast<unsigned long long>(kill_row.abandoned),
      static_cast<unsigned long long>(kill_row.replacements));

  std::printf("\nCompute-bound (zero env latency), median [IQR] over %zu "
              "windows:\n",
              kComputeRepeats);
  std::vector<ComputeRow> compute;
  for (const std::size_t replicas : {1u, 2u, 4u}) {
    ComputeRow row = run_compute_bound(replicas, offered, cap, hidden_units,
                                       window_seconds);
    std::printf(
        "  R=%zu admitted %3zu  %8.0f steps/s [%.0f, %.0f]  "
        "p50/p99 %0.0f/%0.0f us\n",
        row.replicas, row.admitted, row.steps_median, row.steps_q1,
        row.steps_q3, row.p50_us_median, row.p99_us_median);
    compute.push_back(row);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"config\": {\"hidden_units\": %zu, \"window_ms\": %.0f, "
      "\"delay_us\": %llu, \"offered\": %zu, \"per_replica_cap\": %zu},\n"
      "  \"results\": [\n",
      hidden_units, window_seconds * 1000.0,
      static_cast<unsigned long long>(delay_us), offered, cap);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"replicas\": %zu, \"offered\": %zu, \"admitted\": %zu, "
        "\"rejected\": %zu, \"spillovers\": %llu, "
        "\"steps_per_sec\": %.1f, \"speedup_vs_r1\": %.3f, "
        "\"mean_batch_rows\": %.3f, "
        "\"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f}%s\n",
        r.replicas, r.offered, r.admitted, r.rejected,
        static_cast<unsigned long long>(r.spillovers), r.steps_per_sec,
        r.speedup_vs_r1, r.mean_batch_rows, r.p50_us, r.p95_us, r.p99_us,
        i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(
      f,
      "  ],\n"
      "  \"compute_bound\": [\n");
  for (std::size_t i = 0; i < compute.size(); ++i) {
    const ComputeRow& r = compute[i];
    std::fprintf(
        f,
        "    {\"replicas\": %zu, \"admitted\": %zu, \"repeats\": %zu, "
        "\"steps_per_sec_median\": %.1f, \"steps_per_sec_q1\": %.1f, "
        "\"steps_per_sec_q3\": %.1f, \"p50_us_median\": %.1f, "
        "\"p99_us_median\": %.1f}%s\n",
        r.replicas, r.admitted, kComputeRepeats, r.steps_median, r.steps_q1,
        r.steps_q3, r.p50_us_median, r.p99_us_median,
        i + 1 == compute.size() ? "" : ",");
  }
  std::fprintf(
      f,
      "  ],\n"
      "  \"r4_kill_mid_window\": {\"steps_per_sec\": %.1f, "
      "\"speedup_vs_r1\": %.3f, \"rescued\": %llu, \"abandoned\": %llu, "
      "\"replacements\": %llu},\n"
      "  \"r4_speedup_vs_r1\": %.3f\n"
      "}\n",
      kill_row.steps_per_sec, kill_row.speedup_vs_r1,
      static_cast<unsigned long long>(kill_row.rescued),
      static_cast<unsigned long long>(kill_row.abandoned),
      static_cast<unsigned long long>(kill_row.replacements),
      r4_speedup);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  // Gate the R=4 scaling (bench_common's uniform percentage parsing; CI
  // passes OSELM_ROUTER_MIN_SPEEDUP_PCT=250, i.e. at least 2.5x).
  if (!bench::check_speedup_gate("OSELM_ROUTER_MIN_SPEEDUP_PCT",
                                 "router R=4 replica scaling", r4_speedup)) {
    return 1;
  }
  return 0;
}
