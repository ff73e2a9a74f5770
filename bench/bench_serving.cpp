// Multi-session serving benchmark: N concurrent CartPole training
// sessions multiplexed onto one shared backend via rl::AsyncQServer in
// its lockstep configuration (rl::lockstep_config + rl::add_cohort), so
// every coalesced batch carries the whole live cohort and the run is
// deterministic.
//
// Two questions, one JSON (BENCH_serving.json):
//   * throughput — sessions/sec and steps/sec of the software backend
//     under cross-session batching (measured wall clock on this host);
//   * modeled FPGA win — on the fpga-q20 backend every coalesced
//     predict_actions_multi call pays ONE pipeline fill + AXI handshake
//     (CycleModel::predict_multi_*); the bench replays the same
//     evaluation stream against the per-evaluation cost N independent
//     agents would pay (one predict_actions batch per evaluation) and
//     reports the modeled speedup. The arithmetic is identical either
//     way, so the comparison is exact, deterministic, and runs in CI.
//
// Gate: OSELM_SERVING_MIN_SPEEDUP_PCT (parsed by the shared
// bench_common.hpp helper, like bench_predict_path's gate) fails the run
// when the modeled FPGA serving speedup drops below the bar; CI passes
// 105 — cross-session batching must beat N independent agents.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "rl/async_server.hpp"
#include "rl/backend_registry.hpp"
#include "util/timer.hpp"

namespace {

using namespace oselm;

constexpr std::size_t kStateDim = 4;  // CartPole observation (§4.2)
constexpr std::size_t kActions = 2;   // left / right

struct ServingRun {
  rl::AsyncServerStats stats;
  double wall_seconds = 0.0;
  double sessions_per_sec = 0.0;
  double steps_per_sec = 0.0;
  std::uint64_t total_steps = 0;
  std::size_t solved = 0;
};

ServingRun run_server(const std::string& backend_id, std::size_t n_sessions,
                      std::size_t episodes, std::size_t hidden_units) {
  const rl::SimplifiedOutputModel model(kStateDim, kActions);
  rl::BackendConfig backend_config;
  backend_config.input_dim = model.input_dim();
  backend_config.hidden_units = hidden_units;
  backend_config.l2_delta = 0.5;
  backend_config.spectral_normalize = true;
  backend_config.seed = 404;
  rl::AsyncQServer server(rl::make_backend(backend_id, backend_config),
                          model, rl::lockstep_config(n_sessions));

  std::vector<rl::AsyncSessionSpec> specs(n_sessions);
  for (std::size_t i = 0; i < n_sessions; ++i) {
    rl::AsyncSessionSpec& spec = specs[i];
    spec.mode = rl::AsyncSessionMode::kTrain;
    spec.session.env_id = "ShapedCartPole-v0";
    spec.session.env_seed = 1000 + 17 * i;
    spec.session.agent_seed = 7 + i;
    spec.session.trainer.max_episodes = episodes;  // fixed budget
    spec.session.trainer.solved_threshold = 1e9;   // run the full budget
    spec.session.trainer.reset_interval = 0;  // shared network: no resets
  }

  ServingRun out;
  const util::WallTimer timer;
  rl::add_cohort(server, specs);
  for (const rl::AsyncSessionResult& r : server.drain()) {
    out.total_steps += r.train.total_steps;
    if (r.train.solved) ++out.solved;
  }
  out.wall_seconds = timer.seconds();
  out.stats = server.stats();
  out.sessions_per_sec = static_cast<double>(n_sessions) / out.wall_seconds;
  out.steps_per_sec =
      static_cast<double>(out.total_steps) / out.wall_seconds;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_serving.json";
  const auto n_sessions = static_cast<std::size_t>(
      util::env_int("OSELM_SESSIONS", 8));
  const auto episodes = static_cast<std::size_t>(
      util::env_int("OSELM_SERVING_EPISODES", 120));
  const auto hidden_units = static_cast<std::size_t>(
      util::env_int("OSELM_UNITS", 64));

  std::printf(
      "Serving — %zu concurrent CartPole sessions x %zu episodes on one "
      "shared backend (N=%zu)\n\n",
      n_sessions, episodes, hidden_units);

  // --- Software backend: measured throughput under coalescing.
  const ServingRun software =
      run_server("software", n_sessions, episodes, hidden_units);
  std::printf("  software   : %.2f s wall, %llu batches, %.2f sessions/sec, "
              "%.0f steps/sec, mean batch %.2f states/call\n",
              software.wall_seconds,
              static_cast<unsigned long long>(software.stats.batches),
              software.sessions_per_sec, software.steps_per_sec,
              software.stats.mean_batch_rows());

  // --- FPGA model: modeled PL predict time, coalesced vs N independents.
  const ServingRun fpga =
      run_server("fpga-q20", n_sessions, episodes, hidden_units);
  const double mean_rows = fpga.stats.mean_batch_rows();

  // predict_multi_seconds(S, A) is affine in S (per-state work + one
  // pipeline fill + one AXI handshake), so the total over all coalesced
  // calls is rows * per_state + calls * overhead — exact for any mix of
  // batch sizes without tracking per-call telemetry.
  const hw::CycleModel cycles(
      hidden_units, rl::SimplifiedOutputModel(kStateDim, kActions).input_dim());
  const double per_state_s = cycles.predict_multi_seconds(2, kActions) -
                             cycles.predict_multi_seconds(1, kActions);
  const double overhead_s =
      cycles.predict_multi_seconds(1, kActions) - per_state_s;
  const double coalesced_predict_s =
      static_cast<double>(fpga.stats.batch_rows) * per_state_s +
      static_cast<double>(fpga.stats.batches) * overhead_s;
  // The same evaluation stream priced as N independent agents: every
  // state becomes its own predict_actions batch with its own overhead.
  const double independent_predict_s =
      static_cast<double>(fpga.stats.batch_rows) *
      cycles.predict_batch_seconds(kActions);
  const double serving_speedup = coalesced_predict_s > 0.0
                                     ? independent_predict_s /
                                           coalesced_predict_s
                                     : 1.0;

  std::printf("  fpga model : %llu coalesced calls carrying %llu states "
              "(mean %.2f/call)\n",
              static_cast<unsigned long long>(fpga.stats.batches),
              static_cast<unsigned long long>(fpga.stats.batch_rows),
              mean_rows);
  std::printf("    modeled predict time, coalesced   : %.6f s\n",
              coalesced_predict_s);
  std::printf("    modeled predict time, independent : %.6f s "
              "(N separate agents)\n",
              independent_predict_s);
  std::printf("    cross-session batching speedup    : %.3fx\n",
              serving_speedup);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"config\": {\"sessions\": %zu, \"episodes\": %zu, "
      "\"hidden_units\": %zu},\n"
      "  \"software\": {\"wall_seconds\": %.4f, \"sessions_per_sec\": %.3f, "
      "\"steps_per_sec\": %.1f, \"batches\": %llu, "
      "\"mean_batch_states\": %.3f, \"solved\": %zu},\n"
      "  \"fpga_model\": {\"coalesced_calls\": %llu, "
      "\"coalesced_states\": %llu, \"mean_batch_states\": %.3f, "
      "\"coalesced_predict_s\": %.6f, \"independent_predict_s\": %.6f, "
      "\"speedup\": %.3f}\n"
      "}\n",
      n_sessions, episodes, hidden_units, software.wall_seconds,
      software.sessions_per_sec, software.steps_per_sec,
      static_cast<unsigned long long>(software.stats.batches),
      software.stats.mean_batch_rows(), software.solved,
      static_cast<unsigned long long>(fpga.stats.batches),
      static_cast<unsigned long long>(fpga.stats.batch_rows),
      mean_rows, coalesced_predict_s, independent_predict_s,
      serving_speedup);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  // Uniform gate configuration via bench_common (see bench_predict_path).
  if (!bench::check_speedup_gate("OSELM_SERVING_MIN_SPEEDUP_PCT",
                                 "fpga serving", serving_speedup)) {
    return 1;
  }
  return 0;
}
