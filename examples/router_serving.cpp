// Multi-replica serving through rl::RouterQServer: a fleet of R replica
// servers (each an AsyncQServer with its own Q-network backend) behind
// one router with session-affinity placement, spillover, and periodic
// state averaging across the replicas' networks.
//
//   ./router_serving [replicas] [sessions] [delay_us] [episodes]
//                    [--trace-out <file>] [--metrics-out <file>]
//
// --trace-out captures the whole run as a Chrome trace-event JSON (open
// it in Perfetto / chrome://tracing); --metrics-out streams metrics
// snapshots to a .metrics.jsonl time series while the fleet serves.
//
// Two phases: train the fleet with periodic averaging (every replica
// ends up with the averaged Q-network), then serve a
// burst of evaluation sessions whose affinity keys spread them across
// replicas. Defaults keep the run around a second so CI smoke-runs it.
// Exits non-zero if any session fails or the telemetry looks broken.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rl/router.hpp"

int main(int argc, char** argv) {
  using namespace oselm;

  // Observability flags first (any position); positionals keep their
  // historical order.
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string trace_out;
  std::string metrics_out;
  for (std::size_t i = 0; i < args.size();) {
    if (i + 1 < args.size() && args[i] == "--trace-out") {
      trace_out = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    } else if (i + 1 < args.size() && args[i] == "--metrics-out") {
      metrics_out = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    } else {
      ++i;
    }
  }
  if (!trace_out.empty()) obs::Tracer::set_enabled(true);
  if (!metrics_out.empty() &&
      !obs::MetricsRegistry::global().start_sampler(metrics_out,
                                                    /*period_ms=*/50)) {
    std::fprintf(stderr, "cannot open metrics sink %s\n",
                 metrics_out.c_str());
    return 1;
  }

  const std::size_t replicas =
      args.size() > 0 ? static_cast<std::size_t>(std::atoi(args[0].c_str()))
                      : 2;
  const std::size_t sessions =
      args.size() > 1 ? static_cast<std::size_t>(std::atoi(args[1].c_str()))
                      : 8;
  const std::uint64_t delay_us =
      args.size() > 2
          ? static_cast<std::uint64_t>(std::atoll(args[2].c_str()))
          : 300;
  const std::size_t episodes =
      args.size() > 3 ? static_cast<std::size_t>(std::atoi(args[3].c_str()))
                      : 5;

  const rl::SimplifiedOutputModel model(4, 2);  // CartPole: 4 states + code
  rl::RouterConfig config;
  config.name = "edge-fleet";
  config.replicas = replicas;
  config.backend_id = "software";
  config.backend.input_dim = model.input_dim();
  config.backend.hidden_units = 32;
  config.backend.l2_delta = 0.5;
  config.backend.spectral_normalize = true;
  config.backend.seed = 2024;
  config.server.worker_threads = 4;
  config.server.max_live_sessions = 16;
  config.server.max_batch = 16;
  config.server.max_wait_us = 200;
  config.sync_every_updates = 128;

  rl::RouterQServer router(config, model);

  // --- Phase 1: one training session per replica; the averaging rounds
  // keep the fleet's Q-networks converging on shared state.
  std::printf("training %zu replicas with periodic averaging...\n", replicas);
  std::vector<std::size_t> trainers;
  for (std::size_t r = 0; r < replicas; ++r) {
    rl::AsyncSessionSpec train;
    train.mode = rl::AsyncSessionMode::kTrain;
    train.session.env_id = "ShapedCartPole-v0";
    train.session.env_seed = 11 + r;
    train.session.agent_seed = 21 + r;
    train.session.trainer.max_episodes = 25;
    train.session.trainer.reset_interval = 0;
    train.session.trainer.solved_threshold = 1e9;
    trainers.push_back(
        router.add_session({train, "trainer-" + std::to_string(r)}));
  }
  for (const std::size_t id : trainers) {
    const rl::AsyncSessionResult r = router.wait(id);
    std::printf("  trainer #%zu on %s: %zu episodes, %zu steps\n", r.id,
                r.served_by.c_str(), r.train.episodes, r.train.total_steps);
  }

  // --- Phase 2: a burst of evaluation sessions routed by affinity key.
  std::printf("\nserving %zu evaluation sessions on %llu us environments "
              "across %zu replicas\n",
              sessions, static_cast<unsigned long long>(delay_us), replicas);
  for (std::size_t i = 0; i < sessions; ++i) {
    rl::AsyncSessionSpec spec;
    spec.mode = rl::AsyncSessionMode::kEvaluate;
    spec.session.env_id =
        "delay:" + std::to_string(delay_us) + ":ShapedCartPole-v0";
    spec.session.env_seed = 100 + 13 * i;
    spec.session.agent_seed = 50 + i;
    spec.session.trainer.max_episodes = episodes;
    spec.session.trainer.solved_threshold = 1e9;
    spec.session.trainer.episode_step_cap = 60;
    router.add_session({spec, "client-" + std::to_string(i)});
  }

  const std::vector<rl::AsyncSessionResult> results = router.drain();
  bool all_ok = true;
  std::printf("\n%-8s %-14s %-9s %-7s %s\n", "session", "replica",
              "episodes", "steps", "p50/p95/p99 step latency [us]");
  for (const rl::AsyncSessionResult& r : results) {
    all_ok = all_ok && r.completed && !r.failed;
    std::printf("  #%-5zu %-14s %-9zu %-7zu %.0f / %.0f / %.0f\n", r.id,
                r.served_by.c_str(), r.train.episodes, r.train.total_steps,
                r.step_latency_us.quantile(0.50),
                r.step_latency_us.quantile(0.95),
                r.step_latency_us.quantile(0.99));
  }

  // --- Phase 3: self-healing. Hard-kill replica 0 with a fresh burst
  // mid-flight: its sessions are rescued onto the survivors (rerun from
  // their specs), and a replacement server is swapped into the slot with
  // the fleet's learned state imported — not a fresh network.
  std::printf("\nkilling replica 0 with %zu sessions in flight...\n",
              sessions);
  std::vector<std::size_t> burst;
  for (std::size_t i = 0; i < sessions; ++i) {
    rl::AsyncSessionSpec spec;
    spec.mode = rl::AsyncSessionMode::kEvaluate;
    spec.session.env_id =
        "delay:" + std::to_string(delay_us) + ":ShapedCartPole-v0";
    spec.session.env_seed = 300 + 7 * i;
    spec.session.agent_seed = 70 + i;
    spec.session.trainer.max_episodes = episodes;
    spec.session.trainer.solved_threshold = 1e9;
    spec.session.trainer.episode_step_cap = 60;
    burst.push_back(router.add_session({spec, "burst-" + std::to_string(i)}));
  }
  router.kill_replica(0);
  std::size_t rescued_sessions = 0;
  for (const std::size_t id : burst) {
    const rl::AsyncSessionResult r = router.wait(id);
    all_ok = all_ok && r.completed && !r.failed;
    if (r.rescues > 0) ++rescued_sessions;
  }
  std::printf("  every session completed; %zu were rescued onto survivors\n",
              rescued_sessions);

  router.stop();
  obs::MetricsRegistry::global().stop_sampler();
  if (!trace_out.empty()) {
    obs::Tracer::set_enabled(false);
    if (obs::Tracer::write_chrome_trace(trace_out)) {
      std::printf("trace written to %s\n", trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_out.c_str());
    }
  }
  const rl::RouterStats stats = router.stats();
  std::printf("\nper-replica health timelines:\n%s\n",
              stats.health_json().c_str());
  std::printf("router telemetry:\n%s\n", stats.to_json().c_str());

  if (!all_ok) {
    std::fprintf(stderr, "FAIL: a session failed or was cut short\n");
    return 1;
  }
  if (stats.replacements == 0 || stats.abandoned != 0 ||
      stats.replacements_seeded != stats.replacements) {
    std::fprintf(stderr,
                 "FAIL: the killed replica was not cleanly replaced "
                 "(replacements %llu, seeded %llu, abandoned %llu)\n",
                 static_cast<unsigned long long>(stats.replacements),
                 static_cast<unsigned long long>(stats.replacements_seeded),
                 static_cast<unsigned long long>(stats.abandoned));
    return 1;
  }
  if (stats.aggregate.steps == 0 ||
      stats.sessions_admitted != replicas + 2 * sessions) {
    std::fprintf(stderr, "FAIL: router telemetry looks broken\n");
    return 1;
  }
  if (config.replicas > 1 && stats.syncs == 0) {
    std::fprintf(stderr, "FAIL: no averaging round ever ran\n");
    return 1;
  }
  return 0;
}
