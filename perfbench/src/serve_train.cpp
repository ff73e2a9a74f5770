// serve-train: one rl::AsyncQServer, compute-bound (zero env latency),
// closed loop. 32 kTrain sessions share one "software" backend at
// N-tilde = 64; 3 env workers plus the batch thread fill a 4-core host.
// Each session trains for 100 episodes and is then replaced by the next
// session of the seeded stream, so the live set stays at 32 and every
// step goes through the batch thread's ready queue, coalesced predicts
// and serial seq_train — the serving tax. The budget is below the §4.3
// reset horizon, so the shared network is initialized once and never
// re-randomized.
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "env/registry.hpp"
#include "obs/trace.hpp"
#include "rl/async_server.hpp"
#include "rl/backend_registry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace rl = oselm::rl;

constexpr std::size_t kSessions = 32;
constexpr std::size_t kSessionEpisodes = 100;  // each session's budget
constexpr std::size_t kWorkers = 3;
constexpr std::size_t kHidden = 64;
constexpr const char* kEnvId = "ShapedCartPole-v0";
constexpr std::size_t kSetupRepetitions = 9;
constexpr double kWarmupS = 0.5;
constexpr double kBlockS = 0.25;
constexpr double kKeepBest = 0.1;  // see summarize()

rl::BackendConfig backend_config(std::uint64_t seed) {
  rl::BackendConfig config;
  config.input_dim = 5;
  config.hidden_units = kHidden;
  config.l2_delta = 0.5;  // OS-ELM-L2-Lipschitz
  config.spectral_normalize = true;
  config.seed = mix_seed(seed, 0xbac);
  return config;
}

/// A running server and its closed-loop clients: whenever a session
/// retires (its episode budget spent), one client thread admits the next
/// session of the seeded stream, so 32 sessions stay live and each
/// session's history — and with it peak RSS — stays bounded however fast
/// the server steps.
struct Served {
  Served() = default;
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;
  ~Served() { stop(); }

  /// Stops the client, then the server (remaining sessions retire).
  void stop() {
    {
      const std::scoped_lock lock(mutex);
      stopping = true;
    }
    cv.notify_all();
    if (client.joinable()) client.join();
    if (server) server->stop();
  }

  Window window;
  StepBlocks blocks{TimeBlocks{kBlockS}};
  std::uint64_t seed = 0;
  bool traced = false;
  std::uint64_t admitted = 0;  ///< written by set-up, then the client only

  std::mutex mutex;  ///< guards the fields below
  std::condition_variable cv;
  std::size_t replacements_due = 0;
  std::uint64_t retired = 0;
  std::vector<std::string> failures;
  bool stopping = false;

  std::unique_ptr<rl::AsyncQServer> server;
  std::thread client;                   // last: joined before the rest dies
};

/// Admits session number `index` of the seeded stream.
void admit(Served& served, std::uint64_t index) {
  rl::AsyncSessionSpec spec;
  spec.mode = rl::AsyncSessionMode::kTrain;
  spec.session.env_id = kEnvId;
  spec.session.env_seed = mix_seed(served.seed, 2 * index + 1);
  spec.session.agent_seed = mix_seed(served.seed, 2 * index);
  spec.session.agent.gamma = 0.9;  // as core::AgentConfig
  spec.session.trainer.max_episodes = kSessionEpisodes;
  spec.session.trainer.stop_on_solved = false;
  StepBlocks* blocks = &served.blocks;
  const Window* window = &served.window;
  const char* span =
      served.traced ? intern("env.step s" + std::to_string(index)) : nullptr;
  spec.env_factory = [blocks, window, span](std::uint64_t env_seed) {
    return std::make_unique<TimedEnv>(
        oselm::env::make_environment(kEnvId, env_seed), blocks, window, span);
  };
  (void)served.server->add_session(spec);
  ++served.admitted;
}

void client_loop(Served& served) {
  for (;;) {
    {
      std::unique_lock lock(served.mutex);
      served.cv.wait(lock, [&] {
        return served.stopping || served.replacements_due > 0;
      });
      if (served.stopping) return;
      --served.replacements_due;
    }
    try {
      admit(served, served.admitted);
    } catch (const rl::AdmissionError&) {
      return;  // the server is stopping
    } catch (const std::exception& e) {
      const std::scoped_lock lock(served.mutex);
      served.failures.push_back(std::string("admission failed: ") + e.what());
      return;
    }
  }
}

/// Builds the backend and server, admits every session, starts the
/// client and waits for the first Eq. 7/8 initial training (the server is
/// then in steady state). Returns the set-up seconds.
double set_up(Served& served, std::uint64_t seed, bool traced) {
  const Clock::time_point start = Clock::now();
  served.window.set(Clock::time_point::max(), Clock::time_point::max());
  served.seed = seed;
  served.traced = traced;
  const rl::OsElmQBackendPtr backend = rl::make_backend(
      traced ? timed_backend_id("software") : "software",
      backend_config(seed));
  (void)take_timed_backends();  // counters are read on the batch thread
  rl::AsyncQServerConfig config;
  config.name = "serve-train";
  config.worker_threads = kWorkers;
  config.on_retire = [&served](rl::AsyncSessionResult&& result) {
    {
      const std::scoped_lock lock(served.mutex);
      ++served.retired;
      if (result.failed) {
        served.failures.push_back("session " + std::to_string(result.id) +
                                  " failed: " + result.error);
      }
      if (!served.stopping) ++served.replacements_due;
    }
    served.cv.notify_one();
  };
  served.server = std::make_unique<rl::AsyncQServer>(
      backend, rl::SimplifiedOutputModel(4, 2), config);
  for (std::size_t i = 0; i < kSessions; ++i) admit(served, i);
  served.client = std::thread([&served] { client_loop(served); });
  while (served.server->stats().init_trains == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return micros(start, Clock::now()) * 1e-6;
}

bool finite_state(const rl::QNetState& state) {
  for (const oselm::linalg::MatD* m : {&state.beta, &state.beta_target,
                                       &state.p}) {
    for (std::size_t i = 0; i < m->size(); ++i) {
      if (!std::isfinite(m->data()[i])) return false;
    }
  }
  return true;
}

struct Phase {
  BlockStats stats;
  rl::AsyncServerStats begin;
  rl::AsyncServerStats end;
  BackendCounters backend_begin;
  BackendCounters backend_end;
  double env_busy_us = 0.0;
};

/// Runs the warm-up and the measured window on a set-up server, checks
/// its outputs into `report`, then stops it.
Phase measure(Served& served, double seconds, Report& report) {
  Phase phase;
  const Clock::time_point open = after(Clock::now(), kWarmupS);
  const Clock::time_point close = after(open, seconds);
  served.window.set(open, close);
  const auto snapshot_backend = [&](BackendCounters& out) {
    if (served.traced) {
      served.server->run_exclusive([&](rl::OsElmQBackend& backend) {
        out = dynamic_cast<const TimedBackend&>(backend).counters();
      });
    }
  };
  std::this_thread::sleep_until(open);
  phase.begin = served.server->stats();
  snapshot_backend(phase.backend_begin);
  std::this_thread::sleep_until(close);
  phase.end = served.server->stats();
  snapshot_backend(phase.backend_end);

  rl::QNetState state;
  served.server->run_exclusive(
      [&](rl::OsElmQBackend& backend) { state = backend.export_state(); });
  served.stop();

  report.attempted += served.admitted;
  {
    const std::scoped_lock lock(served.mutex);
    report.failed += served.failures.size();
    for (const std::string& failure : served.failures) report.fail(failure);
    if (served.retired != served.admitted) {
      report.fail(std::to_string(served.admitted) + " sessions admitted but " +
                  std::to_string(served.retired) + " retired");
    }
  }
  if (!finite_state(state)) {
    report.fail("exported QNetState holds a non-finite value");
  }

  // Every session retired, so every environment handed over its samples.
  phase.stats = summarize(served.blocks.finish(), kKeepBest);
  phase.env_busy_us = served.blocks.env_busy_us();
  if (phase.stats.steps == 0) report.fail("no steps in the measured window");
  if (served.blocks.late_samples() != 0) {
    // A thread stalled past the block horizon (a host hiccup, not a
    // program error): its samples were dropped from the statistics.
    std::printf("note: %llu step samples arrived after their block was "
                "reduced and were dropped\n",
                static_cast<unsigned long long>(served.blocks.late_samples()));
  }
  std::printf(
      "serve-train window=%.3fs steps=%llu steps_per_s=%.1f "
      "step_p50_us=%.4f step_p99_us=%.4f blocks=%zu batches=%llu "
      "rows_per_batch=%.3f train_updates=%llu sessions=%llu "
      "initialized=%d\n",
      seconds, static_cast<unsigned long long>(phase.stats.steps),
      phase.stats.steps_per_s, phase.stats.p50_us, phase.stats.p99_us,
      phase.stats.blocks,
      static_cast<unsigned long long>(phase.end.batches - phase.begin.batches),
      static_cast<double>(phase.end.batch_rows - phase.begin.batch_rows) /
          static_cast<double>(
              std::max<std::uint64_t>(phase.end.batches - phase.begin.batches,
                                      1)),
      static_cast<unsigned long long>(phase.end.train_updates -
                                      phase.begin.train_updates),
      static_cast<unsigned long long>(served.admitted),
      state.initialized ? 1 : 0);
  return phase;
}

BackendCounters difference(const BackendCounters& end,
                           const BackendCounters& begin) {
  BackendCounters d;
  d.predict_calls = end.predict_calls - begin.predict_calls;
  d.predict_rows = end.predict_rows - begin.predict_rows;
  d.predict_us = end.predict_us - begin.predict_us;
  d.seq_train_calls = end.seq_train_calls - begin.seq_train_calls;
  d.seq_train_us = end.seq_train_us - begin.seq_train_us;
  d.init_train_calls = end.init_train_calls - begin.init_train_calls;
  d.init_train_us = end.init_train_us - begin.init_train_us;
  return d;
}

}  // namespace

Report run_serve_train(const Options& options) {
  Report report;
  if (!options.trace) {
    std::vector<double> setups;
    std::unique_ptr<Served> served;
    for (std::size_t i = 0; i < kSetupRepetitions; ++i) {
      served = std::make_unique<Served>();  // stops the previous server
      setups.push_back(set_up(*served, options.seed, false));
    }
    const Phase phase = measure(*served, options.seconds, report);
    EndToEnd e2e;
    e2e.setup_s = setup_seconds(std::move(setups));
    e2e.steps_per_s = phase.stats.steps_per_s;
    e2e.step_p50_us = phase.stats.p50_us;
    e2e.step_p99_us = phase.stats.p99_us;
    e2e.peak_rss_mb = peak_rss_mb();
    add_end_to_end(report, e2e);
    return report;
  }

  const double half = options.seconds / 2.0;
  Phase plain;
  {
    Served served;
    (void)set_up(served, options.seed, false);
    plain = measure(served, half, report);
  }
  Served served;
  oselm::obs::Tracer::set_enabled(true);
  (void)set_up(served, options.seed, true);
  const Phase traced = measure(served, half, report);
  oselm::obs::Tracer::set_enabled(false);

  Layers layers;
  layers.step_samples = traced.stats.steps;
  layers.env_step_calls = traced.stats.steps;
  layers.env_step_busy_us = traced.env_busy_us;
  layers.backend = difference(traced.backend_end, traced.backend_begin);
  layers.backend_busy_frac = layers.backend.busy_us() / (half * 1e6);
  layers.async_batches = traced.end.batches - traced.begin.batches;
  layers.async_rows_per_batch =
      per_call(static_cast<double>(traced.end.batch_rows -
                                   traced.begin.batch_rows),
               layers.async_batches);
  layers.async_train_updates =
      traced.end.train_updates - traced.begin.train_updates;
  layers.async_wait_p50_us = traced.stats.wait_p50_us;
  layers.async_wait_p99_us = traced.stats.wait_p99_us;
  layers.trace_overhead_pct = 100.0 *
                              (plain.stats.steps_per_s -
                               traced.stats.steps_per_s) /
                              plain.stats.steps_per_s;
  add_layers(report, layers);
  return report;
}

}  // namespace perfbench
