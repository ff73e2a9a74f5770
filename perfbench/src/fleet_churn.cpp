// fleet-churn: rl::RouterQServer with two replicas, overlap-bound
// ("delay:250:ShapedCartPole-v0" environments), open loop. Sessions
// arrive on a seeded Poisson schedule (a fixed count, uniformly placed
// over the window) generated before timing starts; each runs one greedy
// kEvaluate episode against weights trained once during set-up and
// imported into every replica. The rate is well below saturation, so
// every session is admitted at once and the queue cannot grow.
//
// Latency is counted from a session's due time, so a stalled generator
// or admission path shows in it; a run whose generator fell behind is
// flagged incorrect rather than scored.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>

#include "core/design.hpp"
#include "env/registry.hpp"
#include "obs/trace.hpp"
#include "rl/async_server.hpp"
#include "rl/backend_registry.hpp"
#include "rl/router.hpp"
#include "rl/trainer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace rl = oselm::rl;

constexpr std::size_t kReplicas = 2;
constexpr std::size_t kWorkersPerReplica = 6;
constexpr std::size_t kMaxLivePerReplica = 32;
constexpr double kSessionsPerSecond = 100.0;
constexpr const char* kEnvId = "delay:250:ShapedCartPole-v0";
constexpr const char* kTrainEnvId = "ShapedCartPole-v0";
/// The served model is a fixed artifact: Algorithm 1 (core::make_agent +
/// rl::run_training) from constant seeds, trained 400 episodes — it
/// completes CartPole before the §4.3 reset horizon, so its random
/// projection is still the one its BackendConfig draws, and its greedy
/// policy holds the pole ~200 steps. Every workload seed serves the same
/// weights; only the traffic (arrival times, session seeds) follows
/// --seed.
constexpr std::uint64_t kModelSeed = 16;
constexpr std::uint64_t kModelEnvSeed = 23;
constexpr std::size_t kModelEpisodes = 400;
constexpr std::size_t kSetupRepetitions = 9;
constexpr std::size_t kWaiters = 32;
constexpr std::size_t kDeterminismChecks = 4;
/// A run whose generator's p99 lateness exceeds the mean inter-arrival
/// gap no longer offered the scheduled load: it is flagged invalid.
constexpr double kMaxLateP99Ms = 1000.0 / kSessionsPerSecond;
constexpr double kLeadS = 0.05;  // schedule starts this long after set-up
constexpr double kBlockS = 1.0;

const rl::SimplifiedOutputModel& model() {
  static const rl::SimplifiedOutputModel m(4, 2);
  return m;
}

struct ServedModel {
  rl::BackendConfig config;  ///< what replicas are built from
  rl::QNetState state;       ///< imported into every replica
};

ServedModel train_model() {
  oselm::core::AgentConfig agent_config;
  agent_config.hidden_units = 64;
  agent_config.seed = kModelSeed;
  // The timing decorator captures the backend and its exact config.
  agent_config.backend_id = timed_backend_id("software");
  (void)take_timed_backends();
  const rl::AgentPtr agent = oselm::core::make_agent(agent_config);
  const std::vector<std::shared_ptr<TimedBackend>> built =
      take_timed_backends();
  const oselm::env::EnvironmentPtr env =
      oselm::env::make_environment(kTrainEnvId, kModelEnvSeed);
  rl::TrainerConfig trainer;
  trainer.max_episodes = kModelEpisodes;
  trainer.stop_on_solved = false;
  const rl::TrainResult result = rl::run_training(*agent, *env, trainer);
  if (built.size() != 1 || !result.solved || result.resets != 0) {
    throw std::runtime_error(
        "fleet-churn: the served model did not complete CartPole before "
        "its first weight reset");
  }
  return {built.front()->config(), built.front()->export_state()};
}

struct Arrival {
  double due_s = 0.0;  ///< seconds after the schedule origin
  std::uint64_t env_seed = 0;
  std::uint64_t agent_seed = 0;
};

/// N = rate * seconds arrivals placed uniformly at random over the
/// window: a Poisson process conditioned on its count, so every seed
/// offers the same load.
std::vector<Arrival> make_schedule(std::uint64_t seed, double seconds) {
  const auto n = static_cast<std::size_t>(kSessionsPerSecond * seconds + 0.5);
  std::vector<Arrival> schedule(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t bits = mix_seed(seed, 3 * i);
    schedule[i].due_s =
        static_cast<double>(bits >> 11) * 0x1.0p-53 * seconds;
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const Arrival& a, const Arrival& b) {
              return a.due_s < b.due_s;
            });
  for (std::size_t i = 0; i < n; ++i) {
    schedule[i].env_seed = mix_seed(seed, 3 * i + 1);
    schedule[i].agent_seed = mix_seed(seed, 3 * i + 2);
  }
  return schedule;
}

rl::RouterSessionSpec session_spec(const Arrival& arrival, StepBlocks* blocks,
                                   const Window* window, const char* span) {
  rl::RouterSessionSpec spec;
  spec.session.mode = rl::AsyncSessionMode::kEvaluate;
  spec.session.session.env_id = kEnvId;
  spec.session.session.env_seed = arrival.env_seed;
  spec.session.session.agent_seed = arrival.agent_seed;
  spec.session.session.agent.epsilon_greedy = 1.0;  // deployed: greedy
  spec.session.session.trainer.max_episodes = 1;
  spec.session.env_factory = [blocks, window, span](std::uint64_t env_seed) {
    return std::make_unique<TimedEnv>(
        oselm::env::make_environment(kEnvId, env_seed), blocks, window, span);
  };
  return spec;
}

struct Fleet {
  Window window;
  std::vector<Arrival> schedule;
  StepBlocks blocks{TimeBlocks{kBlockS}};
  std::unique_ptr<rl::RouterQServer> router;
};

/// Builds the fleet; the `turn`-th set-up trains the model on the turn-th
/// CPU (see CpuRotation), so a contended CPU slows a share of set-ups.
double set_up(Fleet& fleet, std::uint64_t seed, double seconds, bool traced,
              std::size_t turn) {
  const Clock::time_point start = Clock::now();
  fleet.window.set(Clock::time_point::max(), Clock::time_point::max());
  ServedModel served;
  {
    const CpuRotation cpus;  // restored before the router starts threads
    cpus.pin(turn);
    served = train_model();
  }
  rl::RouterConfig config;
  config.name = "fleet";
  config.replicas = kReplicas;
  config.backend_id = traced ? timed_backend_id("software") : "software";
  config.backend = served.config;
  config.server.worker_threads = kWorkersPerReplica;
  config.server.max_live_sessions = kMaxLivePerReplica;
  fleet.router = std::make_unique<rl::RouterQServer>(config, model());
  fleet.router->run_exclusive_on_all(
      [&](rl::OsElmQBackend& backend) { backend.import_state(served.state); });
  fleet.schedule = make_schedule(seed, seconds);
  (void)take_timed_backends();  // counters are read through the router
  return micros(start, Clock::now()) * 1e-6;
}

/// Result delivery: a pool of waiter threads blocks in wait() on admitted
/// ids, so each session's delivery is observed when it happens.
class Collector {
 public:
  Collector(rl::RouterQServer& router, std::size_t sessions)
      : router_(router), results_(sessions), delivered_(sessions) {
    for (std::size_t i = 0; i < kWaiters; ++i) {
      threads_.emplace_back([this] { loop(); });
    }
  }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;
  ~Collector() { finish(); }

  void push(std::size_t index, std::size_t router_id) {
    {
      const std::scoped_lock lock(mutex_);
      queue_.emplace_back(index, router_id);
    }
    cv_.notify_one();
  }

  /// Waits for every pushed session's result.
  void finish() {
    {
      const std::scoped_lock lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  std::vector<rl::AsyncSessionResult>& results() { return results_; }
  const std::vector<Clock::time_point>& delivered() const {
    return delivered_;
  }

 private:
  void loop() {
    for (;;) {
      std::pair<std::size_t, std::size_t> job;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
        if (queue_.empty()) return;
        job = queue_.front();
        queue_.pop_front();
      }
      try {
        results_[job.first] = router_.wait(job.second);
      } catch (const std::exception& e) {
        results_[job.first].failed = true;
        results_[job.first].error = e.what();
      }
      delivered_[job.first] = Clock::now();
    }
  }

  rl::RouterQServer& router_;
  std::vector<rl::AsyncSessionResult> results_;  ///< by schedule index
  std::vector<Clock::time_point> delivered_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::pair<std::size_t, std::size_t>> queue_;
  bool closed_ = false;
  std::vector<std::thread> threads_;  // last: joined before members die
};

struct Phase {
  double steps_per_s = 0.0;
  BlockStats latency;
  double env_busy_us = 0.0;
  std::vector<double> session_ms;
  std::vector<double> late_ms;
  std::vector<double> add_us;
  std::uint64_t offered = 0;
  rl::RouterStats begin;
  rl::RouterStats end;
  BackendCounters backend;
};

Phase measure(Fleet& fleet, double seconds, bool traced, Report& report) {
  Phase phase;
  rl::RouterQServer& router = *fleet.router;
  const std::size_t n = fleet.schedule.size();
  const Clock::time_point origin = after(Clock::now(), kLeadS);
  fleet.window.set(origin, after(origin, seconds));
  std::vector<Clock::time_point> due(n);
  std::vector<bool> admitted(n, false);
  // Probes of the determinism re-runs: closed, so they record nothing.
  // Declared before the router stops, so they outlive every session.
  Window closed;
  closed.set(Clock::time_point::max(), Clock::time_point::max());
  StepBlocks scratch{TimeBlocks{kBlockS}};
  phase.begin = router.stats();
  {
    Collector collector(router, n);
    for (std::size_t i = 0; i < n; ++i) {
      due[i] = after(origin, fleet.schedule[i].due_s);
      std::this_thread::sleep_until(due[i]);
      const Clock::time_point sent = Clock::now();
      phase.late_ms.push_back(micros(due[i], sent) * 1e-3);
      const char* span =
          traced ? intern("env.step session#" + std::to_string(i)) : nullptr;
      try {
        const std::size_t id = router.add_session(
            session_spec(fleet.schedule[i], &fleet.blocks, &fleet.window,
                         span));
        phase.add_us.push_back(micros(sent, Clock::now()));
        admitted[i] = true;
        collector.push(i, id);
      } catch (const rl::AdmissionError& e) {
        report.fail(std::string("session rejected: ") + e.what());
      }
    }
    collector.finish();
    phase.end = router.stats();
    if (traced) {
      router.run_exclusive_on_all([&](rl::OsElmQBackend& backend) {
        phase.backend += dynamic_cast<const TimedBackend&>(backend).counters();
      });
    }
    for (std::size_t i = 0; i < n; ++i) {
      ++report.attempted;
      if (!admitted[i]) {
        ++report.failed;
        continue;
      }
      const rl::AsyncSessionResult& result = collector.results()[i];
      if (!result.completed || result.failed) {
        ++report.failed;
        report.fail("session " + std::to_string(i) + " ended " +
                    std::string(rl::to_string(result.cause)) + ": " +
                    result.error);
        continue;
      }
      phase.session_ms.push_back(
          micros(due[i], collector.delivered()[i]) * 1e-3);
    }

    // Eval determinism: a sample of the specs re-run alone must give
    // bit-identical trajectories.
    for (std::size_t k = 0; k < kDeterminismChecks; ++k) {
      const std::size_t i = (2 * k + 1) * n / (2 * kDeterminismChecks);
      if (i >= n || !admitted[i]) continue;
      const rl::AsyncSessionResult alone = router.wait(router.add_session(
          session_spec(fleet.schedule[i], &scratch, &closed, nullptr)));
      if (alone.train.episode_steps !=
          collector.results()[i].train.episode_steps) {
        report.fail("eval session " + std::to_string(i) +
                    " re-run alone gave a different trajectory");
      }
    }
  }
  phase.offered = n;
  router.stop();

  // The open loop fixes throughput (offered load x episode length), so
  // the rate is the whole window's; latency percentiles are block medians.
  phase.latency = summarize(fleet.blocks.finish(), 1.0);
  phase.steps_per_s = static_cast<double>(phase.latency.steps) / seconds;
  phase.env_busy_us = fleet.blocks.env_busy_us();
  if (fleet.blocks.late_samples() != 0) {
    // A thread stalled past the block horizon (a host hiccup, not a
    // program error): its samples were dropped from the statistics.
    std::printf("note: %llu step samples arrived after their block was "
                "reduced and were dropped\n",
                static_cast<unsigned long long>(fleet.blocks.late_samples()));
  }

  const double late_p99 = quantile(phase.late_ms, 0.99);
  std::printf(
      "fleet-churn offered=%zu completed=%zu steps=%llu steps_per_s=%.1f "
      "step_p50_us=%.3f step_p99_us=%.3f session_p50_ms=%.3f "
      "session_p99_ms=%.3f late_p50_ms=%.4f late_p99_ms=%.4f "
      "late_max_ms=%.4f\n",
      n, phase.session_ms.size(),
      static_cast<unsigned long long>(phase.latency.steps), phase.steps_per_s,
      phase.latency.p50_us, phase.latency.p99_us,
      quantile(phase.session_ms, 0.50), quantile(phase.session_ms, 0.99),
      quantile(phase.late_ms, 0.50), late_p99, quantile(phase.late_ms, 1.0));
  if (late_p99 > kMaxLateP99Ms) {
    report.fail("generator fell behind its schedule (p99 lateness " +
                std::to_string(late_p99) + " ms): run invalid");
  }
  return phase;
}

}  // namespace

Report run_fleet_churn(const Options& options) {
  Report report;
  if (!options.trace) {
    std::vector<double> setups;
    std::unique_ptr<Fleet> fleet;
    for (std::size_t i = 0; i < kSetupRepetitions; ++i) {
      fleet = std::make_unique<Fleet>();  // stops the previous router
      setups.push_back(
          set_up(*fleet, options.seed, options.seconds, false, i));
    }
    const Phase phase = measure(*fleet, options.seconds, false, report);
    EndToEnd e2e;
    e2e.setup_s = setup_seconds(std::move(setups));
    e2e.steps_per_s = phase.steps_per_s;
    e2e.step_p50_us = phase.latency.p50_us;
    e2e.step_p99_us = phase.latency.p99_us;
    e2e.peak_rss_mb = peak_rss_mb();
    add_end_to_end(report, e2e);
    return report;
  }

  const double half = options.seconds / 2.0;
  Phase plain;
  {
    Fleet fleet;
    (void)set_up(fleet, options.seed, half, false, 0);
    plain = measure(fleet, half, false, report);
  }
  Fleet fleet;
  oselm::obs::Tracer::set_enabled(true);
  (void)set_up(fleet, options.seed, half, true, 0);
  const Phase traced = measure(fleet, half, true, report);
  oselm::obs::Tracer::set_enabled(false);

  Layers layers;
  layers.step_samples = traced.latency.steps;
  layers.env_step_calls = traced.latency.steps;
  layers.env_step_busy_us = traced.env_busy_us;
  layers.backend = traced.backend;
  layers.backend_busy_frac =
      traced.backend.busy_us() / (half * 1e6 * static_cast<double>(kReplicas));
  const rl::AsyncServerStats& a0 = traced.begin.aggregate;
  const rl::AsyncServerStats& a1 = traced.end.aggregate;
  layers.async_batches = a1.batches - a0.batches;
  layers.async_rows_per_batch = per_call(
      static_cast<double>(a1.batch_rows - a0.batch_rows), layers.async_batches);
  layers.async_train_updates = a1.train_updates - a0.train_updates;
  layers.async_wait_p50_us = traced.latency.wait_p50_us;
  layers.async_wait_p99_us = traced.latency.wait_p99_us;
  layers.router_add_p50_us = quantile(traced.add_us, 0.50);
  layers.router_add_p99_us = quantile(traced.add_us, 0.99);
  layers.router_spillovers = traced.end.spillovers - traced.begin.spillovers;
  layers.router_placement_rejections =
      traced.end.placement_rejections - traced.begin.placement_rejections;
  std::vector<double> replica_steps;
  for (std::size_t r = 0; r < traced.end.per_replica.size(); ++r) {
    replica_steps.push_back(
        static_cast<double>(traced.end.per_replica[r].steps -
                            traced.begin.per_replica[r].steps));
  }
  const auto [lo, hi] =
      std::minmax_element(replica_steps.begin(), replica_steps.end());
  double total = 0.0;
  for (const double s : replica_steps) total += s;
  layers.router_replica_steps_skew =
      total > 0.0 ? (*hi - *lo) / (total / static_cast<double>(kReplicas))
                  : 0.0;
  layers.session_p50_ms = quantile(traced.session_ms, 0.50);
  layers.session_p99_ms = quantile(traced.session_ms, 0.99);
  layers.session_samples = traced.session_ms.size();
  layers.gen_late_p99_ms = quantile(traced.late_ms, 0.99);
  layers.gen_sessions_offered = traced.offered;
  layers.trace_overhead_pct =
      100.0 * (plain.steps_per_s - traced.steps_per_s) / plain.steps_per_s;
  add_layers(report, layers);
  return report;
}

}  // namespace perfbench
