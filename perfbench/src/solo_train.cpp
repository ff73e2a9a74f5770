// solo-train: the paper's Algorithm 1 at N-tilde = 64. Single-agent
// core::make_agent + rl::run_training to completion on ShapedCartPole-v0
// over a seeded trial list, for three designs: OS-ELM-L2-Lipschitz
// ("software" backend), FPGA ("fpga-q20") and DQN.
//
// The designs take turns, one trial at a time (the one with the least
// training wall time so far goes next), until each has trained for a
// third of the run. Successive trials run on successive CPUs of the
// process's affinity set: a co-tenant that contends one CPU then slows a
// share of every design's blocks, which the best-blocks statistic drops,
// instead of the whole run of a thread the scheduler left on that CPU.
//
// Per-trial time-to-complete varies ~100x between seeds (the §4.3 reset
// count is geometric), so the end-to-end metrics are per-step: each
// design's steps/s and cycle-time percentiles, combined over the designs
// by geometric mean so a change in any one design moves them by the same
// share. Time to complete is reported per trial on stdout and per design
// in the traced run.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "core/design.hpp"
#include "env/registry.hpp"
#include "fixed/overflow_stats.hpp"
#include "hw/cycle_model.hpp"
#include "hw/platform_model.hpp"
#include "obs/trace.hpp"
#include "rl/trainer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = oselm::core;
namespace rl = oselm::rl;
using oselm::util::OpCategory;

constexpr std::size_t kHidden = 64;
constexpr std::size_t kInputs = 5;  // 4-d state + action code
constexpr const char* kEnvId = "ShapedCartPole-v0";
constexpr int kDesigns = 3;
constexpr std::size_t kSetupRepetitions = 9;
constexpr std::size_t kWarmupEpisodes = 30;
/// Set-up warms the same agents for every workload seed, so set-up time
/// does not depend on how fast a seed's warm-up episodes learn.
constexpr std::uint64_t kWarmupSeed = 1;
/// Steps per statistics block, per design: about 0.1 s of training each.
constexpr std::size_t kBlockSteps[kDesigns] = {60000, 16000, 2000};
constexpr double kKeepBest = 0.1;  // see summarize()

struct DesignSpec {
  core::Design design;
  const char* key;
  const char* backend;  ///< registry id; empty for DQN
};

const DesignSpec kSpecs[kDesigns] = {
    {core::Design::kOsElmL2Lipschitz, "oselm", "software"},
    {core::Design::kFpga, "fpga", "fpga-q20"},
    {core::Design::kDqn, "dqn", ""},
};

struct DesignRun {
  std::size_t trials = 0;
  std::size_t solved = 0;
  std::size_t steps = 0;
  double episodes = 0.0;
  double wall_s = 0.0;
  std::unique_ptr<StepBlocks> blocks;
  BlockStats stats;
  oselm::util::OpBreakdown ledger;  ///< summed over trials
  BackendCounters backend;
  std::uint64_t act_calls = 0;
  double act_us = 0.0;
  std::uint64_t observe_calls = 0;
  double observe_us = 0.0;
  std::uint64_t saturations = 0;

  /// Mean episodes to complete over the solved trials.
  [[nodiscard]] double mean_episodes() const {
    return episodes / static_cast<double>(std::max<std::size_t>(solved, 1));
  }
};

struct Phase {
  DesignRun runs[kDesigns];
  double steps_per_s = 0.0;  ///< geometric mean over designs
  double p50_us = 0.0;
  double p99_us = 0.0;
};

std::uint64_t agent_seed(std::uint64_t seed, std::size_t trial) {
  return mix_seed(seed, 2 * trial);
}
std::uint64_t env_seed(std::uint64_t seed, std::size_t trial) {
  return mix_seed(seed, 2 * trial + 1);
}

rl::AgentPtr make_design_agent(int d, std::uint64_t seed, bool traced) {
  core::AgentConfig config;
  config.design = kSpecs[d].design;
  config.hidden_units = kHidden;
  config.seed = seed;
  if (traced && kSpecs[d].backend[0] != '\0') {
    config.backend_id = timed_backend_id(kSpecs[d].backend);
  }
  rl::AgentPtr agent = core::make_agent(config);
  if (traced) agent = std::make_unique<TimedAgent>(std::move(agent));
  return agent;
}

/// One set-up: build every design's agent and environment and train each
/// for a few episodes so lazy allocations and caches are warm.
double one_setup() {
  const Clock::time_point start = Clock::now();
  Window window;
  StepBlocks blocks{CountBlocks{1u << 30}};
  rl::TrainerConfig trainer;
  trainer.max_episodes = kWarmupEpisodes;
  for (int d = 0; d < kDesigns; ++d) {
    rl::AgentPtr agent = make_design_agent(d, kWarmupSeed, false);
    TimedEnv env(oselm::env::make_environment(kEnvId, kWarmupSeed),
                 &blocks, &window, nullptr);
    (void)rl::run_training(*agent, env, trainer);
  }
  return micros(start, Clock::now()) * 1e-6;
}

double geomean(const double (&values)[kDesigns]) {
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / kDesigns);
}

Phase run_phase(const Options& options, double budget_s, bool traced) {
  Phase phase;
  for (int d = 0; d < kDesigns; ++d) {
    phase.runs[d].blocks =
        std::make_unique<StepBlocks>(CountBlocks{kBlockSteps[d]});
  }
  const Window always_open;
  const CpuRotation cpus;
  const double share_s = budget_s / kDesigns;
  const rl::TrainerConfig trainer;  // the paper's criterion and cutoff
  for (;;) {
    int d = -1;
    for (int k = 0; k < kDesigns; ++k) {
      if (phase.runs[k].wall_s < share_s &&
          (d < 0 || phase.runs[k].wall_s < phase.runs[d].wall_s)) {
        d = k;
      }
    }
    if (d < 0) break;
    DesignRun& run = phase.runs[d];
    const std::size_t trial = run.trials;
    const std::uint64_t a_seed = agent_seed(options.seed, trial);
    const std::uint64_t e_seed = env_seed(options.seed, trial);

    cpus.pin(phase.runs[0].trials + phase.runs[1].trials +
             phase.runs[2].trials);
    rl::AgentPtr agent = make_design_agent(d, a_seed, traced);
    const char* span =
        traced ? intern(std::string("env.step ") + kSpecs[d].key + "#" +
                        std::to_string(trial))
               : nullptr;
    auto env = std::make_unique<TimedEnv>(
        oselm::env::make_environment(kEnvId, e_seed), run.blocks.get(),
        &always_open, span);

    const std::uint64_t saturations = oselm::fixed::overflow_stats().total();
    const Clock::time_point start = Clock::now();
    const rl::TrainResult result = rl::run_training(*agent, *env, trainer);
    const double wall = micros(start, Clock::now()) * 1e-6;
    env = nullptr;  // its last samples go to the blocks

    run.saturations += oselm::fixed::overflow_stats().total() - saturations;
    ++run.trials;
    run.steps += result.total_steps;
    run.wall_s += wall;
    if (result.solved) {
      ++run.solved;
      run.episodes += static_cast<double>(result.first_solved_episode);
    }
    run.ledger += agent->breakdown();
    if (traced) {
      const auto& timed_agent = static_cast<const TimedAgent&>(*agent);
      run.act_calls += timed_agent.act_calls;
      run.act_us += timed_agent.act_us;
      run.observe_calls += timed_agent.observe_calls;
      run.observe_us += timed_agent.observe_us;
      for (const auto& backend : take_timed_backends()) {
        run.backend += backend->counters();
      }
    }
    std::printf(
        "trial design=%s index=%zu agent_seed=%llu env_seed=%llu solved=%d "
        "episodes_to_complete=%zu steps=%zu resets=%zu wall_s=%.6f%s\n",
        kSpecs[d].key, trial, static_cast<unsigned long long>(a_seed),
        static_cast<unsigned long long>(e_seed), result.solved ? 1 : 0,
        result.solved ? result.first_solved_episode : result.episodes,
        result.total_steps, result.resets, wall, traced ? " traced" : "");
  }

  double rates[kDesigns];
  double p50[kDesigns];
  double p99[kDesigns];
  for (int d = 0; d < kDesigns; ++d) {
    DesignRun& run = phase.runs[d];
    run.stats = summarize(run.blocks->finish(), kKeepBest);
    const BlockStats& stats = run.stats;
    rates[d] = stats.steps_per_s;
    p50[d] = stats.p50_us;
    p99[d] = stats.p99_us;
    std::printf(
        "design %-5s trials=%zu solved=%zu mean_solve_s=%.6f "
        "mean_episodes=%.1f steps=%zu steps_per_s=%.1f step_p50_us=%.4f "
        "step_p99_us=%.4f samples=%llu blocks=%zu\n",
        kSpecs[d].key, run.trials, run.solved,
        run.wall_s / static_cast<double>(run.trials),
        run.mean_episodes(),
        run.steps, rates[d], p50[d], p99[d],
        static_cast<unsigned long long>(stats.steps), stats.blocks);
  }
  phase.steps_per_s = geomean(rates);
  phase.p50_us = geomean(p50);
  phase.p99_us = geomean(p99);
  return phase;
}

void account(Report& report, const Phase& phase) {
  for (const DesignRun& run : phase.runs) {
    report.attempted += run.trials;
    report.failed += run.trials - run.solved;
  }
}

/// Modeled PYNQ-Z1 seconds of the FPGA design's summed ledger, from its
/// per-category invocation counts (the paper's Fig. 5 board view).
void board_seconds(const oselm::util::OpBreakdown& ledger, Layers& layers,
                   double trials) {
  const oselm::hw::CycleModel cycles(kHidden, kInputs);
  const oselm::hw::SoftwarePlatformModel cpu;
  const double predict = cycles.predict_batch_seconds(2) / 2.0;
  const auto count = [&](OpCategory c) {
    return static_cast<double>(ledger.invocations(c));
  };
  // seq_train counts 1 update + 2 target evaluations; init_train counts
  // 1 solve + 2 target evaluations per buffered sample.
  const double updates = count(OpCategory::kSeqTrain) / 3.0;
  const double solves = count(OpCategory::kInitTrain) /
                        (2.0 * static_cast<double>(kHidden) + 1.0);
  const double evals = count(OpCategory::kInitTrain) - solves;
  layers.hw_board_predict_s =
      (count(OpCategory::kPredictInit) + count(OpCategory::kPredictSeq)) *
      predict / trials;
  layers.hw_board_seq_train_s =
      updates * (cycles.seq_train_seconds() + 2.0 * predict) / trials;
  layers.hw_board_init_train_s =
      (solves * cpu.oselm_init_train_seconds(kHidden, kInputs, kHidden) +
       evals * predict) /
      trials;
  layers.hw_board_solve_s = layers.hw_board_predict_s +
                            layers.hw_board_seq_train_s +
                            layers.hw_board_init_train_s;
}

}  // namespace

Report run_solo_train(const Options& options) {
  Report report;
  if (!options.trace) {
    std::vector<double> setups;
    {
      const CpuRotation cpus;  // repetitions on successive CPUs
      for (std::size_t i = 0; i < kSetupRepetitions; ++i) {
        cpus.pin(i);
        setups.push_back(one_setup());
      }
    }
    const Phase phase = run_phase(options, options.seconds, false);
    account(report, phase);
    EndToEnd e2e;
    e2e.setup_s = setup_seconds(std::move(setups));
    e2e.steps_per_s = phase.steps_per_s;
    e2e.step_p50_us = phase.p50_us;
    e2e.step_p99_us = phase.p99_us;
    e2e.peak_rss_mb = peak_rss_mb();
    add_end_to_end(report, e2e);
  } else {
    (void)one_setup();
    const Phase plain = run_phase(options, options.seconds / 2.0, false);
    oselm::obs::Tracer::set_enabled(true);
    const Phase traced = run_phase(options, options.seconds / 2.0, true);
    oselm::obs::Tracer::set_enabled(false);
    account(report, plain);
    account(report, traced);

    Layers layers;
    for (int d = 0; d < kDesigns; ++d) {
      const DesignRun& run = traced.runs[d];
      const double trials = static_cast<double>(run.trials);
      layers.step_samples += run.stats.steps;
      layers.env_step_calls += run.steps;
      layers.env_step_busy_us += run.blocks->env_busy_us();
      layers.agent_act_us[d] = per_call(run.act_us, run.act_calls);
      layers.agent_observe_us[d] = per_call(run.observe_us, run.observe_calls);
      layers.solve_s[d] = run.wall_s / trials;
      layers.episodes[d] = run.mean_episodes();
    }
    const DesignRun& oselm_run = traced.runs[0];
    layers.backend = oselm_run.backend;
    layers.backend_busy_frac =
        oselm_run.backend.busy_us() / (oselm_run.wall_s * 1e6);
    const DesignRun& fpga_run = traced.runs[1];
    layers.hw_host_predict_us = per_call(fpga_run.backend.predict_us,
                                         fpga_run.backend.predict_calls);
    layers.hw_host_seq_train_us = per_call(fpga_run.backend.seq_train_us,
                                           fpga_run.backend.seq_train_calls);
    board_seconds(fpga_run.ledger, layers,
                  static_cast<double>(fpga_run.trials));
    layers.hw_q20_saturations = fpga_run.saturations;
    const oselm::util::OpBreakdown& dqn = traced.runs[2].ledger;
    layers.nn_train_dqn_us =
        per_call(dqn.get(OpCategory::kTrainDqn) * 1e6,
                 dqn.invocations(OpCategory::kTrainDqn));
    layers.nn_predict_us = per_call(
        (dqn.get(OpCategory::kPredict1) + dqn.get(OpCategory::kPredict32)) *
            1e6,
        dqn.invocations(OpCategory::kPredict1) +
            dqn.invocations(OpCategory::kPredict32));
    layers.trace_overhead_pct =
        100.0 * (plain.steps_per_s - traced.steps_per_s) / plain.steps_per_s;
    add_layers(report, layers);
  }
  if (report.failed != 0) {
    report.fail(std::to_string(report.failed) +
                " trial(s) did not complete CartPole within the episode cap");
  }
  return report;
}

}  // namespace perfbench
