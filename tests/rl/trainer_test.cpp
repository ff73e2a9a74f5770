#include "rl/trainer.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "env/cartpole.hpp"
#include "env/grid_world.hpp"

namespace oselm::rl {
namespace {

/// Scripted agent: plays a fixed action, counts lifecycle calls.
class ScriptedAgent final : public Agent {
 public:
  explicit ScriptedAgent(std::size_t action, bool resettable = true)
      : action_(action), resettable_(resettable) {}

  std::size_t act(const linalg::VecD&) override {
    ++act_calls;
    return action_;
  }
  void observe(const nn::Transition& tr) override {
    ++observe_calls;
    last_done = tr.done;
  }
  void episode_end(std::size_t episode_index) override {
    episode_end_indices.push_back(episode_index);
  }
  void reset_weights() override { ++reset_calls; }
  [[nodiscard]] bool supports_weight_reset() const override {
    return resettable_;
  }
  [[nodiscard]] std::string_view name() const override { return "scripted"; }
  [[nodiscard]] const util::OpBreakdown& breakdown() const override {
    return breakdown_;
  }

  std::size_t action_;
  bool resettable_;
  int act_calls = 0;
  int observe_calls = 0;
  int reset_calls = 0;
  bool last_done = false;
  std::vector<std::size_t> episode_end_indices;
  util::OpBreakdown breakdown_;
};

/// A distinct exception type, so the tests can tell a rethrow of the
/// environment's own exception from a translated one.
class EnvFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CartPole that throws EnvFault from its Nth step() or reset() call.
class FaultingCartPole final : public env::Environment {
 public:
  static constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();

  FaultingCartPole(std::size_t good_steps, std::size_t good_resets)
      : good_steps_(good_steps), good_resets_(good_resets) {}

  env::Observation reset() override {
    if (resets_++ == good_resets_) throw EnvFault("reset fault");
    return inner_.reset();
  }
  env::StepResult step(std::size_t action) override {
    if (steps_++ == good_steps_) throw EnvFault("step fault");
    return inner_.step(action);
  }
  void seed(std::uint64_t seed_value) override { inner_.seed(seed_value); }
  [[nodiscard]] const env::BoxSpace& observation_space() const override {
    return inner_.observation_space();
  }
  [[nodiscard]] const env::DiscreteSpace& action_space() const override {
    return inner_.action_space();
  }
  [[nodiscard]] std::string_view name() const override { return "Faulting"; }
  [[nodiscard]] std::size_t max_episode_steps() const override {
    return inner_.max_episode_steps();
  }

 private:
  env::CartPole inner_;
  std::size_t good_steps_;
  std::size_t good_resets_;
  std::size_t steps_ = 0;
  std::size_t resets_ = 0;
};

TrainerConfig quick_config(std::size_t max_episodes = 5) {
  TrainerConfig cfg;
  cfg.max_episodes = max_episodes;
  cfg.reset_interval = 0;
  cfg.solved_threshold = 1e9;  // never solved unless a test lowers it
  cfg.solved_window = 2;
  return cfg;
}

TEST(Trainer, RunsRequestedEpisodes) {
  ScriptedAgent agent(1);
  env::CartPole env(env::CartPoleParams{}, 1);
  const TrainResult result = run_training(agent, env, quick_config(5));
  EXPECT_EQ(result.episodes, 5u);
  EXPECT_EQ(result.episode_steps.size(), 5u);
  EXPECT_FALSE(result.solved);
  EXPECT_EQ(agent.episode_end_indices.size(), 5u);
}

TEST(Trainer, EpisodeStepsMatchObserveCalls) {
  ScriptedAgent agent(1);
  env::CartPole env(env::CartPoleParams{}, 2);
  const TrainResult result = run_training(agent, env, quick_config(3));
  double total = 0.0;
  for (const double s : result.episode_steps) total += s;
  EXPECT_EQ(static_cast<int>(total), agent.observe_calls);
  EXPECT_EQ(result.total_steps, static_cast<std::size_t>(total));
}

TEST(Trainer, SolvedStopsEarly) {
  // GridWorld with a 1-step goal: every episode takes the same number of
  // steps, so any threshold <= that is immediately satisfied.
  env::GridWorldParams params;
  params.width = 2;
  params.height = 1;
  params.goal_cell = 1;
  params.pit_cells = {};
  env::GridWorld env(params);
  ScriptedAgent agent(1);  // move right -> goal in one step
  TrainerConfig cfg = quick_config(100);
  cfg.solved_threshold = 1.0;
  cfg.solved_window = 3;
  const TrainResult result = run_training(agent, env, cfg);
  EXPECT_TRUE(result.solved);
  EXPECT_EQ(result.episodes, 3u);  // stops as soon as the window fills
}

TEST(Trainer, ResetRuleFiresForResettableAgents) {
  ScriptedAgent agent(1);
  env::CartPole env(env::CartPoleParams{}, 3);
  TrainerConfig cfg = quick_config(7);
  cfg.reset_interval = 3;
  const TrainResult result = run_training(agent, env, cfg);
  // Episodes 1-3 run, reset fires before episode 4; episodes 4-6 run,
  // reset fires before episode 7.
  EXPECT_EQ(agent.reset_calls, 2);
  EXPECT_EQ(result.resets, 2u);
  // Episode indices restart after each reset (target sync counts from the
  // reset per Algorithm 1's fresh theta_1/theta_2 pair).
  EXPECT_EQ(agent.episode_end_indices,
            (std::vector<std::size_t>{1, 2, 3, 1, 2, 3, 1}));
}

TEST(Trainer, EpisodeKeyedSchedulesRestartAfterEveryReset) {
  // Regression for the episode_end contract: the trainer passes the count
  // of episodes SINCE THE LAST §4.3 RESET, not the global episode number.
  // An every-2-episodes schedule (the paper's UPDATE_STEP target sync)
  // therefore restarts its cadence after each reset: with reset_interval 3
  // it fires at relative episodes {2, 2, ...} = global episodes {2, 5},
  // not at global {2, 4, 6}.
  class SyncingAgent final : public Agent {
   public:
    std::size_t act(const linalg::VecD&) override { return 1; }
    void observe(const nn::Transition&) override {}
    void episode_end(std::size_t episodes_since_reset) override {
      ++global_episode;
      if (episodes_since_reset % 2 == 0) {
        sync_episodes.push_back(global_episode);
      }
    }
    void reset_weights() override {}
    [[nodiscard]] bool supports_weight_reset() const override { return true; }
    [[nodiscard]] std::string_view name() const override { return "syncing"; }
    [[nodiscard]] const util::OpBreakdown& breakdown() const override {
      return breakdown_;
    }
    std::size_t global_episode = 0;
    std::vector<std::size_t> sync_episodes;
    util::OpBreakdown breakdown_;
  };

  SyncingAgent agent;
  env::CartPole env(env::CartPoleParams{}, 7);
  TrainerConfig cfg = quick_config(7);
  cfg.reset_interval = 3;  // resets before global episodes 4 and 7
  (void)run_training(agent, env, cfg);
  EXPECT_EQ(agent.sync_episodes, (std::vector<std::size_t>{2, 5}));
}

TEST(Trainer, ResetRuleIgnoredForNonResettableAgents) {
  ScriptedAgent agent(1, /*resettable=*/false);  // e.g. DQN
  env::CartPole env(env::CartPoleParams{}, 4);
  TrainerConfig cfg = quick_config(7);
  cfg.reset_interval = 3;
  const TrainResult result = run_training(agent, env, cfg);
  EXPECT_EQ(agent.reset_calls, 0);
  EXPECT_EQ(result.resets, 0u);
}

TEST(Trainer, EnvironmentTimeIsAccounted) {
  ScriptedAgent agent(1);
  env::CartPole env(env::CartPoleParams{}, 5);
  const TrainResult result = run_training(agent, env, quick_config(3));
  EXPECT_GT(result.breakdown.get(util::OpCategory::kEnvironment), 0.0);
  EXPECT_GE(result.wall_seconds,
            result.breakdown.get(util::OpCategory::kEnvironment));
}

TEST(Trainer, EpisodeCallbackSeesEveryEpisode) {
  ScriptedAgent agent(1);
  env::CartPole env(env::CartPoleParams{}, 6);
  std::vector<std::size_t> episodes;
  std::vector<std::size_t> steps;
  const TrainResult result = run_training(
      agent, env, quick_config(4),
      [&](std::size_t episode, std::size_t step_count, double) {
        episodes.push_back(episode);
        steps.push_back(step_count);
      });
  EXPECT_EQ(episodes, (std::vector<std::size_t>{1, 2, 3, 4}));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(static_cast<double>(steps[i]),
                     result.episode_steps[i]);
  }
}

TEST(Trainer, EpisodeStepCapBreaksRunawayEpisodes) {
  // GridWorld bumping against a wall never terminates on its own within
  // the env's own cap; the trainer-level cap must cut it earlier.
  env::GridWorldParams params;
  params.max_episode_steps = 0;  // env cap disabled
  env::GridWorld env(params);
  ScriptedAgent agent(0);  // keep moving up into the wall
  TrainerConfig cfg = quick_config(2);
  cfg.episode_step_cap = 10;
  const TrainResult result = run_training(agent, env, cfg);
  EXPECT_DOUBLE_EQ(result.episode_steps[0], 10.0);
}

TEST(Trainer, ZeroSolvedWindowThrows) {
  ScriptedAgent agent(1);
  env::CartPole env;
  TrainerConfig cfg = quick_config(1);
  cfg.solved_window = 0;
  EXPECT_THROW(run_training(agent, env, cfg), std::invalid_argument);
}

TEST(Trainer, StopOnSolvedFalseRunsFullBudgetAndRecordsFirstSolve) {
  env::GridWorldParams params;
  params.width = 2;
  params.height = 1;
  params.goal_cell = 1;
  params.pit_cells = {};
  env::GridWorld env(params);
  ScriptedAgent agent(1);  // solves every episode in one step
  TrainerConfig cfg = quick_config(10);
  cfg.solved_threshold = 1.0;
  cfg.solved_window = 2;
  cfg.stop_on_solved = false;
  const TrainResult result = run_training(agent, env, cfg);
  EXPECT_TRUE(result.solved);
  EXPECT_EQ(result.first_solved_episode, 2u);  // window fills at episode 2
  EXPECT_EQ(result.episodes, 10u);             // but training continued
}

TEST(Trainer, ResetRuleStopsFiringAfterFirstSolve) {
  env::GridWorldParams params;
  params.width = 2;
  params.height = 1;
  params.goal_cell = 1;
  params.pit_cells = {};
  env::GridWorld env(params);
  ScriptedAgent agent(1);
  TrainerConfig cfg = quick_config(10);
  cfg.solved_threshold = 1.0;
  cfg.solved_window = 1;
  cfg.stop_on_solved = false;
  cfg.reset_interval = 3;  // would fire at episodes 4, 7, 10 if unsolved
  const TrainResult result = run_training(agent, env, cfg);
  EXPECT_TRUE(result.solved);
  EXPECT_EQ(result.resets, 0u);  // solved at episode 1: never reset
}

TEST(Trainer, ReturnsShapedEpisodeReturns) {
  env::GridWorldParams params;
  params.width = 2;
  params.height = 1;
  params.goal_cell = 1;
  params.pit_cells = {};
  env::GridWorld env(params);
  ScriptedAgent agent(1);
  const TrainResult result = run_training(agent, env, quick_config(2));
  ASSERT_EQ(result.episode_returns.size(), 2u);
  EXPECT_DOUBLE_EQ(result.episode_returns[0], params.goal_reward);
}

TEST(Trainer, RethrowsEnvironmentStepExceptionsUnchanged) {
  ScriptedAgent agent(1);
  FaultingCartPole env(/*good_steps=*/7, FaultingCartPole::kNever);
  try {
    (void)run_training(agent, env, quick_config(5));
    FAIL() << "expected the environment's exception";
  } catch (const EnvFault& e) {
    EXPECT_STREQ(e.what(), "step fault");
  }
  EXPECT_EQ(agent.act_calls, 8);  // the 8th step threw after its act()
  EXPECT_EQ(agent.observe_calls, 7);
}

TEST(Trainer, RethrowsEnvironmentResetExceptionsUnchanged) {
  // The third reset() follows the §4.3 weight reset after episode 2.
  ScriptedAgent agent(1);
  FaultingCartPole env(FaultingCartPole::kNever, /*good_resets=*/2);
  TrainerConfig cfg = quick_config(5);
  cfg.reset_interval = 2;
  try {
    (void)run_training(agent, env, cfg);
    FAIL() << "expected the environment's exception";
  } catch (const EnvFault& e) {
    EXPECT_STREQ(e.what(), "reset fault");
  }
  EXPECT_EQ(agent.reset_calls, 1);
  EXPECT_EQ(agent.episode_end_indices.size(), 2u);
}

}  // namespace
}  // namespace oselm::rl
