#include "rl/trainer.hpp"

#include <stdexcept>

#include "util/stats.hpp"
#include "util/timer.hpp"

namespace oselm::rl {

struct EpisodeLoop::promise_type {
  using Handle = std::coroutine_handle<promise_type>;

  promise_type(EpisodeDriver& loop_driver, env::Environment&,
               const TrainerConfig&, TrainResult&, const EpisodeCallback&)
      : driver(loop_driver) {}

  /// The loop co_awaits each driver operation's "must wait" flag.
  struct Wait {
    EpisodeDriver& driver;
    bool waits;
    [[nodiscard]] bool await_ready() const noexcept { return !waits; }
    void await_suspend(std::coroutine_handle<> loop) const {
      driver.park(loop);
    }
    void await_resume() const noexcept {}
  };
  Wait await_transform(bool waits) { return {driver, waits}; }

  /// Hands the outcome to the driver, which may destroy the frame.
  struct Finish : std::suspend_always {
    void await_suspend(Handle loop) const noexcept {
      loop.promise().driver.finish(std::move(loop.promise().error));
    }
  };

  EpisodeLoop get_return_object() {
    return EpisodeLoop(Handle::from_promise(*this));
  }
  std::suspend_always initial_suspend() const noexcept { return {}; }
  Finish final_suspend() const noexcept { return {}; }
  void return_void() const noexcept {}
  void unhandled_exception() noexcept { error = std::current_exception(); }

  EpisodeDriver& driver;
  std::exception_ptr error;
};

EpisodeLoop run_episodes(EpisodeDriver& driver, env::Environment& environment,
                         const TrainerConfig& config, TrainResult& result,
                         // By value: the frame may outlive the argument.
                         // NOLINTNEXTLINE(performance-unnecessary-value-param)
                         EpisodeCallback on_episode) {
  const auto timed_env = [&driver](auto&& call) {
    util::WallTimer env_timer;
    auto out = call();
    driver.env_seconds += env_timer.seconds();
    return out;
  };
  util::MovingAverage window(config.solved_window);
  std::size_t episodes_since_reset = 0;
  for (std::size_t episode = 1; episode <= config.max_episodes; ++episode) {
    if (driver.stop_requested()) co_return;
    // §4.3 reset rule: re-randomize unpromising weights every
    // reset_interval episodes, but only while the task has never been
    // completed (ELM/OS-ELM designs only).
    if (!result.solved && driver.supports_weight_reset() &&
        config.reset_interval != 0 &&
        episodes_since_reset >= config.reset_interval) {
      co_await driver.reset_weights();
      window.reset();  // fresh weights start a fresh evaluation window
      episodes_since_reset = 0;
      ++result.resets;
    }

    linalg::VecD state = timed_env([&] { return environment.reset(); });

    std::size_t steps = 0;
    double episode_return = 0.0;
    for (;;) {
      if (driver.stop_requested()) co_return;
      co_await driver.act(state);
      const std::size_t action = driver.action;

      env::StepResult step =
          timed_env([&] { return environment.step(action); });
      ++steps;
      episode_return += step.reward;

      const nn::Transition transition{state, action, step.reward,
                                      step.observation, step.done()};
      co_await driver.observe(transition);
      driver.step_end();
      state = std::move(step.observation);

      if (step.done()) break;
      if (config.episode_step_cap != 0 && steps >= config.episode_step_cap) {
        break;
      }
    }

    ++episodes_since_reset;
    // Contract (rl::Agent): episode_end receives the count since the last
    // §4.3 reset, not the global episode number — the fresh theta pair a
    // reset installs restarts every episode-keyed schedule.
    co_await driver.episode_end(episodes_since_reset);
    result.episode_steps.push_back(static_cast<double>(steps));
    result.episode_returns.push_back(episode_return);
    result.total_steps += steps;
    result.episodes = episode;
    window.add(static_cast<double>(steps));
    if (on_episode) on_episode(episode, steps, episode_return);

    if (!result.solved && window.full() &&
        window.value() >= config.solved_threshold) {
      result.solved = true;
      result.first_solved_episode = episode;
      if (config.stop_on_solved) co_return;
    }
  }
}

namespace {

/// Drives the loop over an rl::Agent: no operation ever waits.
class AgentDriver final : public EpisodeDriver {
 public:
  explicit AgentDriver(Agent& agent) : agent_(agent) {}

  bool act(const linalg::VecD& state) override {
    action = agent_.act(state);
    return false;
  }
  bool observe(const nn::Transition& transition) override {
    agent_.observe(transition);
    return false;
  }
  bool episode_end(std::size_t episodes_since_reset) override {
    agent_.episode_end(episodes_since_reset);
    return false;
  }
  bool reset_weights() override {
    agent_.reset_weights();
    return false;
  }
  [[nodiscard]] bool supports_weight_reset() const override {
    return agent_.supports_weight_reset();
  }
  void finish(std::exception_ptr error) override { failure = std::move(error); }

  void park(std::coroutine_handle<>) override { std::terminate(); }

  std::exception_ptr failure;  ///< what ended the loop, if anything

 private:
  Agent& agent_;
};

}  // namespace

TrainResult run_training(Agent& agent, env::Environment& environment,
                         const TrainerConfig& config,
                         const EpisodeCallback& on_episode) {
  if (config.solved_window == 0) {
    throw std::invalid_argument("TrainerConfig: solved_window == 0");
  }

  TrainResult result;
  util::WallTimer run_timer;
  AgentDriver driver(agent);
  run_episodes(driver, environment, config, result, on_episode).start();
  if (driver.failure) std::rethrow_exception(driver.failure);

  result.wall_seconds = run_timer.seconds();
  result.breakdown = agent.breakdown();
  result.breakdown.add(util::OpCategory::kEnvironment, driver.env_seconds);
  return result;
}

}  // namespace oselm::rl
