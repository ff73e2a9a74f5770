// The one episode loop of Algorithm 1, with the paper's completion
// criterion, the §4.3 weight-reset rule and the §4.4 50,000-episode
// "impossible" cutoff: run_training() and every AsyncQServer session.
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <vector>

#include "env/environment.hpp"
#include "rl/agent.hpp"
#include "util/op_accounting.hpp"

namespace oselm::rl {

struct TrainerConfig {
  /// §4.4: "terminated as impossible if it cannot complete the task after
  /// 50,000 episodes".
  std::size_t max_episodes = 50000;
  /// §4.3: ELM/OS-ELM weights are reset after this many unsolved episodes
  /// (0 disables; ignored for agents with supports_weight_reset() false).
  std::size_t reset_interval = 300;
  /// Completion criterion: solved when the mean episode step count over
  /// `solved_window` consecutive episodes reaches `solved_threshold`.
  ///
  /// The default (window 1, threshold 200) is the paper's semantics:
  /// "complete the CartPole task" = the pole first stands for a full
  /// 200-step episode. This is the only reading consistent with the
  /// 300-episode reset horizon of §4.3 and the seconds-scale completion
  /// times of §4.4. Set (195, 100) for the Gym leaderboard criterion.
  double solved_threshold = 200.0;
  std::size_t solved_window = 1;
  /// When false, training continues past first completion for the full
  /// episode budget (Fig. 4's training curves run long after the task is
  /// first completed); the §4.3 reset rule stops firing once solved.
  bool stop_on_solved = true;
  /// Safety cap on steps within one episode (0 = trust the environment).
  std::size_t episode_step_cap = 0;
};

struct TrainResult {
  std::vector<double> episode_steps;    ///< steps survived per episode
  std::vector<double> episode_returns;  ///< shaped return per episode
  bool solved = false;
  std::size_t first_solved_episode = 0;  ///< 0 = never solved
  std::size_t episodes = 0;
  std::size_t total_steps = 0;
  std::size_t resets = 0;
  double wall_seconds = 0.0;            ///< whole-run wall clock
  util::OpBreakdown breakdown;          ///< agent ops + environment time
};

/// Optional per-episode observer (episode index, steps, shaped return).
using EpisodeCallback =
    std::function<void(std::size_t, std::size_t, double)>;

/// The agent side of the run_episodes() coroutine. Each operation does
/// its part and returns whether the loop must wait for the answer (the
/// action, an applied update): the loop then suspends into park() until
/// the driver resumes it. run_training()'s driver never waits; an
/// AsyncQServer session waits on the batch thread.
class EpisodeDriver {
 public:
  virtual ~EpisodeDriver() = default;

  /// Agent::act; the answer goes to `action`.
  virtual bool act(const linalg::VecD& state) = 0;
  virtual bool observe(const nn::Transition& transition) = 0;
  virtual bool episode_end(std::size_t episodes_since_reset) = 0;
  virtual bool reset_weights() = 0;
  [[nodiscard]] virtual bool supports_weight_reset() const = 0;
  /// Takes the suspended loop until the waited-for answer is in place. It
  /// may resume on another thread at once: touch nothing after handing
  /// it over.
  virtual void park(std::coroutine_handle<> loop) = 0;

  /// Polled before every episode and step; true ends the loop there.
  virtual bool stop_requested() { return false; }
  virtual void step_end() {}  ///< after the step's observe
  /// Called once from the loop's final suspension with the exception that
  /// ended it (null when it returned). May destroy the loop.
  virtual void finish(std::exception_ptr error) = 0;

  std::size_t action = 0;    ///< act()'s answer
  double env_seconds = 0.0;  ///< environment time the loop measured
};

/// Owning handle of one run_episodes() coroutine, which starts suspended.
class EpisodeLoop {
 public:
  struct promise_type;  // trainer.cpp

  explicit EpisodeLoop(std::coroutine_handle<> handle) : handle_(handle) {}
  EpisodeLoop(const EpisodeLoop&) = delete;
  ~EpisodeLoop() { handle_.destroy(); }

  [[nodiscard]] std::coroutine_handle<> handle() const { return handle_; }
  void start() { handle_.resume(); }  ///< runs it to its first park or end

 private:
  std::coroutine_handle<> handle_;
};

/// Algorithm 1's episode loop over `driver`, recording into `result`,
/// until solved, the episode budget is spent or the driver stops it. The
/// referenced arguments must outlive the loop; `on_episode` is copied.
EpisodeLoop run_episodes(EpisodeDriver& driver, env::Environment& environment,
                         const TrainerConfig& config, TrainResult& result,
                         EpisodeCallback on_episode = {});

/// Runs run_episodes() inline over `agent` until solved or max_episodes;
/// exceptions from the agent or the environment propagate unchanged.
/// The agent's op breakdown is merged with environment time.
TrainResult run_training(Agent& agent, env::Environment& environment,
                         const TrainerConfig& config,
                         const EpisodeCallback& on_episode = {});

}  // namespace oselm::rl
