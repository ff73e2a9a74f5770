// DQN baseline — design (6) of §4.1: three-layer network trained by
// backprop + Adam (lr 0.01) with Huber loss (Eq. 14-15), experience replay
// (§2.4) and a fixed target network synced every UPDATE_STEP episodes.
//
// Timing categories follow the paper's legend: predict_1 (batch-1 action
// selection), predict_32 (batch-32 target evaluation), train_DQN
// (forward + backward + Adam).
#pragma once

#include "nn/adam.hpp"
#include "nn/huber.hpp"
#include "nn/mlp.hpp"
#include "nn/replay_buffer.hpp"
#include "rl/agent.hpp"
#include "rl/policy.hpp"
#include "util/rng.hpp"

namespace oselm::rl {

struct DqnAgentConfig {
  std::size_t state_dim = 4;
  std::size_t action_count = 2;
  std::size_t hidden_units = 64;
  double gamma = 0.99;
  double epsilon_greedy = 0.7;        ///< epsilon_1 (epsilon_2 unused, §4.1)
  std::size_t target_sync_interval = 2;  ///< UPDATE_STEP (episodes)
  std::size_t batch_size = 32;        ///< predict_32's batch
  std::size_t replay_capacity = 10000;
  std::size_t learning_starts = 32;   ///< min transitions before training
  nn::AdamConfig adam;                ///< lr 0.01 default per §4.1

  void validate() const;
};

class DqnAgent final : public Agent {
 public:
  DqnAgent(DqnAgentConfig config, std::uint64_t seed);

  std::size_t act(const linalg::VecD& state) override;
  void observe(const nn::Transition& transition) override;
  void episode_end(std::size_t episodes_since_reset) override;
  void reset_weights() override;
  /// The paper's reset rule applies only to the ELM/OS-ELM designs (§4.3).
  [[nodiscard]] bool supports_weight_reset() const override { return false; }
  [[nodiscard]] std::string_view name() const override { return "DQN"; }
  [[nodiscard]] const util::OpBreakdown& breakdown() const override {
    return ledger_.breakdown();
  }

  std::size_t greedy_action(const linalg::VecD& state);
  [[nodiscard]] const nn::Mlp& online_network() const noexcept {
    return online_;
  }
  [[nodiscard]] const nn::Mlp& target_network() const noexcept {
    return target_;
  }
  [[nodiscard]] const nn::AdamOptimizer& optimizer() const noexcept {
    return optimizer_;
  }
  [[nodiscard]] std::size_t training_steps() const noexcept {
    return training_steps_;
  }
  [[nodiscard]] double last_loss() const noexcept { return last_loss_; }

 private:
  void train_step();

  DqnAgentConfig config_;
  GreedyWithProbabilityPolicy policy_;
  util::Rng rng_;
  nn::Mlp online_;
  nn::Mlp target_;
  nn::AdamOptimizer optimizer_;
  nn::ReplayBuffer replay_;
  util::TimeLedger ledger_;
  std::size_t training_steps_ = 0;
  double last_loss_ = 0.0;

  // Workspaces reused across steps, so a steady-state act()/train_step()
  // does no heap allocation.
  linalg::VecD hidden_ws_;
  linalg::VecD q_ws_;
  std::vector<const nn::Transition*> batch_;
  linalg::MatD states_;
  linalg::MatD next_states_;
  linalg::MatD targets_;
  linalg::MatD dloss_;
  linalg::MatD dhidden_;
  nn::MlpCache online_cache_;
  nn::MlpCache target_cache_;
  nn::MlpGradients grads_;
};

}  // namespace oselm::rl
