#include "rl/dqn_agent.hpp"

#include <span>
#include <stdexcept>

#include "util/timer.hpp"

namespace oselm::rl {

void DqnAgentConfig::validate() const {
  if (state_dim == 0 || action_count < 2 || hidden_units == 0) {
    throw std::invalid_argument("DqnAgentConfig: bad dimensions");
  }
  if (gamma < 0.0 || gamma > 1.0) {
    throw std::invalid_argument("DqnAgentConfig: gamma outside [0, 1]");
  }
  if (batch_size == 0 || replay_capacity < batch_size) {
    throw std::invalid_argument("DqnAgentConfig: bad replay sizes");
  }
  if (target_sync_interval == 0) {
    throw std::invalid_argument("DqnAgentConfig: UPDATE_STEP == 0");
  }
}

namespace {

nn::MlpConfig make_mlp_config(const DqnAgentConfig& config) {
  return nn::MlpConfig{config.state_dim, config.hidden_units,
                       config.action_count};
}

}  // namespace

DqnAgent::DqnAgent(DqnAgentConfig config, std::uint64_t seed)
    : config_(config),
      policy_(config.epsilon_greedy, config.action_count),
      rng_(seed),
      online_(make_mlp_config(config), rng_),
      target_(make_mlp_config(config), rng_),
      optimizer_(config.adam, make_mlp_config(config)),
      replay_(config.replay_capacity) {
  config_.validate();
  target_.copy_parameters_from(online_);
}

std::size_t DqnAgent::greedy_action(const linalg::VecD& state) {
  util::WallTimer timer;
  online_.forward_into(state, hidden_ws_, q_ws_);
  ledger_.charge(util::OpCategory::kPredict1, timer.seconds());
  return argmax_action(q_ws_);
}

std::size_t DqnAgent::act(const linalg::VecD& state) {
  if (policy_.should_act_greedily(rng_)) return greedy_action(state);
  return policy_.random_action(rng_);
}

void DqnAgent::train_step() {
  replay_.sample_into(config_.batch_size, rng_, batch_);
  const std::size_t k = batch_.size();

  states_.resize(k, config_.state_dim);
  next_states_.resize(k, config_.state_dim);
  for (std::size_t i = 0; i < k; ++i) {
    states_.set_row(i, batch_[i]->state);
    next_states_.set_row(i, batch_[i]->next_state);
  }

  // Target Q-values from the frozen network (the paper's predict_32 bar).
  util::WallTimer predict32_timer;
  const linalg::MatD& next_q =
      target_.forward_cached(next_states_, target_cache_);
  ledger_.charge(util::OpCategory::kPredict32, predict32_timer.seconds());

  util::WallTimer train_timer;
  const linalg::MatD& q = online_.forward_cached(states_, online_cache_);

  // Only the taken action's Q contributes to the loss (Eq. 9): the target
  // matrix equals the prediction except at (i, a_i).
  targets_ = q;
  for (std::size_t i = 0; i < k; ++i) {
    const nn::Transition& t = *batch_[i];
    double best_next = 0.0;
    if (!t.done) {
      const std::span<const double> q_next(next_q.row_ptr(i),
                                           config_.action_count);
      best_next = q_next[argmax_action(q_next)];
    }
    targets_(i, t.action) =
        t.reward + (t.done ? 0.0 : config_.gamma * best_next);
  }

  last_loss_ = nn::huber_loss_mean_into(q, targets_, dloss_);
  online_.backward_into(online_cache_, dloss_, grads_, dhidden_);
  optimizer_.step(online_, grads_);
  ledger_.charge(util::OpCategory::kTrainDqn, train_timer.seconds());
  ++training_steps_;
}

void DqnAgent::observe(const nn::Transition& transition) {
  replay_.push(transition);
  if (replay_.size() >= config_.learning_starts) train_step();
}

void DqnAgent::episode_end(std::size_t episodes_since_reset) {
  // DQN never resets (§4.3), so this count is effectively the global
  // episode number for this agent.
  if (episodes_since_reset % config_.target_sync_interval == 0) {
    target_.copy_parameters_from(online_);
  }
}

void DqnAgent::reset_weights() {
  online_.reinitialize(rng_);
  target_.copy_parameters_from(online_);
  optimizer_.reset();
  replay_.clear();
  training_steps_ = 0;
}

}  // namespace oselm::rl
