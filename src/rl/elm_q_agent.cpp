#include "rl/elm_q_agent.hpp"

#include <algorithm>

#include "util/timer.hpp"

namespace oselm::rl {

namespace {

elm::ElmConfig make_elm_config(const SimplifiedOutputModel& model,
                               const ElmQAgentConfig& config) {
  elm::ElmConfig out;
  out.input_dim = model.input_dim();
  out.hidden_units = config.hidden_units;
  out.output_dim = 1;
  out.l2_delta = 0.0;  // design (1) is plain ELM (pseudo-inverse)
  out.init_low = config.init_low;
  out.init_high = config.init_high;
  return out;
}

}  // namespace

ElmQAgent::ElmQAgent(SimplifiedOutputModel model, ElmQAgentConfig config,
                     std::uint64_t seed)
    : model_(model),
      config_(config),
      policy_(config.epsilon_greedy, model.action_count()),
      rng_(seed),
      net_(make_elm_config(model, config), rng_),
      scratch_sa_(model.input_dim(), 0.0) {
  beta_target_ = net_.beta();
  buffer_.reserve(config_.hidden_units);
}

double ElmQAgent::q_main(const linalg::VecD& state, std::size_t action) {
  const util::OpCategory charge = net_.trained()
                                      ? util::OpCategory::kPredictSeq
                                      : util::OpCategory::kPredictInit;
  model_.encode_into(state, action, scratch_sa_);
  util::WallTimer timer;
  const double q = net_.predict_one(scratch_sa_)[0];
  ledger_.charge(charge, timer.seconds());
  return q;
}

std::size_t ElmQAgent::greedy_action(const linalg::VecD& state) {
  std::size_t best = 0;
  double best_q = 0.0;
  for (std::size_t a = 0; a < model_.action_count(); ++a) {
    const double q = q_main(state, a);
    if (a == 0 || q > best_q) {
      best_q = q;
      best = a;
    }
  }
  return best;
}

std::size_t ElmQAgent::act(const linalg::VecD& state) {
  if (policy_.should_act_greedily(rng_)) return greedy_action(state);
  return policy_.random_action(rng_);
}

double ElmQAgent::td_target(const nn::Transition& transition) {
  double best_next = 0.0;
  if (!transition.done) {
    util::WallTimer timer;
    for (std::size_t a = 0; a < model_.action_count(); ++a) {
      model_.encode_into(transition.next_state, a, scratch_sa_);
      const linalg::VecD h = net_.hidden_one(scratch_sa_);
      double q = 0.0;
      for (std::size_t i = 0; i < h.size(); ++i) q += h[i] * beta_target_(i, 0);
      if (a == 0 || q > best_next) best_next = q;
    }
    ledger_.charge(util::OpCategory::kInitTrain, timer.seconds(),
                   model_.action_count());  // one Q eval per action
  }
  double target = transition.reward;
  if (!transition.done) target += config_.gamma * best_next;
  if (config_.clip_targets) target = std::clamp(target, -1.0, 1.0);
  return target;
}

void ElmQAgent::run_batch_train() {
  const std::size_t n = buffer_.size();
  linalg::MatD x(n, model_.input_dim());
  linalg::MatD t(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    model_.encode_into(buffer_[i].state, buffer_[i].action, scratch_sa_);
    x.set_row(i, scratch_sa_);
    t(i, 0) = td_target(buffer_[i]);
  }
  util::WallTimer timer;
  net_.train_batch(x, t);
  ledger_.charge(util::OpCategory::kInitTrain, timer.seconds());
  beta_target_ = net_.beta();  // see reconstruction note in the header
  ++batch_trainings_;
}

void ElmQAgent::observe(const nn::Transition& transition) {
  // Ring buffer of capacity N-tilde (line 15); a batch train fires every
  // time N-tilde new samples have arrived (lines 17-19).
  if (buffer_.size() < config_.hidden_units) {
    buffer_.push_back(transition);
  } else {
    buffer_[pushes_ % config_.hidden_units] = transition;
  }
  ++pushes_;
  if (pushes_ % config_.hidden_units == 0) run_batch_train();
}

void ElmQAgent::episode_end(std::size_t /*episodes_since_reset*/) {
  // theta_2 syncs after each batch train instead (see header).
}

void ElmQAgent::reset_weights() {
  net_.reinitialize(rng_);
  beta_target_ = net_.beta();
  buffer_.clear();
  pushes_ = 0;
}

}  // namespace oselm::rl
