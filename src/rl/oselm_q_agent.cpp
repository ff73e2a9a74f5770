#include "rl/oselm_q_agent.hpp"

#include <algorithm>
#include <stdexcept>

namespace oselm::rl {

void OsElmQAgentConfig::validate() const {
  if (gamma < 0.0 || gamma > 1.0) {
    throw std::invalid_argument("OsElmQAgentConfig: gamma outside [0, 1]");
  }
  if (epsilon_greedy < 0.0 || epsilon_greedy > 1.0) {
    throw std::invalid_argument("OsElmQAgentConfig: epsilon_1 outside [0,1]");
  }
  if (update_probability < 0.0 || update_probability > 1.0) {
    throw std::invalid_argument("OsElmQAgentConfig: epsilon_2 outside [0,1]");
  }
  if (target_sync_interval == 0) {
    throw std::invalid_argument("OsElmQAgentConfig: UPDATE_STEP == 0");
  }
}

OsElmQRules::OsElmQRules(const OsElmQAgentConfig& config,
                         std::size_t action_count, std::size_t hidden_units,
                         std::uint64_t seed)
    : config_(config),
      policy_(config.epsilon_greedy, action_count),
      rng_(seed),
      capacity_(hidden_units) {
  config_.validate();
  buffer_.reserve(capacity_);
}

OsElmQRules::Update OsElmQRules::observe(const nn::Transition& transition,
                                         bool initialized) {
  if (!initialized) {
    // Store state (line 15) until buffer D holds N-tilde samples, then ask
    // for the initial training (lines 16-19).
    buffer_.push_back(transition);
    return buffer_.size() >= capacity_ ? Update::kInitTrain : Update::kNone;
  }
  if (!buffer_.empty()) drop_buffer();
  // Random update (§3.2): one Bernoulli(epsilon_2) coin per step decides
  // whether this transition trains the network (lines 21-22).
  if (config_.random_update && !rng_.bernoulli(config_.update_probability)) {
    return Update::kNone;
  }
  return Update::kSeqTrain;
}

double OsElmQRules::td_target(double reward, bool done,
                              double max_next_q) const {
  double target = reward;
  if (!done) target += config_.gamma * max_next_q;
  if (config_.clip_targets) target = std::clamp(target, -1.0, 1.0);
  return target;
}

OsElmQRules::InitChunk OsElmQRules::take_init_chunk(
    const SimplifiedOutputModel& model,
    const std::function<double(const linalg::VecD&)>& max_next_q) {
  const std::size_t n = buffer_.size();
  InitChunk chunk{linalg::MatD(n, model.input_dim()), linalg::MatD(n, 1)};
  linalg::VecD sa(model.input_dim(), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const nn::Transition& sample = buffer_[i];
    model.encode_into(sample.state, sample.action, sa);
    chunk.x.set_row(i, sa);
    const double next_q = sample.done ? 0.0 : max_next_q(sample.next_state);
    chunk.t(i, 0) = td_target(sample.reward, sample.done, next_q);
  }
  drop_buffer();
  return chunk;
}

OsElmQAgent::OsElmQAgent(OsElmQBackendPtr backend, SimplifiedOutputModel model,
                         OsElmQAgentConfig config, std::uint64_t seed,
                         std::string_view display_name)
    : backend_(std::move(backend)),
      model_(model),
      rules_(config, model.action_count(),
             backend_ ? backend_->hidden_units() : 0, seed),
      name_(display_name),
      scratch_sa_(model.input_dim(), 0.0),
      action_codes_(model.action_count(), 0.0),
      q_ws_(model.action_count(), 0.0) {
  if (!backend_) throw std::invalid_argument("OsElmQAgent: null backend");
  if (backend_->input_dim() != model_.input_dim()) {
    throw std::invalid_argument(
        "OsElmQAgent: backend input width != encoder width");
  }
  for (std::size_t a = 0; a < model_.action_count(); ++a) {
    action_codes_[a] = model_.action_code(a);
  }
}

std::size_t OsElmQAgent::greedy_action(const linalg::VecD& state) {
  // One batched call evaluates Q(s, a) for every action over a shared
  // hidden-layer pass; the backend charges its ledger (invocations stay
  // one-per-evaluation so the board models keep their count semantics).
  backend_->predict_actions(state, action_codes_, QNetwork::kMain, q_ws_);
  return argmax_action(q_ws_);
}

double OsElmQAgent::q_value(const linalg::VecD& state, std::size_t action) {
  model_.encode_into(state, action, scratch_sa_);
  return backend_->predict_main(scratch_sa_);
}

std::size_t OsElmQAgent::act(const linalg::VecD& state) {
  const std::optional<std::size_t> random = rules_.explore();
  return random ? *random : greedy_action(state);
}

void OsElmQAgent::observe(const nn::Transition& transition) {
  // max_a Q_theta2(s', a), its prediction time charged to the training
  // step it serves (kInitTrain / kSeqTrain).
  const auto max_target_q = [this](const linalg::VecD& next_state,
                                   util::OpCategory charge_to) {
    const util::TimeLedger::PredictScope scope(backend_->ledger(), charge_to);
    backend_->predict_actions(next_state, action_codes_, QNetwork::kTarget,
                              q_ws_);
    return q_ws_[argmax_action(q_ws_)];
  };
  const OsElmQRules::Update update =
      rules_.observe(transition, backend_->initialized());
  if (update == OsElmQRules::Update::kInitTrain) {
    const OsElmQRules::InitChunk chunk =
        rules_.take_init_chunk(model_, [&](const linalg::VecD& next) {
          return max_target_q(next, util::OpCategory::kInitTrain);
        });
    backend_->init_train(chunk.x, chunk.t);
    ++init_trainings_;
  } else if (update == OsElmQRules::Update::kSeqTrain) {
    const double max_next_q =
        transition.done ? 0.0
                        : max_target_q(transition.next_state,
                                       util::OpCategory::kSeqTrain);
    model_.encode_into(transition.state, transition.action, scratch_sa_);
    backend_->seq_train(scratch_sa_,
                        rules_.td_target(transition.reward, transition.done,
                                         max_next_q));
    ++seq_updates_;
  }
}

void OsElmQAgent::episode_end(std::size_t episodes_since_reset) {
  // The count restarts after every §4.3 weight reset (see Agent), so the
  // UPDATE_STEP cadence is relative to the current theta_1/theta_2 pair.
  if (rules_.sync_due(episodes_since_reset)) backend_->sync_target();
}

void OsElmQAgent::reset_weights() {
  backend_->initialize();
  rules_.drop_buffer();
}

}  // namespace oselm::rl
