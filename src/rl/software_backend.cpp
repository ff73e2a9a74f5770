#include "rl/software_backend.hpp"

#include <stdexcept>

#include "elm/spectral.hpp"
#include "linalg/kernels.hpp"
#include "linalg/ops.hpp"
#include "util/timer.hpp"

namespace oselm::rl {

SoftwareOsElmBackend::SoftwareOsElmBackend(SoftwareBackendConfig config,
                                           std::uint64_t seed)
    : OsElmQBackend(nullptr),
      config_(config),
      rng_(seed),
      net_(config.elm, rng_),
      h_ws_(config.elm.hidden_units, 0.0),
      shared_ws_(config.elm.hidden_units, 0.0),
      target_ws_(1, 0.0) {
  initialize();
}

void SoftwareOsElmBackend::initialize() {
  net_.reinitialize(rng_);
  if (config_.spectral_normalize) {
    sigma_at_init_ = elm::spectral_normalize_inplace(net_.mutable_alpha());
  } else {
    sigma_at_init_ = 0.0;
  }
  beta_target_ = net_.beta();  // theta_2 <- theta_1 (Algorithm 1 line 4)
}

double SoftwareOsElmBackend::predict_one(const linalg::VecD& sa,
                                         const linalg::MatD& beta) {
  util::WallTimer timer;
  net_.hidden_into(sa, h_ws_);
  // beta is (units x 1), i.e. one contiguous column; the kernel dot uses
  // the same reduction structure as fused_act_dot, keeping predict_main
  // bit-identical to the batched predict_actions path.
  const double q = linalg::kernels::dot(h_ws_.data(), beta.data(),
                                        h_ws_.size());
  ledger_->charge_predict(initialized(), timer.seconds());
  return q;
}

double SoftwareOsElmBackend::predict_main(const linalg::VecD& sa) {
  return predict_one(sa, net_.beta());
}

double SoftwareOsElmBackend::predict_target(const linalg::VecD& sa) {
  return predict_one(sa, beta_target_);
}

void SoftwareOsElmBackend::predict_actions_into(
    const linalg::VecD& state, const linalg::VecD& action_codes,
    QNetwork which, linalg::VecD& q_out) {
  const std::size_t n = config_.elm.input_dim;
  const std::size_t units = config_.elm.hidden_units;
  if (state.size() + 1 != n) {
    throw std::invalid_argument(
        "SoftwareOsElmBackend::predict_actions: state width");
  }
  if (q_out.size() != action_codes.size()) {
    throw std::invalid_argument(
        "SoftwareOsElmBackend::predict_actions: q_out size");
  }
  const linalg::MatD& alpha = net_.alpha();
  const linalg::VecD& bias = net_.bias();
  const linalg::MatD& beta =
      which == QNetwork::kMain ? net_.beta() : beta_target_;

  // Shared state projection alpha_state^T s, accumulated with the same
  // axpy kernel (and the same skip of exact zeros) as Elm::hidden_into,
  // so every per-action result is bit-identical to the
  // predict_main/predict_target loop.
  shared_ws_.assign(units, 0.0);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double xi = state[i];
    if (xi == 0.0) continue;
    linalg::kernels::axpy(shared_ws_.data(), xi, alpha.row_ptr(i), units);
  }

  // Per-action rank-1 correction on alpha's last row, fused with the
  // ReLU and the output dot (same reduction structure as
  // predict_one's kernel dot — the bit-exactness contract of
  // predict_actions).
  const double* last_row = alpha.row_ptr(n - 1);
  for (std::size_t a = 0; a < action_codes.size(); ++a) {
    q_out[a] = linalg::kernels::fused_act_dot(shared_ws_.data(), last_row,
                                              action_codes[a], bias.data(),
                                              beta.data(), units);
  }
}

void SoftwareOsElmBackend::predict_actions(const linalg::VecD& state,
                                           const linalg::VecD& action_codes,
                                           QNetwork which,
                                           linalg::VecD& q_out) {
  util::WallTimer timer;
  predict_actions_into(state, action_codes, which, q_out);
  ledger_->charge_predict(initialized(), timer.seconds(),
                          action_codes.size());
}

void SoftwareOsElmBackend::predict_actions_multi(
    const linalg::MatD& states, const linalg::VecD& action_codes,
    QNetwork which, linalg::MatD& q_out) {
  util::WallTimer timer;
  if (states.cols() + 1 != config_.elm.input_dim) {
    throw std::invalid_argument(
        "SoftwareOsElmBackend::predict_actions_multi: state width");
  }
  if (q_out.rows() != states.rows() || q_out.cols() != action_codes.size()) {
    throw std::invalid_argument(
        "SoftwareOsElmBackend::predict_actions_multi: q_out shape");
  }
  if (states.rows() == 0) return;  // no evaluations => no charge
  state_ws_.resize(states.cols());
  q_row_ws_.resize(action_codes.size());
  for (std::size_t s = 0; s < states.rows(); ++s) {
    const double* row = states.row_ptr(s);
    for (std::size_t i = 0; i < state_ws_.size(); ++i) state_ws_[i] = row[i];
    predict_actions_into(state_ws_, action_codes, which, q_row_ws_);
    double* out = q_out.row_ptr(s);
    for (std::size_t a = 0; a < q_row_ws_.size(); ++a) out[a] = q_row_ws_[a];
  }
  ledger_->charge_predict(initialized(), timer.seconds(),
                          states.rows() * action_codes.size());
}

void SoftwareOsElmBackend::init_train(const linalg::MatD& x,
                                      const linalg::MatD& t) {
  util::WallTimer timer;
  net_.init_train(x, t);
  ledger_->charge(util::OpCategory::kInitTrain, timer.seconds());
}

void SoftwareOsElmBackend::seq_train(const linalg::VecD& sa, double target) {
  util::WallTimer timer;
  target_ws_[0] = target;
  net_.seq_train_one_forgetting(sa, target_ws_, config_.forgetting_factor);
  ledger_->charge(util::OpCategory::kSeqTrain, timer.seconds());
}

void SoftwareOsElmBackend::seq_train_chunk(const linalg::MatD& sa_rows,
                                           std::span<const double> targets) {
  if (config_.forgetting_factor != 1.0 || sa_rows.rows() < 2) {
    // FOS-ELM forgetting has no rank-k form here; a single row is k = 1.
    OsElmQBackend::seq_train_chunk(sa_rows, targets);
    return;
  }
  util::WallTimer timer;
  targets_ws_.resize(targets.size(), 1);
  for (std::size_t r = 0; r < targets.size(); ++r) {
    targets_ws_(r, 0) = targets[r];
  }
  net_.seq_train(sa_rows, targets_ws_);  // validates both shapes
  ledger_->charge(util::OpCategory::kSeqTrain, timer.seconds());
}

void SoftwareOsElmBackend::sync_target() { beta_target_ = net_.beta(); }

QNetState SoftwareOsElmBackend::export_state() const {
  return {net_.beta(), beta_target_, net_.p(), net_.initialized()};
}

void SoftwareOsElmBackend::import_state(const QNetState& state) {
  if (!state.initialized) {
    throw std::invalid_argument(
        "SoftwareOsElmBackend::import_state: snapshot is untrained");
  }
  if (state.beta_target.rows() != config_.elm.hidden_units ||
      state.beta_target.cols() != config_.elm.output_dim) {
    throw std::invalid_argument(
        "SoftwareOsElmBackend::import_state: beta_target shape mismatch");
  }
  net_.restore_trained_state(state.beta, state.p);  // validates beta/P
  beta_target_ = state.beta_target;
}

}  // namespace oselm::rl
