#include "rl/agent.hpp"

#include <stdexcept>

namespace oselm::rl {

void OsElmQBackend::predict_actions_multi(const linalg::MatD& states,
                                          const linalg::VecD& action_codes,
                                          QNetwork which,
                                          linalg::MatD& q_out) {
  if (states.cols() + 1 != input_dim()) {
    throw std::invalid_argument(
        "OsElmQBackend::predict_actions_multi: state width");
  }
  if (q_out.rows() != states.rows() || q_out.cols() != action_codes.size()) {
    throw std::invalid_argument(
        "OsElmQBackend::predict_actions_multi: q_out shape");
  }
  if (states.rows() == 0) return;  // no evaluations => no charge
  linalg::VecD state(states.cols());
  linalg::VecD q_row(action_codes.size());
  for (std::size_t s = 0; s < states.rows(); ++s) {
    const double* row = states.row_ptr(s);
    for (std::size_t i = 0; i < state.size(); ++i) state[i] = row[i];
    predict_actions(state, action_codes, which, q_row);
    q_out.set_row(s, q_row);
  }
}

void OsElmQBackend::seq_train_chunk(const linalg::MatD& sa_rows,
                                    std::span<const double> targets) {
  if (sa_rows.cols() != input_dim() || sa_rows.rows() != targets.size()) {
    throw std::invalid_argument(
        "OsElmQBackend::seq_train_chunk: rows/targets shape");
  }
  linalg::VecD sa(sa_rows.cols());
  for (std::size_t r = 0; r < sa_rows.rows(); ++r) {
    const double* row = sa_rows.row_ptr(r);
    for (std::size_t i = 0; i < sa.size(); ++i) sa[i] = row[i];
    seq_train(sa, targets[r]);
  }
}

QNetState OsElmQBackend::export_state() const {
  throw std::logic_error(
      "OsElmQBackend::export_state: backend does not support state sync "
      "(check supports_state_sync())");
}

void OsElmQBackend::import_state(const QNetState&) {
  throw std::logic_error(
      "OsElmQBackend::import_state: backend does not support state sync "
      "(check supports_state_sync())");
}

}  // namespace oselm::rl
