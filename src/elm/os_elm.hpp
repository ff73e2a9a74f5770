// OS-ELM — Online Sequential Extreme Learning Machine (Liang et al. 2006),
// §2.2, with the ReOS-ELM regularized initial training (Huynh & Won 2011),
// §2.3.
//
// State:  P_i = (sum_j H_j^T H_j [+ delta I])^-1  and  beta_i.
// Initial training (Eq. 7 / Eq. 8):
//     P_0 = (H_0^T H_0 + delta I)^-1,  beta_0 = P_0 H_0^T t_0
// Sequential training (Eq. 5):
//     P_i    = P_{i-1} - P_{i-1} H_i^T (I + H_i P_{i-1} H_i^T)^-1 H_i P_{i-1}
//     beta_i = beta_{i-1} + P_i H_i^T (t_i - H_i beta_{i-1})
// For chunk size k = 1 the k x k inverse collapses to a scalar reciprocal
// (§2.2), which is the fast path used on the FPGA and by a lone Q-learner.
// k > 1 replaces the inverse with a Cholesky factor of the k x k matrix;
// the serving stack uses it for a drain's co-tenant train rows.
#pragma once

#include <cstdint>

#include "elm/elm.hpp"
#include "linalg/matrix.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace oselm::elm {

class OsElm {
 public:
  OsElm(ElmConfig config, util::Rng& rng);

  /// Builds a model around given weights and P, e.g. a copy of another
  /// model's state to replay one update stream from the same start.
  /// Shapes are validated against `config`; `p` must be empty when the
  /// model has not run its initial training.
  static OsElm from_parts(const ElmConfig& config, linalg::MatD alpha,
                          linalg::VecD bias, linalg::MatD beta,
                          linalg::MatD p, bool initialized);

  /// Re-randomizes all weights and forgets P (the Q-network reset rule).
  void reinitialize(util::Rng& rng);

  /// Initial training on chunk (x0, t0) per Eq. 7 (delta == 0) or Eq. 8
  /// (delta > 0). Requires at least hidden_units samples for Eq. 7 to be
  /// well posed; with fewer samples and delta == 0 a tiny ridge is added
  /// and reported through initial_ridge_used().
  void init_train(const linalg::MatD& x0, const linalg::MatD& t0);

  /// Sequential chunk update per Eq. 5 (general k): one k x k Cholesky
  /// factor of I + H P H^T and a symmetric rank-k downdate of P, in
  /// member workspaces. In exact arithmetic it equals k seq_train_one
  /// calls on the rows in order; a one-row chunk takes seq_train_one.
  /// Throws std::invalid_argument unless x and t have the same row count
  /// and t is output_dim wide.
  void seq_train(const linalg::MatD& x, const linalg::MatD& t);

  /// k = 1 fast path: scalar reciprocal instead of the k x k inverse.
  void seq_train_one(const linalg::VecD& x, const linalg::VecD& t);

  /// k = 1 update with a forgetting factor lambda in (0, 1]: FOS-ELM
  /// (Zhao et al. 2012). Exponentially discounts old samples,
  ///     P_i = (1/lambda) * [P - (P h^T h P) / (lambda + h P h^T)],
  /// which keeps the RLS gain from decaying to zero and lets the model
  /// track the non-stationary targets of Q-learning without weight
  /// resets. lambda == 1 reduces exactly to seq_train_one.
  void seq_train_one_forgetting(const linalg::VecD& x, const linalg::VecD& t,
                                double lambda);

  [[nodiscard]] linalg::MatD predict(const linalg::MatD& x) const {
    return net_.predict(x);
  }
  [[nodiscard]] linalg::VecD predict_one(const linalg::VecD& x) const {
    return net_.predict_one(x);
  }
  [[nodiscard]] linalg::VecD hidden_one(const linalg::VecD& x) const {
    return net_.hidden_one(x);
  }
  void hidden_into(const linalg::VecD& x, linalg::VecD& h) const {
    net_.hidden_into(x, h);
  }
  [[nodiscard]] linalg::MatD hidden(const linalg::MatD& x) const {
    return net_.hidden(x);
  }

  [[nodiscard]] bool initialized() const noexcept { return initialized_; }
  [[nodiscard]] const ElmConfig& config() const noexcept {
    return net_.config();
  }
  [[nodiscard]] const linalg::MatD& alpha() const noexcept {
    return net_.alpha();
  }
  [[nodiscard]] const linalg::VecD& bias() const noexcept {
    return net_.bias();
  }
  [[nodiscard]] const linalg::MatD& beta() const noexcept {
    return net_.beta();
  }
  [[nodiscard]] const linalg::MatD& p() const noexcept { return p_; }
  [[nodiscard]] double initial_ridge_used() const noexcept {
    return initial_ridge_used_;
  }

  /// Weight access for spectral normalization and target-network snapshots.
  linalg::MatD& mutable_alpha() noexcept { return net_.mutable_alpha(); }
  linalg::MatD& mutable_beta() noexcept { return net_.mutable_beta(); }
  void set_beta(const linalg::MatD& beta);

  /// Overwrites the trained state (beta, P) in place and marks the model
  /// initialized, keeping alpha/bias untouched. Used by replica
  /// synchronization (rl::RouterQServer averaging) where every replica
  /// shares the same random projection and only the sequential-learning
  /// state moves. Shapes are validated against config().
  void restore_trained_state(const linalg::MatD& beta, const linalg::MatD& p);

 private:
  /// Debug contract (compiled out in Release): sampled structural
  /// invariants of the sequential-learning state — P exactly symmetric
  /// (the kernel layer mirrors the upper triangle, so equality is exact,
  /// not approximate), every P entry and beta entry finite, and the P
  /// diagonal positive (a necessary condition for the positive
  /// definiteness Eq. 5 preserves). Runs on every init_train and then
  /// every kInvariantSampleEvery-th sequential update — the O(N^2) scan
  /// is too hot to run per update even in Debug.
  void check_invariants_sampled() {
#if OSELM_CONTRACTS_ENABLED
    if (++seq_updates_since_check_ >= kInvariantSampleEvery) {
      seq_updates_since_check_ = 0;
      check_invariants_now();
    }
#endif
  }
  void check_invariants_now() const;
  static constexpr std::uint64_t kInvariantSampleEvery = 64;

  Elm net_;          ///< shares alpha/bias/beta representation with ELM
  linalg::MatD p_;   ///< N-tilde x N-tilde
  linalg::VecD h_ws_;  ///< seq_train_one hidden-row workspace (no allocs)
  linalg::VecD u_ws_;  ///< seq_train_one P h^T workspace (no allocs)
  // seq_train chunk workspaces, resized per chunk (capacity is kept).
  linalg::MatD h_chunk_;   ///< k x N-tilde hidden rows H
  linalg::MatD wt_chunk_;  ///< k x N-tilde: U^T, then W^T in place
  linalg::MatD s_chunk_;   ///< k x k: S's lower triangle, then L
  linalg::MatD r_chunk_;   ///< k x m: residuals r, then L^-1 r
  bool initialized_ = false;
  double initial_ridge_used_ = 0.0;
  std::uint64_t seq_updates_since_check_ = 0;
};

}  // namespace oselm::elm
