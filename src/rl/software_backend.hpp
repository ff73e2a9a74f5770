// Double-precision software backend for the OS-ELM Q-network
// (designs 2-5 of §4.1). Owns the OS-ELM state plus a frozen copy of beta
// acting as the target network theta_2 (alpha and the bias never change
// after initialization, so theta_2 only needs its own beta).
//
// Every predicting/training call charges measured wall-clock seconds to
// the backend's util::TimeLedger (see rl/agent.hpp).
#pragma once

#include "elm/os_elm.hpp"
#include "rl/agent.hpp"
#include "util/rng.hpp"

namespace oselm::rl {

struct SoftwareBackendConfig {
  elm::ElmConfig elm;              ///< input_dim, hidden_units, delta, ...
  bool spectral_normalize = false; ///< Algorithm 1 lines 2-3 (alpha /= sigma)
  /// FOS-ELM forgetting factor for sequential updates; 1.0 (default)
  /// reproduces the paper exactly, <1 exponentially discounts old TD
  /// targets (extension experiment, see bench_ext_future_work).
  double forgetting_factor = 1.0;
};

class SoftwareOsElmBackend final : public OsElmQBackend {
 public:
  /// The backend keeps its own Rng (split from `seed`) so reinitialization
  /// draws fresh weights on every reset.
  SoftwareOsElmBackend(SoftwareBackendConfig config, std::uint64_t seed);

  void initialize() override;
  [[nodiscard]] double predict_main(const linalg::VecD& sa) override;
  [[nodiscard]] double predict_target(const linalg::VecD& sa) override;
  void predict_actions(const linalg::VecD& state,
                       const linalg::VecD& action_codes, QNetwork which,
                       linalg::VecD& q_out) override;
  /// Row-wise loop over the rank-1 batched path, reusing member
  /// workspaces so the serving hot loop stays allocation-free (the base
  /// implementation allocates per call).
  void predict_actions_multi(const linalg::MatD& states,
                             const linalg::VecD& action_codes,
                             QNetwork which, linalg::MatD& q_out) override;
  void init_train(const linalg::MatD& x, const linalg::MatD& t) override;
  void seq_train(const linalg::VecD& sa, double target) override;
  void sync_target() override;

  /// Bit-exact snapshots: export/import round-trip without loss.
  [[nodiscard]] bool supports_state_sync() const override { return true; }
  [[nodiscard]] QNetState export_state() const override;
  void import_state(const QNetState& state) override;

  [[nodiscard]] bool initialized() const override {
    return net_.initialized();
  }
  [[nodiscard]] std::size_t input_dim() const override {
    return config_.elm.input_dim;
  }
  [[nodiscard]] std::size_t hidden_units() const override {
    return config_.elm.hidden_units;
  }

  /// Introspection for tests and the Lipschitz diagnostics.
  [[nodiscard]] const elm::OsElm& network() const noexcept { return net_; }
  [[nodiscard]] const linalg::MatD& target_beta() const noexcept {
    return beta_target_;
  }
  [[nodiscard]] double sigma_max_alpha_at_init() const noexcept {
    return sigma_at_init_;
  }

 private:
  /// Q(sa) under output weights `beta` (theta_1 or theta_2); the body of
  /// predict_main and predict_target.
  [[nodiscard]] double predict_one(const linalg::VecD& sa,
                                   const linalg::MatD& beta);
  /// Writes the per-action Q values for one state; shared by the single-
  /// and multi-state entry points, outside any timing scope.
  void predict_actions_into(const linalg::VecD& state,
                            const linalg::VecD& action_codes, QNetwork which,
                            linalg::VecD& q_out);

  SoftwareBackendConfig config_;
  util::Rng rng_;
  elm::OsElm net_;
  linalg::MatD beta_target_;
  double sigma_at_init_ = 0.0;

  // Hot-loop workspaces: the act/observe path never allocates.
  linalg::VecD h_ws_;       ///< hidden row for single-sample predictions
  linalg::VecD shared_ws_;  ///< shared state projection for predict_actions
  linalg::VecD target_ws_;  ///< 1-element target wrapper for seq_train
  linalg::VecD state_ws_;   ///< one row of a multi-state batch
  linalg::VecD q_row_ws_;   ///< per-row Q output of a multi-state batch
};

}  // namespace oselm::rl
