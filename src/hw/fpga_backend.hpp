// FPGA functional + timing model of the OS-ELM Q-Network core —
// design (7) of §4.1.
//
// Reproduces the hardware/software split of Fig. 3:
//   * predict and seq_train run "in programmable logic": bit-faithful
//     Q20 fixed-point arithmetic (saturating, single-unit dataflow order)
//     with their cost charged to the backend's util::TimeLedger as modeled
//     PL seconds from hw::CycleModel;
//   * init_train runs "on the CPU": double-precision host math (Eq. 8),
//     wall-clock timed, with the results quantized into the on-chip
//     weight/P memories afterwards.
//
// Because this class implements rl::OsElmQBackend, the identical
// Algorithm 1 agent drives both the software designs and this model.
#pragma once

#include <cstdint>

#include "hw/cycle_model.hpp"
#include "hw/fixed_tensor.hpp"
#include "rl/agent.hpp"
#include "util/rng.hpp"

namespace oselm::hw {

struct FpgaBackendConfig {
  std::size_t input_dim = 5;      ///< states + action code (CartPole: 5)
  std::size_t hidden_units = 64;  ///< N-tilde
  double l2_delta = 0.5;          ///< Eq. 8 delta (paper: 0.5 with Lipschitz)
  bool spectral_normalize = true; ///< the deployed design is L2-Lipschitz
  double init_low = -1.0;
  double init_high = 1.0;
};

class FpgaOsElmBackend final : public rl::OsElmQBackend {
 public:
  FpgaOsElmBackend(FpgaBackendConfig config, std::uint64_t seed);

  void initialize() override;
  [[nodiscard]] double predict_main(const linalg::VecD& sa) override;
  [[nodiscard]] double predict_target(const linalg::VecD& sa) override;
  void predict_actions(const linalg::VecD& state,
                       const linalg::VecD& action_codes, rl::QNetwork which,
                       linalg::VecD& q_out) override;
  /// Coalesced cross-session batch: per-state arithmetic bit-identical to
  /// predict_actions row by row, but charged as ONE amortized multi-batch
  /// (single pipeline fill + AXI handshake, CycleModel::predict_multi_*).
  /// Modeled time therefore depends on how the caller composed batches,
  /// which is exactly what the serving benches measure.
  void predict_actions_multi(const linalg::MatD& states,
                             const linalg::VecD& action_codes,
                             rl::QNetwork which,
                             linalg::MatD& q_out) override;
  void init_train(const linalg::MatD& x, const linalg::MatD& t) override;
  void seq_train(const linalg::VecD& sa, double target) override;
  void sync_target() override;

  /// State sync crosses the fixed-point boundary: export dequantizes the
  /// on-chip Q-format matrices to double, import re-quantizes (with the
  /// configured saturation policy), so a round trip is faithful only to
  /// the Q-format resolution — not bit-exact like the software backend.
  [[nodiscard]] bool supports_state_sync() const override { return true; }
  [[nodiscard]] rl::QNetState export_state() const override;
  void import_state(const rl::QNetState& state) override;

  [[nodiscard]] bool initialized() const override { return initialized_; }
  [[nodiscard]] std::size_t input_dim() const override {
    return config_.input_dim;
  }
  [[nodiscard]] std::size_t hidden_units() const override {
    return config_.hidden_units;
  }

  /// Introspection for the fidelity tests/benches.
  [[nodiscard]] const FixedMat& beta_fixed() const noexcept { return beta_; }
  [[nodiscard]] const FixedMat& p_fixed() const noexcept { return p_; }
  [[nodiscard]] const linalg::MatD& alpha_host() const noexcept {
    return alpha_host_;
  }
  [[nodiscard]] const linalg::VecD& bias_host() const noexcept {
    return bias_host_;
  }
  [[nodiscard]] const CycleModel& cycle_model() const noexcept {
    return cycles_;
  }
  [[nodiscard]] std::uint64_t total_pl_cycles() const noexcept {
    return total_pl_cycles_;
  }
  [[nodiscard]] std::size_t predict_calls() const noexcept {
    return predict_calls_;
  }
  [[nodiscard]] std::size_t seq_train_calls() const noexcept {
    return seq_train_calls_;
  }

 private:
  /// Fixed-point hidden layer h = relu(x·alpha + b) into `h_scratch_`.
  void hidden_fixed(const FixedVec& x);
  /// Fixed-point dot h·beta_column.
  [[nodiscard]] Q output_fixed(const FixedMat& beta) const;
  /// Q(sa) under output weights `beta` (theta_1 or theta_2), charged as
  /// one modeled PL predict; the body of predict_main and predict_target.
  [[nodiscard]] double predict_one(const linalg::VecD& sa,
                                   const FixedMat& beta);
  /// Per-action Q values for the state already loaded in x_scratch_
  /// (first input_dim-1 slots); shared by the single- and multi-state
  /// batched entry points so both produce bit-identical results.
  void predict_actions_loaded(const linalg::VecD& action_codes,
                              rl::QNetwork which, double* q_out);

  FpgaBackendConfig config_;
  util::Rng rng_;
  CycleModel cycles_;

  // Host-side (CPU) copies used by init_train and initialization.
  linalg::MatD alpha_host_;  ///< n x N, spectral-normalized in double
  linalg::VecD bias_host_;

  // On-chip (BRAM) fixed-point state.
  FixedMat alpha_;        ///< n x N
  FixedVec bias_;         ///< N
  FixedMat beta_;         ///< N x 1 (theta_1)
  FixedMat beta_target_;  ///< N x 1 (theta_2)
  FixedMat p_;            ///< N x N

  FixedVec x_scratch_;
  FixedVec h_scratch_;
  FixedVec u_scratch_;
  FixedVec shared_scratch_;  ///< bias + alpha_state^T s for predict_actions
  FixedVec scaled_scratch_;  ///< u * inv for the rank-1 downdate kernel

  bool initialized_ = false;
  std::uint64_t total_pl_cycles_ = 0;
  std::size_t predict_calls_ = 0;
  std::size_t seq_train_calls_ = 0;
};

}  // namespace oselm::hw
