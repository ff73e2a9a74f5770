// ELM — Extreme Learning Machine (Huang et al. 2004), §2.1.
//
// Single-hidden-layer network y = G(x*alpha + b) * beta where alpha and b
// are random and frozen and G is ReLU, the paper's one hidden activation
// (§4.1; 1-Lipschitz, as §2.5 needs); training solves for beta
// analytically:
//     beta = H^+ t                    (Eq. 3, plain ELM)
//     beta = (H^T H + delta*I)^-1 H^T t   (regularized, Eq. 8 applied batch)
#pragma once

#include "linalg/matrix.hpp"
#include "util/rng.hpp"

namespace oselm::elm {

struct ElmConfig {
  std::size_t input_dim = 0;      ///< n
  std::size_t hidden_units = 0;   ///< N-tilde
  std::size_t output_dim = 1;     ///< m
  /// L2 regularization strength delta (0 = plain ELM via pseudo-inverse).
  double l2_delta = 0.0;
  /// Uniform init range for alpha/bias/beta. Algorithm 1 draws R in [0, 1];
  /// the symmetric default below matches the reference OS-ELM codebase and
  /// is what the reproduction uses (the asymmetric option is benchmarked in
  /// bench_ablation_techniques).
  double init_low = -1.0;
  double init_high = 1.0;

  void validate() const;  ///< throws std::invalid_argument on bad values
};

/// Frozen random input layer + analytically trained output layer.
class Elm {
 public:
  Elm(ElmConfig config, util::Rng& rng);

  /// Re-randomizes alpha, bias and beta (the Q-network reset rule).
  void reinitialize(util::Rng& rng);

  /// Hidden-layer matrix H = G(x*alpha + b) for a (k x n) chunk.
  [[nodiscard]] linalg::MatD hidden(const linalg::MatD& x) const;

  /// Hidden-layer row for a single sample.
  [[nodiscard]] linalg::VecD hidden_one(const linalg::VecD& x) const;

  /// Allocation-free hidden_one for hot loops: writes G(x*alpha + b) into
  /// `h`, reusing its capacity (same accumulation order as hidden_one, so
  /// results are bit-identical).
  void hidden_into(const linalg::VecD& x, linalg::VecD& h) const;

  /// hidden_into for every row of a (k x n) chunk: `h` is resized to
  /// k x N-tilde, reusing its capacity, and row r is bit-identical to
  /// hidden_into(x.row(r)).
  void hidden_rows_into(const linalg::MatD& x, linalg::MatD& h) const;

  /// Batch training: solves for beta against targets t (k x m).
  /// Plain ELM uses the SVD pseudo-inverse; delta > 0 uses the SPD solve.
  void train_batch(const linalg::MatD& x, const linalg::MatD& t);

  /// Predictions for a (k x n) chunk -> (k x m).
  [[nodiscard]] linalg::MatD predict(const linalg::MatD& x) const;

  /// Prediction for one sample.
  [[nodiscard]] linalg::VecD predict_one(const linalg::VecD& x) const;

  [[nodiscard]] const ElmConfig& config() const noexcept { return config_; }
  [[nodiscard]] const linalg::MatD& alpha() const noexcept { return alpha_; }
  [[nodiscard]] const linalg::VecD& bias() const noexcept { return bias_; }
  [[nodiscard]] const linalg::MatD& beta() const noexcept { return beta_; }
  [[nodiscard]] bool trained() const noexcept { return trained_; }

  /// Direct weight access for spectral normalization / target snapshots /
  /// OsElm::from_parts.
  linalg::MatD& mutable_alpha() noexcept { return alpha_; }
  linalg::VecD& mutable_bias() noexcept { return bias_; }
  linalg::MatD& mutable_beta() noexcept { return beta_; }

 private:
  /// The body of hidden_into: N-tilde hidden values of one sample.
  void hidden_row(const double* x, double* h) const;

  ElmConfig config_;
  linalg::MatD alpha_;  ///< n x N-tilde
  linalg::VecD bias_;   ///< N-tilde
  linalg::MatD beta_;   ///< N-tilde x m
  bool trained_ = false;
};

}  // namespace oselm::elm
