// Three-layer MLP (input -> ReLU hidden -> linear output) with manual
// backprop — the "three-layer DQN" baseline of §4.1, built from scratch.
#pragma once

#include "linalg/matrix.hpp"
#include "util/rng.hpp"

namespace oselm::nn {

struct MlpConfig {
  std::size_t input_dim = 0;
  std::size_t hidden_units = 0;
  std::size_t output_dim = 0;

  void validate() const;  ///< throws std::invalid_argument on bad values
};

/// Gradients with the same shapes as the parameters.
struct MlpGradients {
  linalg::MatD w1;  ///< input_dim x hidden
  linalg::VecD b1;  ///< hidden
  linalg::MatD w2;  ///< hidden x output
  linalg::VecD b2;  ///< output

  void scale(double factor) noexcept;
};

/// Forward-pass cache needed by backward().
struct MlpCache {
  linalg::MatD x;       ///< batch inputs (k x n)
  linalg::MatD h_pre;   ///< pre-activation hidden (k x N)
  linalg::MatD h;       ///< post-ReLU hidden (k x N)
  linalg::MatD out;     ///< outputs (k x m)
};

class Mlp {
 public:
  Mlp(MlpConfig config, util::Rng& rng);

  /// Re-randomizes all parameters (PyTorch nn.Linear default init:
  /// U(-1/sqrt(fan_in), 1/sqrt(fan_in)) for weights and biases).
  void reinitialize(util::Rng& rng);

  /// Single-sample forward pass (Q-values for action selection).
  [[nodiscard]] linalg::VecD forward(const linalg::VecD& x) const;

  /// forward() into caller-owned vectors (`hidden` is scratch); no
  /// allocation once their capacity suffices.
  void forward_into(const linalg::VecD& x, linalg::VecD& hidden,
                    linalg::VecD& out) const;

  /// Batch forward pass through a throwaway cache.
  [[nodiscard]] linalg::MatD forward_batch(const linalg::MatD& x) const;

  /// Batch forward pass retaining the activations needed for backward().
  /// Returns cache.out; a warm cache is reused without allocation.
  const linalg::MatD& forward_cached(const linalg::MatD& x,
                                     MlpCache& cache) const;

  /// Backprop given dLoss/dOut (same shape as cache.out); pure chain rule,
  /// so a mean-reduced loss must fold its 1/batch factor into dLoss/dOut
  /// (huber_loss_mean does exactly that).
  [[nodiscard]] MlpGradients backward(const MlpCache& cache,
                                      const linalg::MatD& dloss_dout) const;

  /// backward() into caller-owned gradients; `dhidden` is scratch for
  /// dLoss/dHidden. No allocation once the shapes are warm.
  void backward_into(const MlpCache& cache, const linalg::MatD& dloss_dout,
                     MlpGradients& grads, linalg::MatD& dhidden) const;

  /// Copies parameters from another network (fixed-target sync).
  void copy_parameters_from(const Mlp& other);

  [[nodiscard]] const MlpConfig& config() const noexcept { return config_; }
  [[nodiscard]] const linalg::MatD& w1() const noexcept { return w1_; }
  [[nodiscard]] const linalg::VecD& b1() const noexcept { return b1_; }
  [[nodiscard]] const linalg::MatD& w2() const noexcept { return w2_; }
  [[nodiscard]] const linalg::VecD& b2() const noexcept { return b2_; }

  linalg::MatD& mutable_w1() noexcept { return w1_; }
  linalg::VecD& mutable_b1() noexcept { return b1_; }
  linalg::MatD& mutable_w2() noexcept { return w2_; }
  linalg::VecD& mutable_b2() noexcept { return b2_; }

  /// Total trainable parameter count.
  [[nodiscard]] std::size_t parameter_count() const noexcept;

 private:
  MlpConfig config_;
  linalg::MatD w1_;
  linalg::VecD b1_;
  linalg::MatD w2_;
  linalg::VecD b2_;
};

}  // namespace oselm::nn
