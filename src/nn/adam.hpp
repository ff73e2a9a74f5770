// Adam optimizer (Kingma & Ba 2015) — the paper trains its DQN baseline
// with Adam at learning rate 0.01 (§4.1).
#pragma once

#include <array>

#include "nn/mlp.hpp"

namespace oselm::nn {

struct AdamConfig {
  double learning_rate = 0.01;  ///< paper's setting (§4.1)
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
};

/// Adam state and update for every Mlp parameter tensor.
class AdamOptimizer {
 public:
  AdamOptimizer(AdamConfig config, const MlpConfig& shapes);

  /// Applies one Adam step to `net` in place using `grads`.
  void step(Mlp& net, const MlpGradients& grads);

  /// Resets moments and the step counter (used after a weight reset).
  void reset();

  [[nodiscard]] const AdamConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t steps_taken() const noexcept { return t_; }

  /// First and second moments, (m, v) per tensor in the order w1, b1, w2,
  /// b2 (parity tests compare optimizer state across kernel sets).
  [[nodiscard]] std::array<const linalg::VecD*, 8> moments() const noexcept {
    return {&m_w1_, &v_w1_, &m_b1_, &v_b1_, &m_w2_, &v_w2_, &m_b2_, &v_b2_};
  }

 private:
  /// Element-wise Adam over a flat buffer with per-buffer moment storage.
  void update_buffer(double* param, const double* grad, double* m, double* v,
                     std::size_t count, double bias1, double bias2) const;

  AdamConfig config_;
  MlpConfig shapes_;
  std::size_t t_ = 0;
  // First (m) and second (v) moments, one pair per parameter tensor.
  linalg::VecD m_w1_, v_w1_, m_b1_, v_b1_, m_w2_, v_w2_, m_b2_, v_b2_;
};

}  // namespace oselm::nn
