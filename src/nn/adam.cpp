#include "nn/adam.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/kernels.hpp"

namespace oselm::nn {

AdamOptimizer::AdamOptimizer(AdamConfig config, const MlpConfig& shapes)
    : config_(config), shapes_(shapes) {
  shapes_.validate();
  const std::size_t w1 = shapes_.input_dim * shapes_.hidden_units;
  const std::size_t w2 = shapes_.hidden_units * shapes_.output_dim;
  m_w1_.assign(w1, 0.0);
  v_w1_.assign(w1, 0.0);
  m_b1_.assign(shapes_.hidden_units, 0.0);
  v_b1_.assign(shapes_.hidden_units, 0.0);
  m_w2_.assign(w2, 0.0);
  v_w2_.assign(w2, 0.0);
  m_b2_.assign(shapes_.output_dim, 0.0);
  v_b2_.assign(shapes_.output_dim, 0.0);
}

void AdamOptimizer::reset() {
  t_ = 0;
  for (auto* buf : {&m_w1_, &v_w1_, &m_b1_, &v_b1_, &m_w2_, &v_w2_, &m_b2_,
                    &v_b2_}) {
    buf->assign(buf->size(), 0.0);
  }
}

void AdamOptimizer::update_buffer(double* param, const double* grad,
                                  double* m, double* v, std::size_t count,
                                  double bias1, double bias2) const {
  // The AVX2 kernel, when enabled, is bit-identical to the loop below.
  if (linalg::kernels::adam_update(
          param, grad, m, v, count,
          {config_.learning_rate, config_.beta1, config_.beta2,
           config_.epsilon, bias1, bias2})) {
    return;
  }
  // Hyper-parameters in locals: the stores through param/m/v could
  // otherwise alias config_ and block vectorization (this file is built
  // with -fno-math-errno so std::sqrt vectorizes too).
  const double beta1 = config_.beta1;
  const double beta2 = config_.beta2;
  const double lr = config_.learning_rate;
  const double epsilon = config_.epsilon;
  for (std::size_t i = 0; i < count; ++i) {
    m[i] = beta1 * m[i] + (1.0 - beta1) * grad[i];
    v[i] = beta2 * v[i] + (1.0 - beta2) * grad[i] * grad[i];
    const double m_hat = m[i] / bias1;
    const double v_hat = v[i] / bias2;
    param[i] -= lr * m_hat / (std::sqrt(v_hat) + epsilon);
  }
}

void AdamOptimizer::step(Mlp& net, const MlpGradients& grads) {
  if (grads.w1.size() != m_w1_.size() || grads.w2.size() != m_w2_.size() ||
      grads.b1.size() != m_b1_.size() || grads.b2.size() != m_b2_.size()) {
    throw std::invalid_argument("AdamOptimizer::step: shape mismatch");
  }
  ++t_;
  const double bias1 =
      1.0 - std::pow(config_.beta1, static_cast<double>(t_));
  const double bias2 =
      1.0 - std::pow(config_.beta2, static_cast<double>(t_));
  update_buffer(net.mutable_w1().data(), grads.w1.data(), m_w1_.data(),
                v_w1_.data(), m_w1_.size(), bias1, bias2);
  update_buffer(net.mutable_b1().data(), grads.b1.data(), m_b1_.data(),
                v_b1_.data(), m_b1_.size(), bias1, bias2);
  update_buffer(net.mutable_w2().data(), grads.w2.data(), m_w2_.data(),
                v_w2_.data(), m_w2_.size(), bias1, bias2);
  update_buffer(net.mutable_b2().data(), grads.b2.data(), m_b2_.data(),
                v_b2_.data(), m_b2_.size(), bias1, bias2);
}

}  // namespace oselm::nn
