#include "nn/mlp.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/kernels.hpp"
#include "linalg/ops.hpp"

namespace oselm::nn {

namespace {

linalg::kernels::MlpShape batch_shape(const MlpConfig& config,
                                      std::size_t batch) {
  return {batch, config.input_dim, config.hidden_units, config.output_dim};
}

}  // namespace

void MlpConfig::validate() const {
  if (input_dim == 0 || hidden_units == 0 || output_dim == 0) {
    throw std::invalid_argument("MlpConfig: zero dimension");
  }
}

void MlpGradients::scale(double factor) noexcept {
  for (std::size_t i = 0; i < w1.size(); ++i) w1.data()[i] *= factor;
  for (auto& v : b1) v *= factor;
  for (std::size_t i = 0; i < w2.size(); ++i) w2.data()[i] *= factor;
  for (auto& v : b2) v *= factor;
}

Mlp::Mlp(MlpConfig config, util::Rng& rng) : config_(config) {
  config_.validate();
  reinitialize(rng);
}

void Mlp::reinitialize(util::Rng& rng) {
  w1_ = linalg::MatD(config_.input_dim, config_.hidden_units);
  b1_ = linalg::VecD(config_.hidden_units);
  w2_ = linalg::MatD(config_.hidden_units, config_.output_dim);
  b2_ = linalg::VecD(config_.output_dim);
  const double bound1 = 1.0 / std::sqrt(static_cast<double>(config_.input_dim));
  const double bound2 =
      1.0 / std::sqrt(static_cast<double>(config_.hidden_units));
  rng.fill_uniform(w1_.storage(), -bound1, bound1);
  rng.fill_uniform(b1_, -bound1, bound1);
  rng.fill_uniform(w2_.storage(), -bound2, bound2);
  rng.fill_uniform(b2_, -bound2, bound2);
}

linalg::VecD Mlp::forward(const linalg::VecD& x) const {
  linalg::VecD hidden;
  linalg::VecD out;
  forward_into(x, hidden, out);
  return out;
}

void Mlp::forward_into(const linalg::VecD& x, linalg::VecD& hidden,
                       linalg::VecD& out) const {
  if (x.size() != config_.input_dim) {
    throw std::invalid_argument("Mlp::forward: input width mismatch");
  }
  linalg::matvec_t_into(w1_, x, hidden);
  for (std::size_t i = 0; i < hidden.size(); ++i) {
    const double pre = hidden[i] + b1_[i];
    hidden[i] = pre < 0.0 ? 0.0 : pre;  // ReLU
  }
  linalg::matvec_t_into(w2_, hidden, out);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] += b2_[i];
}

linalg::MatD Mlp::forward_batch(const linalg::MatD& x) const {
  MlpCache scratch;
  return forward_cached(x, scratch);
}

const linalg::MatD& Mlp::forward_cached(const linalg::MatD& x,
                                        MlpCache& cache) const {
  if (x.cols() != config_.input_dim) {
    throw std::invalid_argument("Mlp::forward_cached: input width mismatch");
  }
  cache.x = x;
  // The AVX2 kernel, when enabled, is bit-identical to the loops below.
  const std::size_t batch = x.rows();
  cache.h_pre.resize(batch, config_.hidden_units);
  cache.h.resize(batch, config_.hidden_units);
  cache.out.resize(batch, config_.output_dim);
  if (linalg::kernels::mlp_forward(
          x.data(), w1_.data(), b1_.data(), w2_.data(), b2_.data(),
          batch_shape(config_, batch), cache.h_pre.data(), cache.h.data(),
          cache.out.data())) {
    return cache.out;
  }
  linalg::matmul_into(x, w1_, cache.h_pre);
  for (std::size_t r = 0; r < cache.h_pre.rows(); ++r) {
    double* row = cache.h_pre.row_ptr(r);
    for (std::size_t c = 0; c < cache.h_pre.cols(); ++c) row[c] += b1_[c];
  }
  // ReLU as an unconditional select, here and in backward_into: a
  // data-dependent branch would mispredict on about half the units.
  for (std::size_t i = 0; i < cache.h.size(); ++i) {
    const double pre = cache.h_pre.data()[i];
    cache.h.data()[i] = pre < 0.0 ? 0.0 : pre;
  }
  linalg::matmul_into(cache.h, w2_, cache.out);
  for (std::size_t r = 0; r < cache.out.rows(); ++r) {
    double* row = cache.out.row_ptr(r);
    for (std::size_t c = 0; c < cache.out.cols(); ++c) row[c] += b2_[c];
  }
  return cache.out;
}

MlpGradients Mlp::backward(const MlpCache& cache,
                           const linalg::MatD& dloss_dout) const {
  MlpGradients grads;
  linalg::MatD dhidden;
  backward_into(cache, dloss_dout, grads, dhidden);
  return grads;
}

void Mlp::backward_into(const MlpCache& cache,
                        const linalg::MatD& dloss_dout, MlpGradients& grads,
                        linalg::MatD& dhidden) const {
  const std::size_t batch = cache.x.rows();
  if (dloss_dout.rows() != batch ||
      dloss_dout.cols() != config_.output_dim) {
    throw std::invalid_argument("Mlp::backward: gradient shape mismatch");
  }
  if (cache.x.cols() != config_.input_dim ||
      cache.h_pre.rows() != batch || cache.h.rows() != batch ||
      cache.h_pre.cols() != config_.hidden_units ||
      cache.h.cols() != config_.hidden_units) {
    throw std::invalid_argument("Mlp::backward: cache shape mismatch");
  }
  // The AVX2 kernel, when enabled, is bit-identical to the loops below.
  grads.w1.resize(config_.input_dim, config_.hidden_units);
  grads.b1.resize(config_.hidden_units);
  grads.w2.resize(config_.hidden_units, config_.output_dim);
  grads.b2.resize(config_.output_dim);
  dhidden.resize(batch, config_.hidden_units);
  if (linalg::kernels::mlp_backward(
          cache.x.data(), cache.h_pre.data(), cache.h.data(),
          dloss_dout.data(), w2_.data(), batch_shape(config_, batch),
          grads.w1.data(), grads.b1.data(), grads.w2.data(), grads.b2.data(),
          dhidden.data())) {
    return;
  }

  // dW2 = h^T dOut;  db2 = column sums of dOut.
  linalg::matmul_at_b_into(cache.h, dloss_dout, grads.w2);
  grads.b2.assign(config_.output_dim, 0.0);
  for (std::size_t r = 0; r < batch; ++r) {
    const double* row = dloss_dout.row_ptr(r);
    for (std::size_t c = 0; c < config_.output_dim; ++c) grads.b2[c] += row[c];
  }

  // dH = dOut W2^T, gated by ReLU' (h_pre > 0).
  linalg::matmul_a_bt_into(dloss_dout, w2_, dhidden);
  for (std::size_t i = 0; i < dhidden.size(); ++i) {
    double& d = dhidden.data()[i];
    d = cache.h_pre.data()[i] <= 0.0 ? 0.0 : d;
  }

  // dW1 = x^T dH;  db1 = column sums of dH.
  linalg::matmul_at_b_into(cache.x, dhidden, grads.w1);
  grads.b1.assign(config_.hidden_units, 0.0);
  for (std::size_t r = 0; r < batch; ++r) {
    const double* row = dhidden.row_ptr(r);
    for (std::size_t c = 0; c < config_.hidden_units; ++c) {
      grads.b1[c] += row[c];
    }
  }
}

void Mlp::copy_parameters_from(const Mlp& other) {
  if (other.config_.input_dim != config_.input_dim ||
      other.config_.hidden_units != config_.hidden_units ||
      other.config_.output_dim != config_.output_dim) {
    throw std::invalid_argument("Mlp::copy_parameters_from: shape mismatch");
  }
  w1_ = other.w1_;
  b1_ = other.b1_;
  w2_ = other.w2_;
  b2_ = other.b2_;
}

std::size_t Mlp::parameter_count() const noexcept {
  return w1_.size() + b1_.size() + w2_.size() + b2_.size();
}

}  // namespace oselm::nn
