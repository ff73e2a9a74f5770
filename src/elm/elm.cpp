#include "elm/elm.hpp"

#include <algorithm>
#include <stdexcept>

#include "linalg/cholesky.hpp"
#include "linalg/kernels.hpp"
#include "linalg/ops.hpp"
#include "linalg/svd.hpp"

namespace oselm::elm {

void ElmConfig::validate() const {
  if (input_dim == 0) throw std::invalid_argument("ElmConfig: input_dim == 0");
  if (hidden_units == 0) {
    throw std::invalid_argument("ElmConfig: hidden_units == 0");
  }
  if (output_dim == 0) {
    throw std::invalid_argument("ElmConfig: output_dim == 0");
  }
  if (l2_delta < 0.0) throw std::invalid_argument("ElmConfig: l2_delta < 0");
  if (!(init_low < init_high)) {
    throw std::invalid_argument("ElmConfig: init range empty");
  }
}

Elm::Elm(ElmConfig config, util::Rng& rng) : config_(config) {
  config_.validate();
  reinitialize(rng);
}

void Elm::reinitialize(util::Rng& rng) {
  alpha_ = linalg::MatD(config_.input_dim, config_.hidden_units);
  bias_ = linalg::VecD(config_.hidden_units);
  beta_ = linalg::MatD(config_.hidden_units, config_.output_dim);
  rng.fill_uniform(alpha_.storage(), config_.init_low, config_.init_high);
  rng.fill_uniform(bias_, config_.init_low, config_.init_high);
  rng.fill_uniform(beta_.storage(), config_.init_low, config_.init_high);
  trained_ = false;
}

linalg::MatD Elm::hidden(const linalg::MatD& x) const {
  if (x.cols() != config_.input_dim) {
    throw std::invalid_argument("Elm::hidden: input width mismatch");
  }
  linalg::MatD h = linalg::matmul(x, alpha_);
  for (std::size_t r = 0; r < h.rows(); ++r) {
    double* row = h.row_ptr(r);
    for (std::size_t c = 0; c < h.cols(); ++c) row[c] += bias_[c];
  }
  apply_activation_inplace(config_.activation, h);
  return h;
}

linalg::VecD Elm::hidden_one(const linalg::VecD& x) const {
  linalg::VecD h;
  hidden_into(x, h);
  return h;
}

void Elm::hidden_into(const linalg::VecD& x, linalg::VecD& h) const {
  if (x.size() != config_.input_dim) {
    throw std::invalid_argument("Elm::hidden_into: input width mismatch");
  }
  h.resize(config_.hidden_units);
  hidden_row(x.data(), h.data());
}

void Elm::hidden_rows_into(const linalg::MatD& x, linalg::MatD& h) const {
  if (x.cols() != config_.input_dim) {
    throw std::invalid_argument("Elm::hidden_rows_into: input width mismatch");
  }
  h.resize(x.rows(), config_.hidden_units);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    hidden_row(x.row_ptr(r), h.row_ptr(r));
  }
}

void Elm::hidden_row(const double* x, double* h) const {
  std::fill(h, h + config_.hidden_units, 0.0);  // alpha^T x == x * alpha
  for (std::size_t i = 0; i < config_.input_dim; ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    linalg::kernels::axpy(h, xi, alpha_.row_ptr(i), config_.hidden_units);
  }
  linalg::kernels::bias_activate(h, bias_.data(), config_.hidden_units,
                                 kernel_act(config_.activation));
}

void Elm::train_batch(const linalg::MatD& x, const linalg::MatD& t) {
  if (x.rows() != t.rows()) {
    throw std::invalid_argument("Elm::train_batch: sample count mismatch");
  }
  if (t.cols() != config_.output_dim) {
    throw std::invalid_argument("Elm::train_batch: target width mismatch");
  }
  const linalg::MatD h = hidden(x);
  if (config_.l2_delta > 0.0) {
    // beta = (H^T H + delta I)^-1 H^T t  — SPD, solved via Cholesky.
    linalg::MatD gram = linalg::matmul_at_b(h, h);
    linalg::add_diagonal_inplace(gram, config_.l2_delta);
    const auto factor = linalg::cholesky_decompose(gram);
    if (!factor.spd) {
      throw std::runtime_error("Elm::train_batch: Gram matrix not SPD");
    }
    const linalg::MatD ht_t = linalg::matmul_at_b(h, t);
    beta_ = linalg::MatD(config_.hidden_units, config_.output_dim);
    for (std::size_t c = 0; c < t.cols(); ++c) {
      const linalg::VecD col = linalg::cholesky_solve(factor, ht_t.col(c));
      for (std::size_t r2 = 0; r2 < beta_.rows(); ++r2) beta_(r2, c) = col[r2];
    }
  } else {
    // beta = H^+ t (Eq. 3). Fast path: solve the normal equations with a
    // microscopic ridge via Cholesky (the standard ELM implementation
    // trick — O(N^3/3) instead of a full SVD). Squaring H's condition
    // number can ruin near-singular problems, so the solution is accepted
    // only if its least-squares optimality check (gradient H^T(H beta - t)
    // ~ 0) holds; otherwise fall back to the exact SVD pseudo-inverse.
    bool solved = false;
    linalg::MatD gram = linalg::matmul_at_b(h, h);
    linalg::add_diagonal_inplace(gram, 1e-9);
    const auto factor = linalg::cholesky_decompose(gram);
    if (factor.spd) {
      const linalg::MatD ht_t = linalg::matmul_at_b(h, t);
      linalg::MatD candidate(config_.hidden_units, config_.output_dim);
      for (std::size_t c = 0; c < t.cols(); ++c) {
        const linalg::VecD col = linalg::cholesky_solve(factor, ht_t.col(c));
        for (std::size_t r2 = 0; r2 < candidate.rows(); ++r2) {
          candidate(r2, c) = col[r2];
        }
      }
      // Optimality check: the normal-equation residual must be tiny
      // relative to the data scale.
      const linalg::MatD grad = linalg::sub(
          linalg::matmul_at_b(h, linalg::matmul(h, candidate)), ht_t);
      double scale = 1e-30;
      for (std::size_t i = 0; i < ht_t.size(); ++i) {
        scale = std::max(scale, std::abs(ht_t.data()[i]));
      }
      double worst = 0.0;
      for (std::size_t i = 0; i < grad.size(); ++i) {
        worst = std::max(worst, std::abs(grad.data()[i]));
      }
      if (worst <= 1e-7 * scale) {
        beta_ = std::move(candidate);
        solved = true;
      }
    }
    if (!solved) beta_ = linalg::matmul(linalg::pseudo_inverse(h), t);
  }
  trained_ = true;
}

linalg::MatD Elm::predict(const linalg::MatD& x) const {
  return linalg::matmul(hidden(x), beta_);
}

linalg::VecD Elm::predict_one(const linalg::VecD& x) const {
  const linalg::VecD h = hidden_one(x);
  return linalg::matvec_t(beta_, h);  // beta^T h == h * beta
}

}  // namespace oselm::elm
