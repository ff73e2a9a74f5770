#include "elm/os_elm.hpp"

#include <stdexcept>

#include "linalg/cholesky.hpp"
#include "linalg/kernels.hpp"
#include "linalg/ops.hpp"
#include "util/contract.hpp"

namespace oselm::elm {

void OsElm::check_invariants_now() const {
#if OSELM_CONTRACTS_ENABLED
  const std::size_t n = p_.rows();
  OSELM_DCHECK_EQ(p_.cols(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = p_.row_ptr(i);
    OSELM_DCHECK_GT(row[i], 0.0);  // SPD => strictly positive diagonal
    for (std::size_t j = i; j < n; ++j) {
      OSELM_DCHECK_FINITE(row[j]);
      // Exact (bit-level) symmetry: the sym_rank1/rank-k kernels compute
      // the upper triangle and mirror it, so any drift means a kernel or
      // an out-of-band P write broke the contract.
      OSELM_DCHECK_EQ(row[j], p_(j, i));
    }
  }
  for (const double v : net_.beta().storage()) OSELM_DCHECK_FINITE(v);
#endif
}


OsElm::OsElm(ElmConfig config, util::Rng& rng)
    : net_(config, rng),
      h_ws_(config.hidden_units, 0.0),
      u_ws_(config.hidden_units, 0.0) {}

OsElm OsElm::from_parts(const ElmConfig& config, linalg::MatD alpha,
                        linalg::VecD bias, linalg::MatD beta,
                        linalg::MatD p, bool initialized) {
  config.validate();
  if (alpha.rows() != config.input_dim ||
      alpha.cols() != config.hidden_units ||
      bias.size() != config.hidden_units ||
      beta.rows() != config.hidden_units ||
      beta.cols() != config.output_dim) {
    throw std::invalid_argument("OsElm::from_parts: weight shape mismatch");
  }
  if (initialized) {
    if (p.rows() != config.hidden_units || p.cols() != config.hidden_units) {
      throw std::invalid_argument("OsElm::from_parts: P shape mismatch");
    }
  } else if (!p.empty()) {
    // A model that never ran its initial training has no P. Accepting one
    // anyway would let inconsistent parts (initialized=false plus a stale
    // P) build silently, and a later init_train round-trip would
    // resurrect the stale state.
    throw std::invalid_argument(
        "OsElm::from_parts: uninitialized model carries a non-empty P");
  }
  util::Rng scratch_rng(0);
  OsElm model(config, scratch_rng);
  model.net_.mutable_alpha() = std::move(alpha);
  model.net_.mutable_bias() = std::move(bias);
  model.net_.mutable_beta() = std::move(beta);
  model.p_ = std::move(p);
  model.initialized_ = initialized;
  return model;
}

void OsElm::reinitialize(util::Rng& rng) {
  net_.reinitialize(rng);
  p_ = linalg::MatD();
  initialized_ = false;
  initial_ridge_used_ = 0.0;
}

void OsElm::set_beta(const linalg::MatD& beta) {
  if (beta.rows() != config().hidden_units ||
      beta.cols() != config().output_dim) {
    throw std::invalid_argument("OsElm::set_beta: shape mismatch");
  }
  net_.mutable_beta() = beta;
}

void OsElm::restore_trained_state(const linalg::MatD& beta,
                                  const linalg::MatD& p) {
  if (beta.rows() != config().hidden_units ||
      beta.cols() != config().output_dim) {
    throw std::invalid_argument(
        "OsElm::restore_trained_state: beta shape mismatch");
  }
  if (p.rows() != config().hidden_units ||
      p.cols() != config().hidden_units) {
    throw std::invalid_argument(
        "OsElm::restore_trained_state: P shape mismatch");
  }
  net_.mutable_beta() = beta;
  p_ = p;
  initialized_ = true;
}

void OsElm::init_train(const linalg::MatD& x0, const linalg::MatD& t0) {
  if (x0.rows() != t0.rows()) {
    throw std::invalid_argument("OsElm::init_train: sample count mismatch");
  }
  if (t0.cols() != config().output_dim) {
    throw std::invalid_argument("OsElm::init_train: target width mismatch");
  }
  const linalg::MatD h0 = net_.hidden(x0);
  linalg::MatD gram = linalg::matmul_at_b(h0, h0);

  double ridge = config().l2_delta;
  if (ridge > 0.0) {
    linalg::add_diagonal_inplace(gram, ridge);
    initial_ridge_used_ = ridge;
    p_ = linalg::inverse_spd(gram);
  } else {
    // Plain Eq. 7. With ReLU some hidden units can be dead on the initial
    // chunk, making the Gram matrix singular; escalate a tiny ridge until
    // the factorization succeeds and record what was used.
    initial_ridge_used_ = 0.0;
    auto factor = linalg::cholesky_decompose(gram);
    double jitter = 1e-10;
    while (!factor.spd && jitter < 1.0) {
      linalg::MatD jittered = gram;
      linalg::add_diagonal_inplace(jittered, jitter);
      factor = linalg::cholesky_decompose(jittered);
      if (factor.spd) {
        gram = jittered;
        initial_ridge_used_ = jitter;
        break;
      }
      jitter *= 10.0;
    }
    if (!factor.spd) {
      throw std::runtime_error("OsElm::init_train: Gram matrix singular");
    }
    p_ = linalg::inverse_spd(gram);
  }

  // inverse_spd builds its result column-by-column from Cholesky solves,
  // which is only approximately symmetric in floating point; the
  // sequential paths read "row i of P" as "column i of P" (exact symmetry
  // is their documented precondition, and check_invariants_now pins it),
  // so establish it here once.
  linalg::symmetrize_inplace(p_);

  // beta_0 = P_0 H_0^T t_0.
  net_.mutable_beta() = linalg::matmul(p_, linalg::matmul_at_b(h0, t0));
  initialized_ = true;
  seq_updates_since_check_ = 0;
  check_invariants_now();  // unsampled: init establishes the invariants
}

void OsElm::seq_train(const linalg::MatD& x, const linalg::MatD& t) {
  if (!initialized_) {
    throw std::logic_error("OsElm::seq_train: init_train has not run");
  }
  if (x.rows() != t.rows()) {
    throw std::invalid_argument("OsElm::seq_train: sample count mismatch");
  }
  if (t.cols() != config().output_dim) {
    throw std::invalid_argument("OsElm::seq_train: target width");
  }
  if (x.rows() == 1) {
    seq_train_one(x.row(0), t.row(0));
    return;
  }
  // General-k Eq. 5 on the kernel layer (dispatched dot/axpy + the
  // upper-triangle+mirror rank-k downdate), mirroring the k = 1 fast
  // path's structure instead of five dense GEMMs:
  //   U  = P H^T                       (n x k, as U^T rows for locality)
  //   S  = I + H U                     (k x k, exactly symmetric)
  //   K  = S^-1 (symmetrized)          (the k x k SPD solve, Cholesky)
  //   G  = U K                         (gain; P_new H^T == G, the same
  //                                     identity the scalar path uses)
  //   P -= G U^T                       (symmetric rank-k downdate)
  //   beta += G (t - H beta_old)
  const std::size_t k = x.rows();
  const std::size_t n = config().hidden_units;
  const std::size_t m = config().output_dim;
  const linalg::MatD h = net_.hidden(x);  // k x n

  // U^T: row c holds column c of U = P H^T; P is symmetric, so row i of P
  // doubles as column i and every entry is one contiguous kernel dot.
  linalg::MatD ut(k, n);
  for (std::size_t c = 0; c < k; ++c) {
    double* ut_row = ut.row_ptr(c);
    const double* h_row = h.row_ptr(c);
    for (std::size_t i = 0; i < n; ++i) {
      ut_row[i] = linalg::kernels::dot(p_.row_ptr(i), h_row, n);
    }
  }

  // S = I + H U, computed on the upper triangle and mirrored so the k x k
  // solve sees an exactly symmetric matrix.
  linalg::MatD inner(k, k);
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t c = r; c < k; ++c) {
      const double v =
          linalg::kernels::dot(h.row_ptr(r), ut.row_ptr(c), n);
      inner(r, c) = r == c ? v + 1.0 : v;
      inner(c, r) = inner(r, c);
    }
  }
  // S = I + H P H^T is SPD (P is), so Cholesky inverts it. Its column-
  // by-column solve is only approximately symmetric; re-symmetrize so
  // G U^T = U K U^T is symmetric by construction and the upper-triangle
  // downdate loses nothing.
  linalg::MatD kmat = linalg::inverse_spd(inner);
  linalg::symmetrize_inplace(kmat);

  // G^T = K U^T, accumulated row-wise with kernel axpys.
  linalg::MatD gt(k, n, 0.0);
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t d = 0; d < k; ++d) {
      linalg::kernels::axpy(gt.row_ptr(c), kmat(c, d), ut.row_ptr(d), n);
    }
  }

  // Residuals against beta_old BEFORE any beta row is touched.
  linalg::MatD& beta = net_.mutable_beta();
  linalg::MatD residual(k, m);
  for (std::size_t c = 0; c < k; ++c) {
    const double* h_row = h.row_ptr(c);
    if (m == 1) {
      residual(c, 0) =
          t(c, 0) - linalg::kernels::dot(h_row, beta.data(), n);
    } else {
      for (std::size_t o = 0; o < m; ++o) {
        double pred = 0.0;
        for (std::size_t i = 0; i < n; ++i) pred += h_row[i] * beta(i, o);
        residual(c, o) = t(c, o) - pred;
      }
    }
  }

  linalg::kernels::sym_rankk_downdate(p_.data(), n, gt.data(), ut.data(), k);

  // beta += G residual (the gain identity: P_new H^T == U K == G).
  for (std::size_t c = 0; c < k; ++c) {
    const double* g_row = gt.row_ptr(c);
    if (m == 1) {
      linalg::kernels::axpy(beta.data(), residual(c, 0), g_row, n);
    } else {
      for (std::size_t o = 0; o < m; ++o) {
        const double r = residual(c, o);
        for (std::size_t i = 0; i < n; ++i) beta(i, o) += g_row[i] * r;
      }
    }
  }
  check_invariants_sampled();
}

void OsElm::seq_train_one(const linalg::VecD& x, const linalg::VecD& t) {
  seq_train_one_forgetting(x, t, 1.0);
}

void OsElm::seq_train_one_forgetting(const linalg::VecD& x,
                                     const linalg::VecD& t, double lambda) {
  if (!initialized_) {
    throw std::logic_error("OsElm::seq_train_one: init_train has not run");
  }
  if (t.size() != config().output_dim) {
    throw std::invalid_argument("OsElm::seq_train_one: target width");
  }
  if (lambda <= 0.0 || lambda > 1.0) {
    throw std::invalid_argument("OsElm: forgetting factor outside (0, 1]");
  }
  net_.hidden_into(x, h_ws_);            // N (reused workspace, no alloc)
  linalg::matvec_into(p_, h_ws_, u_ws_);  // P h^T
  const linalg::VecD& h = h_ws_;
  const linalg::VecD& u = u_ws_;
  const double denom = lambda + linalg::dot(h, u);  // lambda + h P h^T
  const double inv = 1.0 / denom;
  const double p_scale = 1.0 / lambda;

  // P <- (P - u u^T / denom) / lambda  — rank-1 downdate + re-inflation.
  // P is symmetric positive-definite (Liang et al. 2006, Eq. 5), so the
  // kernel computes only the upper triangle and mirrors it down: half the
  // FLOPs of the seed's full-matrix sweep, and P stays exactly symmetric
  // instead of drifting by rounding.
  const std::size_t n = u.size();
  linalg::kernels::sym_rank1_update(p_.data(), n, u.data(), inv, p_scale);

  // beta += gain * (t - h beta) with gain = P_old h^T / denom == u / denom
  // (identical to the Kalman gain; independent of the re-inflation).
  linalg::MatD& beta = net_.mutable_beta();
  if (config().output_dim == 1) {
    // Q-network fast path: beta is one contiguous column.
    const double pred = linalg::kernels::dot(h.data(), beta.data(), n);
    const double err = (t[0] - pred) * inv;
    linalg::kernels::axpy(beta.data(), err, u.data(), n);
    check_invariants_sampled();
    return;
  }
  for (std::size_t c = 0; c < config().output_dim; ++c) {
    double pred = 0.0;
    for (std::size_t i = 0; i < n; ++i) pred += h[i] * beta(i, c);
    const double err = (t[c] - pred) * inv;
    for (std::size_t i = 0; i < n; ++i) beta(i, c) += u[i] * err;
  }
  check_invariants_sampled();
}

}  // namespace oselm::elm
