#include "linalg/cholesky.hpp"

#include <cmath>
#include <stdexcept>

namespace oselm::linalg {

CholeskyDecomposition cholesky_decompose(const MatD& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("cholesky_decompose: matrix not square");
  }
  const std::size_t n = a.rows();
  CholeskyDecomposition f{MatD(n, n), true};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) f.l(i, j) = a(i, j);
  }
  f.spd = cholesky_factor_inplace(f.l);
  return f;
}

bool cholesky_factor_inplace(MatD& a) {
  const std::size_t n = a.rows();
  for (std::size_t i = 0; i < n; ++i) {
    double* li = a.row_ptr(i);
    for (std::size_t j = 0; j <= i; ++j) {
      const double* lj = a.row_ptr(j);
      double acc = li[j];
      for (std::size_t k = 0; k < j; ++k) acc -= li[k] * lj[k];
      if (i == j) {
        if (acc <= 0.0) return false;
        li[j] = std::sqrt(acc);
      } else {
        li[j] = acc / lj[j];
      }
    }
  }
  return true;
}

VecD cholesky_solve(const CholeskyDecomposition& f, const VecD& b) {
  const std::size_t n = f.l.rows();
  if (!f.spd) throw std::runtime_error("cholesky_solve: matrix not SPD");
  if (b.size() != n) {
    throw std::invalid_argument("cholesky_solve: size mismatch");
  }
  VecD y(n);
  // L y = b
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    const double* row = f.l.row_ptr(i);
    for (std::size_t j = 0; j < i; ++j) acc -= row[j] * y[j];
    y[i] = acc / row[i];
  }
  // L^T x = y
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= f.l(j, ii) * y[j];
    y[ii] = acc / f.l(ii, ii);
  }
  return y;
}

MatD inverse_spd(const MatD& a) {
  const auto f = cholesky_decompose(a);
  if (!f.spd) throw std::runtime_error("inverse_spd: matrix not SPD");
  const std::size_t n = a.rows();
  MatD inv(n, n);
  VecD e(n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    e[c] = 1.0;
    const VecD col = cholesky_solve(f, e);
    for (std::size_t r = 0; r < n; ++r) inv(r, c) = col[r];
    e[c] = 0.0;
  }
  return inv;
}

}  // namespace oselm::linalg
