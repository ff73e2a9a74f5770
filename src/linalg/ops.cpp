#include "linalg/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "linalg/kernels.hpp"

namespace oselm::linalg {

namespace {

constexpr std::size_t kBlock = 64;  // fits L1 for double tiles

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

/// Serial i-k-j kernel over one row band [r0, r1); B is streamed row-wise
/// so the inner loop is unit-stride for both B and C.
void gemm_band(const MatD& a, const MatD& b, MatD& c, std::size_t r0,
               std::size_t r1) {
  const std::size_t k_dim = a.cols();
  const std::size_t n = b.cols();
  for (std::size_t i0 = r0; i0 < r1; i0 += kBlock) {
    const std::size_t i_end = std::min(i0 + kBlock, r1);
    for (std::size_t k0 = 0; k0 < k_dim; k0 += kBlock) {
      const std::size_t k_end = std::min(k0 + kBlock, k_dim);
      for (std::size_t i = i0; i < i_end; ++i) {
        double* c_row = c.row_ptr(i);
        const double* a_row = a.row_ptr(i);
        for (std::size_t k = k0; k < k_end; ++k) {
          const double a_ik = a_row[k];
          const double* b_row = b.row_ptr(k);
          for (std::size_t j = 0; j < n; ++j) c_row[j] += a_ik * b_row[j];
        }
      }
    }
  }
}

}  // namespace

MatD matmul(const MatD& a, const MatD& b) {
  require(a.cols() == b.rows(), "matmul: inner dimension mismatch");
  MatD c(a.rows(), b.cols());
  gemm_band(a, b, c, 0, a.rows());
  return c;
}

MatD matmul_at_b(const MatD& a, const MatD& b) {
  require(a.rows() == b.rows(), "matmul_at_b: row dimension mismatch");
  MatD c(a.cols(), b.cols());
  // C[i][j] = sum_k A[k][i] * B[k][j]; accumulate rank-1 updates row by row
  // of A/B so all accesses stay unit-stride.
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const double* a_row = a.row_ptr(k);
    const double* b_row = b.row_ptr(k);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double a_ki = a_row[i];
      if (a_ki == 0.0) continue;
      double* c_row = c.row_ptr(i);
      for (std::size_t j = 0; j < b.cols(); ++j) c_row[j] += a_ki * b_row[j];
    }
  }
  return c;
}

MatD matmul_a_bt(const MatD& a, const MatD& b) {
  require(a.cols() == b.cols(), "matmul_a_bt: column dimension mismatch");
  MatD c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* a_row = a.row_ptr(i);
    double* c_row = c.row_ptr(i);
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const double* b_row = b.row_ptr(j);
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a_row[k] * b_row[k];
      c_row[j] = acc;
    }
  }
  return c;
}

VecD matvec(const MatD& a, const VecD& x) {
  VecD y;
  matvec_into(a, x, y);
  return y;
}

void matvec_into(const MatD& a, const VecD& x, VecD& y) {
  require(a.cols() == x.size(), "matvec: dimension mismatch");
  y.assign(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    y[i] = kernels::dot(a.row_ptr(i), x.data(), a.cols());
  }
}

VecD matvec_t(const MatD& a, const VecD& x) {
  require(a.rows() == x.size(), "matvec_t: dimension mismatch");
  VecD y(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* row = a.row_ptr(i);
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += xi * row[j];
  }
  return y;
}

MatD add(const MatD& a, const MatD& b) {
  require(a.rows() == b.rows() && a.cols() == b.cols(),
          "add: shape mismatch");
  MatD c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    c.data()[i] = a.data()[i] + b.data()[i];
  }
  return c;
}

MatD sub(const MatD& a, const MatD& b) {
  require(a.rows() == b.rows() && a.cols() == b.cols(),
          "sub: shape mismatch");
  MatD c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    c.data()[i] = a.data()[i] - b.data()[i];
  }
  return c;
}

MatD scale(const MatD& a, double factor) {
  MatD c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) c.data()[i] = a.data()[i] * factor;
  return c;
}

void axpy_inplace(MatD& a, double alpha, const MatD& b) {
  require(a.rows() == b.rows() && a.cols() == b.cols(),
          "axpy_inplace: shape mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] += alpha * b.data()[i];
}

MatD outer(const VecD& u, const VecD& v) {
  MatD c(u.size(), v.size());
  for (std::size_t i = 0; i < u.size(); ++i) {
    double* row = c.row_ptr(i);
    const double ui = u[i];
    for (std::size_t j = 0; j < v.size(); ++j) row[j] = ui * v[j];
  }
  return c;
}

double dot(const VecD& u, const VecD& v) {
  require(u.size() == v.size(), "dot: length mismatch");
  return kernels::dot(u.data(), v.data(), u.size());
}

double norm2(const VecD& v) { return std::sqrt(dot(v, v)); }

void add_diagonal_inplace(MatD& a, double value) {
  const std::size_t n = std::min(a.rows(), a.cols());
  for (std::size_t i = 0; i < n; ++i) a(i, i) += value;
}

void symmetrize_inplace(MatD& a) {
  require(a.rows() == a.cols(), "symmetrize_inplace: matrix not square");
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = i + 1; j < a.cols(); ++j) {
      const double avg = 0.5 * (a(i, j) + a(j, i));
      a(i, j) = avg;
      a(j, i) = avg;
    }
  }
}

}  // namespace oselm::linalg
