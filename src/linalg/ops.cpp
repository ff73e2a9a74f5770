#include "linalg/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <stdexcept>

#include "linalg/kernels.hpp"

namespace oselm::linalg {

namespace {

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

// One GEMM for all three operand layouts: C = op(A) op(B), where op
// transposes A for matmul_at_b and B for matmul_a_bt.
//
// Register tiling: an MR-row by NR-column block of C accumulates in
// registers while k advances, so each C element costs one load and one
// store per k block instead of one per k. The arithmetic is the textbook
// triple loop's: every C element is summed from 0.0 in ascending k, one
// multiply and one add per term. The library is compiled with
// -ffp-contract=off, so no multiply-add is fused and the tiled result is
// bit-identical to the plain loop. The GEMM deliberately bypasses the
// kernel dispatcher, whose SIMD axpy fuses.
enum class Layout { kAB, kAtB, kABt };

// Two adjacent C columns in one SSE2/NEON register (the GCC/Clang vector
// extension). Its element-wise * and + round exactly like the scalar
// operators; spelling the lanes out keeps the compiler from vectorizing
// across k instead.
typedef double Pair __attribute__((vector_size(2 * sizeof(double))));

/// C columns held by one accumulator of type G: 2 for a Pair, 1 for the
/// double of a last odd column.
template <typename G>
constexpr std::size_t kWidth = sizeof(G) / sizeof(double);

constexpr std::size_t kKc = 256;  // k block: a kKc x 4 B strip stays in L1

struct Operands {
  const double* a;
  std::size_t lda;
  const double* b;
  std::size_t ldb;
  double* c;
  std::size_t ldc;
};

template <typename G>
G load_group(const double* p) {
  G v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <typename G>
void store_group(double* p, const G& v) {
  std::memcpy(p, &v, sizeof v);
}

template <typename G>
G splat(double x) {
  if constexpr (kWidth<G> == 1) {
    return x;
  } else {
    return G{x, x};
  }
}

/// B(k, j .. j + width) as one group.
template <Layout L, typename G>
G load_b(const Operands& o, std::size_t k, std::size_t j) {
  if constexpr (L != Layout::kABt) {
    return load_group<G>(o.b + k * o.ldb + j);
  } else if constexpr (kWidth<G> == 1) {
    return o.b[j * o.ldb + k];
  } else {
    return G{o.b[j * o.ldb + k], o.b[(j + 1) * o.ldb + k]};
  }
}

/// One MR x (W groups) tile of C over k in [k0, k1). The first k block
/// starts from 0.0; later blocks resume from the partial sums in C.
template <Layout L, std::size_t MR, typename G, std::size_t W>
void gemm_tile(const Operands& o, std::size_t i, std::size_t j,
               std::size_t k0, std::size_t k1) {
  constexpr std::size_t kCols = kWidth<G>;
  G acc[MR][W];
  for (std::size_t r = 0; r < MR; ++r) {
    for (std::size_t w = 0; w < W; ++w) {
      acc[r][w] = k0 == 0 ? G{}
                          : load_group<G>(o.c + (i + r) * o.ldc + j +
                                          w * kCols);
    }
  }
  for (std::size_t k = k0; k < k1; ++k) {
    G bv[W];
    for (std::size_t w = 0; w < W; ++w) {
      bv[w] = load_b<L, G>(o, k, j + w * kCols);
    }
    for (std::size_t r = 0; r < MR; ++r) {
      const G av = splat<G>(L == Layout::kAtB ? o.a[k * o.lda + i + r]
                                              : o.a[(i + r) * o.lda + k]);
      for (std::size_t w = 0; w < W; ++w) {
        if constexpr (L == Layout::kAtB) {
          // matmul_at_b skips the terms of a zero A element (so 0 * inf
          // adds nothing); adding +0.0 leaves the sum unchanged.
          acc[r][w] += av != G{} ? av * bv[w] : G{};
        } else {
          acc[r][w] += av * bv[w];
        }
      }
    }
  }
  for (std::size_t r = 0; r < MR; ++r) {
    for (std::size_t w = 0; w < W; ++w) {
      store_group(o.c + (i + r) * o.ldc + j + w * kCols, acc[r][w]);
    }
  }
}

/// Columns [j, j + W * width) of C over one k block: tiles of MR rows,
/// then the leftover rows one at a time.
template <Layout L, std::size_t MR, typename G, std::size_t W>
void gemm_strip(const Operands& o, std::size_t m, std::size_t j,
                std::size_t k0, std::size_t k1) {
  std::size_t i = 0;
  for (; i + MR <= m; i += MR) gemm_tile<L, MR, G, W>(o, i, j, k0, k1);
  for (; i < m; ++i) gemm_tile<L, 1, G, W>(o, i, j, k0, k1);
}

/// C (m x n, resized) = op(A) op(B) with inner dimension `inner`: strips
/// of four columns, then one of two, then a last single column.
template <Layout L>
void gemm(const MatD& a, const MatD& b, MatD& c, std::size_t m,
          std::size_t n, std::size_t inner) {
  require(&c != &a && &c != &b, "matmul: output aliases an input");
  c.resize(m, n);
  if (inner == 0) {
    c.fill(0.0);
    return;
  }
  const Operands o{a.data(), a.cols(), b.data(), b.cols(), c.data(), n};
  for (std::size_t k0 = 0; k0 < inner; k0 += kKc) {
    const std::size_t k1 = std::min(k0 + kKc, inner);
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) gemm_strip<L, 4, Pair, 2>(o, m, j, k0, k1);
    if (j + 2 <= n) {
      gemm_strip<L, 8, Pair, 1>(o, m, j, k0, k1);
      j += 2;
    }
    if (j < n) gemm_strip<L, 8, double, 1>(o, m, j, k0, k1);
  }
}

}  // namespace

void matmul_into(const MatD& a, const MatD& b, MatD& c) {
  require(a.cols() == b.rows(), "matmul: inner dimension mismatch");
  gemm<Layout::kAB>(a, b, c, a.rows(), b.cols(), a.cols());
}

void matmul_at_b_into(const MatD& a, const MatD& b, MatD& c) {
  require(a.rows() == b.rows(), "matmul_at_b: row dimension mismatch");
  gemm<Layout::kAtB>(a, b, c, a.cols(), b.cols(), a.rows());
}

void matmul_a_bt_into(const MatD& a, const MatD& b, MatD& c) {
  require(a.cols() == b.cols(), "matmul_a_bt: column dimension mismatch");
  gemm<Layout::kABt>(a, b, c, a.rows(), b.rows(), a.cols());
}

MatD matmul(const MatD& a, const MatD& b) {
  MatD c;
  matmul_into(a, b, c);
  return c;
}

MatD matmul_at_b(const MatD& a, const MatD& b) {
  MatD c;
  matmul_at_b_into(a, b, c);
  return c;
}

MatD matmul_a_bt(const MatD& a, const MatD& b) {
  MatD c;
  matmul_a_bt_into(a, b, c);
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
  VecD y;
  matvec_t_into(a, x, y);
  return y;
}

void matvec_t_into(const MatD& a, const VecD& x, VecD& y) {
  require(a.rows() == x.size(), "matvec_t: dimension mismatch");
  y.assign(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* row = a.row_ptr(i);
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += xi * row[j];
  }
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
