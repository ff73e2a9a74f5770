// LU decomposition with partial pivoting: solves, inverse, determinant.
// Its product use is the inverse of the k x k S = I + H P H^T in OsElm's
// chunked sequential update (initial training uses Cholesky instead).
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"

namespace oselm::linalg {

/// Compact LU factorization PA = LU (L unit-diagonal, stored in one matrix).
struct LuDecomposition {
  MatD lu;                        ///< L below diagonal, U on/above
  std::vector<std::size_t> perm; ///< row permutation (P)
  int sign = 1;                   ///< permutation parity (for determinant)
  bool singular = false;          ///< true when a pivot underflowed
};

/// Factorizes a square matrix. Never throws on singularity; check the flag.
LuDecomposition lu_decompose(const MatD& a);

/// Solves A x = b given the factorization (b length == order).
VecD lu_solve(const LuDecomposition& f, const VecD& b);

/// Solves A X = B column-by-column.
MatD lu_solve_matrix(const LuDecomposition& f, const MatD& b);

/// Inverse via LU; throws std::runtime_error when singular.
MatD inverse(const MatD& a);

/// Determinant via LU (0 when singular).
double determinant(const MatD& a);

}  // namespace oselm::linalg
