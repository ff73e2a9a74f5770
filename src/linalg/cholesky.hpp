// Cholesky factorization for symmetric positive-definite systems.
//
// The ReOS-ELM initial training solves (H0^T H0 + delta*I) P0 = I; with
// delta > 0 that Gram matrix is SPD, so Cholesky is both the fastest and
// the most numerically honest factorization for Eq. 8.
#pragma once

#include "linalg/matrix.hpp"

namespace oselm::linalg {

struct CholeskyDecomposition {
  MatD l;            ///< lower-triangular factor, A = L L^T
  bool spd = true;   ///< false when a pivot went non-positive
};

/// Factorizes a symmetric matrix (only the lower triangle is read).
CholeskyDecomposition cholesky_decompose(const MatD& a);

/// Overwrites the lower triangle of a square matrix with its factor L
/// (A = L L^T), allocating nothing; the strict upper triangle is neither
/// read nor written. Returns false, leaving `a` partly factored, when a
/// pivot is not positive.
bool cholesky_factor_inplace(MatD& a);

/// Solves A x = b given a successful factorization.
VecD cholesky_solve(const CholeskyDecomposition& f, const VecD& b);

/// Inverse of an SPD matrix; throws std::runtime_error when not SPD.
MatD inverse_spd(const MatD& a);

}  // namespace oselm::linalg
