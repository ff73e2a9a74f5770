// Core dense operations. The double-precision GEMM is cache-blocked and
// serial; generic element-wise helpers are header templates.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace oselm::linalg {

/// C = A * B (shapes (m,k)x(k,n)), cache-blocked i-k-j.
MatD matmul(const MatD& a, const MatD& b);

/// C = A^T * B without materializing A^T.
MatD matmul_at_b(const MatD& a, const MatD& b);

/// C = A * B^T without materializing B^T.
MatD matmul_a_bt(const MatD& a, const MatD& b);

/// y = A * x (matrix-vector product).
VecD matvec(const MatD& a, const VecD& x);

/// y = A * x into a caller-owned vector (resized to a.rows(), reusing its
/// capacity — allocation-free in steady state). `y` must not alias `x`.
void matvec_into(const MatD& a, const VecD& x, VecD& y);

/// y = A^T * x.
VecD matvec_t(const MatD& a, const VecD& x);

/// Element-wise sum / difference / scale.
MatD add(const MatD& a, const MatD& b);
MatD sub(const MatD& a, const MatD& b);
MatD scale(const MatD& a, double factor);

/// A += alpha * B in place.
void axpy_inplace(MatD& a, double alpha, const MatD& b);

/// Outer product column * row -> (u.size() x v.size()).
MatD outer(const VecD& u, const VecD& v);

/// Dot product of two equal-length vectors.
double dot(const VecD& u, const VecD& v);

/// Euclidean norm of a vector.
double norm2(const VecD& v);

/// Adds `value` to every diagonal element in place (A += value*I).
void add_diagonal_inplace(MatD& a, double value);

/// (A + A^T)/2, used to keep the OS-ELM P matrix numerically symmetric.
void symmetrize_inplace(MatD& a);

}  // namespace oselm::linalg
