// Core dense operations. The double-precision GEMM is register-tiled and
// serial, and sums every element in ascending k with unfused multiplies
// and adds, so its results are bit-identical to the plain triple loop.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace oselm::linalg {

/// C = A * B (shapes (m,k)x(k,n)).
MatD matmul(const MatD& a, const MatD& b);

/// C = A^T * B without materializing A^T. Terms whose A element is zero
/// are skipped.
MatD matmul_at_b(const MatD& a, const MatD& b);

/// C = A * B^T without materializing B^T.
MatD matmul_a_bt(const MatD& a, const MatD& b);

/// The same three products into a caller-owned matrix, resized to the
/// result shape and reusing its capacity (allocation-free in steady
/// state). `c` must not alias `a` or `b`.
void matmul_into(const MatD& a, const MatD& b, MatD& c);
void matmul_at_b_into(const MatD& a, const MatD& b, MatD& c);
void matmul_a_bt_into(const MatD& a, const MatD& b, MatD& c);

/// y = A * x (matrix-vector product).
VecD matvec(const MatD& a, const VecD& x);

/// y = A * x into a caller-owned vector (resized to a.rows(), reusing its
/// capacity — allocation-free in steady state). `y` must not alias `x`.
void matvec_into(const MatD& a, const VecD& x, VecD& y);

/// y = A^T * x.
VecD matvec_t(const MatD& a, const VecD& x);

/// y = A^T * x into a caller-owned vector (resized to a.cols()). `y` must
/// not alias `x`.
void matvec_t_into(const MatD& a, const VecD& x, VecD& y);

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
