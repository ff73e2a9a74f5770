// Spectral normalization and Lipschitz-constant utilities (§2.5, §3.3).
//
// Algorithm 1 lines 2-3: alpha is divided by its largest singular value at
// initialization, capping the input layer's Lipschitz constant at 1. With
// a 1-Lipschitz activation the whole network's constant is then bounded by
// sigma_max(beta), which the L2 regularization in turn suppresses
// (Relation 13: sigma_max(A) <= ||A||_F).
#pragma once

#include "linalg/matrix.hpp"

namespace oselm::elm {

/// Divides `m` by sigma_max(m) in place, with sigma_max computed exactly
/// by the one-sided Jacobi SVD (Algorithm 1 line 2); returns the sigma
/// used. No-op (returns 0) for an all-zero matrix.
double spectral_normalize_inplace(linalg::MatD& m);

/// Upper bound on the Lipschitz constant of a single-hidden-layer network
/// with 1-Lipschitz activation: sigma_max(alpha) * sigma_max(beta).
double lipschitz_upper_bound(const linalg::MatD& alpha,
                             const linalg::MatD& beta);

}  // namespace oselm::elm
