// Huber loss (Eq. 14-15): quadratic inside |x - y| < 1, linear outside.
// Used by the DQN baseline; mean-reduced over the batch like PyTorch's
// SmoothL1Loss, with the 1/n factor folded into the returned gradient.
#pragma once

#include "linalg/matrix.hpp"

namespace oselm::nn {

struct HuberResult {
  double loss = 0.0;
  linalg::MatD grad;  ///< dLoss/dPred, same shape as the predictions
};

/// Scalar Huber term z_i (Eq. 15) for a single residual.
double huber_term(double prediction, double target) noexcept;

/// Mean-reduced Huber loss over equally shaped matrices.
HuberResult huber_loss_mean(const linalg::MatD& predictions,
                            const linalg::MatD& targets);

/// huber_loss_mean writing dLoss/dPred into a caller-owned matrix
/// (resized, reusing its capacity); returns the loss.
double huber_loss_mean_into(const linalg::MatD& predictions,
                            const linalg::MatD& targets, linalg::MatD& grad);

}  // namespace oselm::nn
