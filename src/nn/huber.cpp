#include "nn/huber.hpp"

#include <cmath>
#include <stdexcept>

namespace oselm::nn {

double huber_term(double prediction, double target) noexcept {
  const double diff = prediction - target;
  const double abs_diff = std::abs(diff);
  if (abs_diff < 1.0) return 0.5 * diff * diff;
  return abs_diff - 0.5;
}

HuberResult huber_loss_mean(const linalg::MatD& predictions,
                            const linalg::MatD& targets) {
  HuberResult result;
  result.loss = huber_loss_mean_into(predictions, targets, result.grad);
  return result;
}

double huber_loss_mean_into(const linalg::MatD& predictions,
                            const linalg::MatD& targets,
                            linalg::MatD& grad) {
  if (predictions.rows() != targets.rows() ||
      predictions.cols() != targets.cols()) {
    throw std::invalid_argument("huber_loss_mean: shape mismatch");
  }
  const auto n = static_cast<double>(predictions.size());
  if (predictions.size() == 0) {
    throw std::invalid_argument("huber_loss_mean: empty input");
  }

  grad.resize(predictions.rows(), predictions.cols());
  double total = 0.0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    const double diff = predictions.data()[i] - targets.data()[i];
    const double abs_diff = std::abs(diff);
    if (abs_diff < 1.0) {
      total += 0.5 * diff * diff;
      grad.data()[i] = diff / n;
    } else {
      total += abs_diff - 0.5;
      grad.data()[i] = (diff > 0.0 ? 1.0 : -1.0) / n;
    }
  }
  return total / n;
}

}  // namespace oselm::nn
