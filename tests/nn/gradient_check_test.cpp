// Finite-difference gradient checks: backprop through the DQN's MLP +
// Huber loss must match numerical derivatives for every parameter tensor.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "nn/huber.hpp"
#include "nn/mlp.hpp"
#include "util/rng.hpp"

namespace oselm::nn {
namespace {

constexpr double kEps = 1e-6;
constexpr double kTol = 1e-5;

struct GradCheckCase {
  std::size_t input_dim;
  std::size_t hidden;
  std::size_t output_dim;
  std::size_t batch;
  std::uint64_t seed;
};

/// Names each case's test ID by its shape and seed.
void PrintTo(const GradCheckCase& c, std::ostream* os) {
  *os << "in" << c.input_dim << "_hidden" << c.hidden << "_out"
      << c.output_dim << "_batch" << c.batch << "_seed" << c.seed;
}

class GradientCheck : public ::testing::TestWithParam<GradCheckCase> {
 protected:
  /// Loss as a pure function of the current parameters.
  static double loss_value(const Mlp& net, const linalg::MatD& x,
                           const linalg::MatD& t) {
    MlpCache cache;
    // forward_cached is const; use a copy of the net for clarity.
    const linalg::MatD out = net.forward_cached(x, cache);
    return huber_loss_mean(out, t).loss;
  }

  /// Central finite difference on one scalar parameter.
  static double numeric_grad(Mlp& net, double* param, const linalg::MatD& x,
                             const linalg::MatD& t) {
    const double saved = *param;
    *param = saved + kEps;
    const double plus = loss_value(net, x, t);
    *param = saved - kEps;
    const double minus = loss_value(net, x, t);
    *param = saved;
    return (plus - minus) / (2.0 * kEps);
  }
};

TEST_P(GradientCheck, AllParameterTensorsMatchFiniteDifferences) {
  const GradCheckCase& c = GetParam();
  util::Rng rng(c.seed);
  Mlp net(MlpConfig{c.input_dim, c.hidden, c.output_dim}, rng);

  linalg::MatD x(c.batch, c.input_dim);
  linalg::MatD t(c.batch, c.output_dim);
  rng.fill_uniform(x.storage(), -1.0, 1.0);
  rng.fill_uniform(t.storage(), -1.5, 1.5);  // exercise both Huber regimes

  MlpCache cache;
  const linalg::MatD out = net.forward_cached(x, cache);
  const HuberResult loss = huber_loss_mean(out, t);
  const MlpGradients grads = net.backward(cache, loss.grad);

  // Spot-check a deterministic subset of each tensor (full sweeps on the
  // largest case would be slow without adding coverage).
  const auto check_tensor = [&](double* params, const double* analytic,
                                std::size_t count, const char* label) {
    const std::size_t stride = std::max<std::size_t>(1, count / 25);
    for (std::size_t i = 0; i < count; i += stride) {
      const double numeric = numeric_grad(net, params + i, x, t);
      EXPECT_NEAR(analytic[i], numeric, kTol)
          << label << "[" << i << "]";
    }
  };

  check_tensor(net.mutable_w1().data(), grads.w1.data(), grads.w1.size(),
               "w1");
  check_tensor(net.mutable_b1().data(), grads.b1.data(), grads.b1.size(),
               "b1");
  check_tensor(net.mutable_w2().data(), grads.w2.data(), grads.w2.size(),
               "w2");
  check_tensor(net.mutable_b2().data(), grads.b2.data(), grads.b2.size(),
               "b2");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GradientCheck,
    ::testing::Values(GradCheckCase{2, 4, 1, 1, 11},
                      GradCheckCase{4, 16, 2, 8, 12},   // CartPole DQN shape
                      GradCheckCase{4, 32, 2, 32, 13},  // paper batch size
                      GradCheckCase{6, 8, 3, 5, 14},
                      GradCheckCase{1, 2, 1, 2, 15}));

TEST(GradientCheck, MaskedTargetGradientFlowsOnlyThroughTakenAction) {
  // DQN-style masking: when targets equal predictions except at one
  // action, the other action's output gradient must be exactly zero.
  util::Rng rng(16);
  Mlp net(MlpConfig{4, 8, 2}, rng);
  linalg::MatD x(1, 4);
  rng.fill_uniform(x.storage(), -1.0, 1.0);
  MlpCache cache;
  const linalg::MatD out = net.forward_cached(x, cache);
  linalg::MatD targets = out;
  targets(0, 1) = out(0, 1) + 0.5;  // only action 1 has an error
  const HuberResult loss = huber_loss_mean(out, targets);
  EXPECT_DOUBLE_EQ(loss.grad(0, 0), 0.0);
  EXPECT_NE(loss.grad(0, 1), 0.0);
}

}  // namespace
}  // namespace oselm::nn
