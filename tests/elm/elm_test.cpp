#include "elm/elm.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/ops.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace oselm::elm {
namespace {

ElmConfig small_config(std::size_t input = 3, std::size_t hidden = 24,
                       std::size_t output = 2) {
  ElmConfig cfg;
  cfg.input_dim = input;
  cfg.hidden_units = hidden;
  cfg.output_dim = output;
  return cfg;
}

using test_support::random_matrix;

TEST(ElmConfig, ValidationCatchesBadValues) {
  ElmConfig cfg = small_config();
  cfg.input_dim = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config();
  cfg.hidden_units = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config();
  cfg.output_dim = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config();
  cfg.l2_delta = -0.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config();
  cfg.init_low = 1.0;
  cfg.init_high = 1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Elm, InitializationShapesAndRange) {
  util::Rng rng(1);
  ElmConfig cfg = small_config(4, 16, 1);
  cfg.init_low = 0.0;
  cfg.init_high = 1.0;  // Algorithm 1's R in [0, 1]
  Elm net(cfg, rng);
  EXPECT_EQ(net.alpha().rows(), 4u);
  EXPECT_EQ(net.alpha().cols(), 16u);
  EXPECT_EQ(net.bias().size(), 16u);
  EXPECT_EQ(net.beta().rows(), 16u);
  EXPECT_EQ(net.beta().cols(), 1u);
  EXPECT_FALSE(net.trained());
  for (std::size_t i = 0; i < net.alpha().size(); ++i) {
    EXPECT_GE(net.alpha().data()[i], 0.0);
    EXPECT_LT(net.alpha().data()[i], 1.0);
  }
}

TEST(Elm, HiddenAppliesReluAndBias) {
  util::Rng rng(2);
  Elm net(small_config(2, 8, 1), rng);
  const linalg::MatD x{{0.3, -0.7}};
  const linalg::MatD h = net.hidden(x);
  ASSERT_EQ(h.rows(), 1u);
  ASSERT_EQ(h.cols(), 8u);
  for (std::size_t j = 0; j < 8; ++j) {
    double pre = net.bias()[j];
    pre += 0.3 * net.alpha()(0, j) - 0.7 * net.alpha()(1, j);
    EXPECT_NEAR(h(0, j), std::max(0.0, pre), 1e-12);
  }
}

TEST(Elm, HiddenOneMatchesBatchRow) {
  util::Rng rng(3);
  Elm net(small_config(5, 32, 1), rng);
  linalg::VecD x(5);
  rng.fill_uniform(x, -1.0, 1.0);
  const linalg::VecD h1 = net.hidden_one(x);
  const linalg::MatD hb = net.hidden(linalg::MatD::row_vector(x));
  for (std::size_t j = 0; j < 32; ++j) EXPECT_NEAR(h1[j], hb(0, j), 1e-12);
}

TEST(Elm, InterpolatesWhenHiddenUnitsMatchSamples) {
  // Classic ELM property (Eq. 2-3): a network whose H has full row rank
  // fits its N training targets exactly. Huang et al.'s N-units theorem
  // needs an analytic activation; with ReLU, dead units can leave a
  // square H rank-deficient, so this fit uses 4N units (residuals over
  // seeds 4-12 stay below 1e-7, the normal equations' 1e-9 ridge).
  util::Rng rng(4);
  const std::size_t n_samples = 20;
  Elm net(small_config(3, 4 * n_samples, 1), rng);
  const linalg::MatD x = random_matrix(n_samples, 3, rng);
  const linalg::MatD t = random_matrix(n_samples, 1, rng);
  net.train_batch(x, t);
  EXPECT_TRUE(net.trained());
  const linalg::MatD pred = net.predict(x);
  EXPECT_LT(linalg::max_abs_diff(pred, t), 1e-6);
}

TEST(Elm, OverdeterminedFitIsLeastSquares) {
  util::Rng rng(5);
  Elm net(small_config(2, 8, 1), rng);
  const linalg::MatD x = random_matrix(100, 2, rng);
  // Targets from a noiseless linear function are approximable.
  linalg::MatD t(100, 1);
  for (std::size_t i = 0; i < 100; ++i) {
    t(i, 0) = 0.5 * x(i, 0) - 0.25 * x(i, 1);
  }
  net.train_batch(x, t);
  const linalg::MatD pred = net.predict(x);
  double mse = 0.0;
  for (std::size_t i = 0; i < 100; ++i) {
    mse += (pred(i, 0) - t(i, 0)) * (pred(i, 0) - t(i, 0));
  }
  EXPECT_LT(mse / 100.0, 0.05);
}

TEST(Elm, L2RegularizationShrinksBeta) {
  util::Rng rng(6);
  const linalg::MatD x = random_matrix(40, 3, rng);
  const linalg::MatD t = random_matrix(40, 1, rng);

  ElmConfig plain = small_config(3, 40, 1);
  util::Rng rng_a(7);
  Elm net_plain(plain, rng_a);
  net_plain.train_batch(x, t);

  ElmConfig ridged = plain;
  ridged.l2_delta = 10.0;
  util::Rng rng_b(7);  // identical random weights
  Elm net_ridged(ridged, rng_b);
  net_ridged.train_batch(x, t);

  // Frobenius norm: the L2 weight norm of Relation 13.
  const auto frobenius = [](const linalg::MatD& m) {
    double sum = 0.0;
    for (const double v : m.storage()) sum += v * v;
    return std::sqrt(sum);
  };
  EXPECT_LT(frobenius(net_ridged.beta()), frobenius(net_plain.beta()));
}

TEST(Elm, PredictOneMatchesBatchPredict) {
  util::Rng rng(8);
  Elm net(small_config(4, 16, 3), rng);
  const linalg::MatD x = random_matrix(6, 4, rng);
  const linalg::MatD t = random_matrix(6, 3, rng);
  net.train_batch(x, t);
  const linalg::MatD batch = net.predict(x);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const linalg::VecD one = net.predict_one(x.row(r));
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(one[c], batch(r, c), 1e-12);
    }
  }
}

TEST(Elm, ReinitializeChangesWeightsAndClearsTraining) {
  util::Rng rng(9);
  Elm net(small_config(), rng);
  const linalg::MatD x = random_matrix(24, 3, rng);
  const linalg::MatD t = random_matrix(24, 2, rng);
  net.train_batch(x, t);
  const linalg::MatD alpha_before = net.alpha();
  net.reinitialize(rng);
  EXPECT_FALSE(net.trained());
  EXPECT_GT(linalg::max_abs_diff(alpha_before, net.alpha()), 1e-6);
}

TEST(Elm, TrainBatchValidatesShapes) {
  util::Rng rng(10);
  Elm net(small_config(3, 8, 2), rng);
  EXPECT_THROW(net.train_batch(linalg::MatD(4, 3), linalg::MatD(5, 2)),
               std::invalid_argument);
  EXPECT_THROW(net.train_batch(linalg::MatD(4, 3), linalg::MatD(4, 1)),
               std::invalid_argument);
  EXPECT_THROW(net.hidden(linalg::MatD(4, 7)), std::invalid_argument);
  EXPECT_THROW(net.hidden_one(linalg::VecD(2)), std::invalid_argument);
}

TEST(Elm, AlphaIsFrozenByTraining) {
  // The defining ELM property (§2.1): training touches only beta.
  util::Rng rng(11);
  Elm net(small_config(), rng);
  const linalg::MatD alpha_before = net.alpha();
  const linalg::VecD bias_before = net.bias();
  const linalg::MatD x = random_matrix(24, 3, rng);
  const linalg::MatD t = random_matrix(24, 2, rng);
  net.train_batch(x, t);
  EXPECT_TRUE(net.alpha() == alpha_before);
  EXPECT_TRUE(net.bias() == bias_before);
}

}  // namespace
}  // namespace oselm::elm
