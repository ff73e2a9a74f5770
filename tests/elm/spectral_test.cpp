#include "elm/spectral.hpp"

#include <gtest/gtest.h>

#include "elm/elm.hpp"
#include "linalg/svd.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace oselm::elm {
namespace {

using test_support::random_matrix;

TEST(SpectralNormalize, ResultHasUnitSigmaMax) {
  // Algorithm 1 lines 2-3: alpha <- alpha / sigma_max(alpha).
  util::Rng rng(2);
  linalg::MatD alpha = random_matrix(5, 64, rng);
  const double sigma_before = linalg::largest_singular_value(alpha);
  const double reported = spectral_normalize_inplace(alpha);
  EXPECT_NEAR(reported, sigma_before, 1e-10);
  EXPECT_NEAR(linalg::largest_singular_value(alpha), 1.0, 1e-9);
}

TEST(SpectralNormalize, ZeroMatrixIsNoOp) {
  linalg::MatD zeros(3, 3);
  EXPECT_DOUBLE_EQ(spectral_normalize_inplace(zeros), 0.0);
  EXPECT_TRUE(linalg::approx_equal(zeros, linalg::MatD(3, 3), 0.0));
}

TEST(SpectralNormalize, DirectionIsPreserved) {
  util::Rng rng(5);
  linalg::MatD alpha = random_matrix(4, 8, rng);
  const linalg::MatD before = alpha;
  const double sigma = spectral_normalize_inplace(alpha);
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    EXPECT_NEAR(alpha.data()[i] * sigma, before.data()[i], 1e-10);
  }
}

TEST(LipschitzBound, ProductOfSigmas) {
  const linalg::MatD a = linalg::MatD::diagonal({2.0, 1.0});
  const linalg::MatD b = linalg::MatD::diagonal({3.0, 0.5});
  EXPECT_NEAR(lipschitz_upper_bound(a, b), 6.0, 1e-9);
}

TEST(LipschitzBound, NetworkOutputsRespectTheBound) {
  // Empirical check of Eq. 10: |f(x1) - f(x2)| <= K |x1 - x2| with
  // K = sigma_max(alpha) * sigma_max(beta) for the ReLU SLFN.
  util::Rng rng(6);
  ElmConfig cfg;
  cfg.input_dim = 4;
  cfg.hidden_units = 24;
  cfg.output_dim = 1;
  Elm net(cfg, rng);
  // Spectral-normalize alpha like the Lipschitz designs do.
  spectral_normalize_inplace(net.mutable_alpha());
  const double k = lipschitz_upper_bound(net.alpha(), net.beta());

  for (int trial = 0; trial < 200; ++trial) {
    linalg::VecD x1(4);
    linalg::VecD x2(4);
    rng.fill_uniform(x1, -2.0, 2.0);
    rng.fill_uniform(x2, -2.0, 2.0);
    const double dy =
        std::abs(net.predict_one(x1)[0] - net.predict_one(x2)[0]);
    double dx = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
      dx += (x1[i] - x2[i]) * (x1[i] - x2[i]);
    }
    dx = std::sqrt(dx);
    EXPECT_LE(dy, k * dx + 1e-9) << trial;
  }
}

TEST(LipschitzBound, NormalizedAlphaCapsConstantAtSigmaBeta) {
  // §3.3's conclusion: with sigma_max(alpha) == 1 the network constant is
  // bounded by sigma_max(beta) alone.
  util::Rng rng(7);
  linalg::MatD alpha = random_matrix(5, 32, rng);
  spectral_normalize_inplace(alpha);
  const linalg::MatD beta = random_matrix(32, 1, rng);
  const double bound = lipschitz_upper_bound(alpha, beta);
  EXPECT_NEAR(bound, linalg::largest_singular_value(beta), 1e-9);
}

}  // namespace
}  // namespace oselm::elm
