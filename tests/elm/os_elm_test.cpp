#include "elm/os_elm.hpp"

#include <gtest/gtest.h>

#include "linalg/ops.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace oselm::elm {
namespace {

using test_support::config_for;
using test_support::random_matrix;

TEST(OsElm, SeqTrainBeforeInitThrows) {
  util::Rng rng(1);
  OsElm net(config_for(3, 8, 1), rng);
  EXPECT_FALSE(net.initialized());
  EXPECT_THROW(net.seq_train_one({1.0, 2.0, 3.0}, {0.5}), std::logic_error);
  EXPECT_THROW(net.seq_train(linalg::MatD(2, 3), linalg::MatD(2, 1)),
               std::logic_error);
}

TEST(OsElm, InitTrainEstablishesPAndBeta) {
  util::Rng rng(2);
  OsElm net(config_for(3, 8, 1, 0.1), rng);
  const linalg::MatD x = random_matrix(16, 3, rng);
  const linalg::MatD t = random_matrix(16, 1, rng);
  net.init_train(x, t);
  EXPECT_TRUE(net.initialized());
  EXPECT_EQ(net.p().rows(), 8u);
  EXPECT_EQ(net.p().cols(), 8u);
  EXPECT_EQ(net.beta().rows(), 8u);
}

TEST(OsElm, InitTrainMatchesEq8ClosedForm) {
  util::Rng rng(3);
  OsElm net(config_for(4, 10, 2, 0.5), rng);
  const linalg::MatD x = random_matrix(30, 4, rng);
  const linalg::MatD t = random_matrix(30, 2, rng);
  net.init_train(x, t);

  // Recompute P0 and beta0 directly from Eq. 8.
  const linalg::MatD h0 = net.hidden(x);
  linalg::MatD gram = linalg::matmul_at_b(h0, h0);
  linalg::add_diagonal_inplace(gram, 0.5);
  // P0 * gram == I.
  EXPECT_TRUE(linalg::approx_equal(linalg::matmul(net.p(), gram),
                                   linalg::MatD::identity(10), 1e-8));
  const linalg::MatD beta0 =
      linalg::matmul(net.p(), linalg::matmul_at_b(h0, t));
  EXPECT_TRUE(linalg::approx_equal(net.beta(), beta0, 1e-9));
}

TEST(OsElm, PlainInitFallsBackToTinyRidgeWhenSingular) {
  // With ReLU and few samples the Gram matrix can be singular; the
  // implementation escalates a tiny jitter and reports it.
  util::Rng rng(4);
  OsElm net(config_for(2, 12, 1, 0.0), rng);
  const linalg::MatD x = random_matrix(4, 2, rng);  // rank <= 4 < 12
  const linalg::MatD t = random_matrix(4, 1, rng);
  net.init_train(x, t);
  EXPECT_TRUE(net.initialized());
  EXPECT_GT(net.initial_ridge_used(), 0.0);
  EXPECT_LT(net.initial_ridge_used(), 1.0);
}

TEST(OsElm, SequentialUpdateReducesErrorOnTrainedSample) {
  util::Rng rng(5);
  OsElm net(config_for(3, 16, 1, 0.1), rng);
  net.init_train(random_matrix(24, 3, rng), random_matrix(24, 1, rng));

  const linalg::VecD x{0.2, -0.4, 0.6};
  const linalg::VecD t{0.9};
  const double before = std::abs(net.predict_one(x)[0] - t[0]);
  // Each repeat weights this sample once more in the global least-squares
  // problem, so the residual decays roughly like 1/k, not geometrically.
  for (int i = 0; i < 40; ++i) net.seq_train_one(x, t);
  const double after = std::abs(net.predict_one(x)[0] - t[0]);
  EXPECT_LT(after, before);
  EXPECT_LT(after, 0.2);
}

TEST(OsElm, ChunkSeqTrainMatchesRepeatedSingles) {
  // Feeding a chunk through Eq. 5 must equal feeding its rows one at a
  // time (both are exact RLS updates of the same least-squares problem).
  util::Rng rng(6);
  OsElm chunked(config_for(3, 12, 1, 0.3), rng);
  util::Rng rng_b(6);
  OsElm singled(config_for(3, 12, 1, 0.3), rng_b);

  util::Rng data_rng(7);
  const linalg::MatD x0 = random_matrix(20, 3, data_rng);
  const linalg::MatD t0 = random_matrix(20, 1, data_rng);
  chunked.init_train(x0, t0);
  singled.init_train(x0, t0);

  const linalg::MatD x1 = random_matrix(6, 3, data_rng);
  const linalg::MatD t1 = random_matrix(6, 1, data_rng);
  chunked.seq_train(x1, t1);
  for (std::size_t i = 0; i < 6; ++i) {
    singled.seq_train_one(x1.row(i), t1.row(i));
  }
  EXPECT_TRUE(linalg::approx_equal(chunked.beta(), singled.beta(), 1e-7));
  EXPECT_TRUE(linalg::approx_equal(chunked.p(), singled.p(), 1e-7));
}

TEST(OsElm, PStaysSymmetricUnderManyUpdates) {
  util::Rng rng(8);
  OsElm net(config_for(4, 16, 1, 0.2), rng);
  net.init_train(random_matrix(24, 4, rng), random_matrix(24, 1, rng));
  for (int i = 0; i < 200; ++i) {
    linalg::VecD x(4);
    rng.fill_uniform(x, -1.0, 1.0);
    net.seq_train_one(x, {rng.uniform(-1.0, 1.0)});
  }
  const linalg::MatD& p = net.p();
  EXPECT_TRUE(linalg::approx_equal(p, p.transposed(), 1e-8));
}

TEST(OsElm, SetBetaOverwritesAndValidates) {
  util::Rng rng(9);
  OsElm net(config_for(3, 8, 1), rng);
  linalg::MatD beta(8, 1, 0.25);
  net.set_beta(beta);
  EXPECT_TRUE(net.beta() == beta);
  EXPECT_THROW(net.set_beta(linalg::MatD(4, 1)), std::invalid_argument);
}

TEST(OsElm, ReinitializeForgetsEverything) {
  util::Rng rng(10);
  OsElm net(config_for(3, 8, 1, 0.1), rng);
  net.init_train(random_matrix(12, 3, rng), random_matrix(12, 1, rng));
  ASSERT_TRUE(net.initialized());
  net.reinitialize(rng);
  EXPECT_FALSE(net.initialized());
  EXPECT_TRUE(net.p().empty());
}

TEST(OsElm, ShapeValidation) {
  util::Rng rng(11);
  OsElm net(config_for(3, 8, 2, 0.1), rng);
  EXPECT_THROW(net.init_train(linalg::MatD(5, 3), linalg::MatD(4, 2)),
               std::invalid_argument);
  EXPECT_THROW(net.init_train(linalg::MatD(5, 3), linalg::MatD(5, 1)),
               std::invalid_argument);
  net.init_train(random_matrix(12, 3, rng), random_matrix(12, 2, rng));
  EXPECT_THROW(net.seq_train_one({1.0, 2.0, 3.0}, {0.5}),
               std::invalid_argument);  // one target, output_dim == 2
}

TEST(OsElm, ChunkSeqTrainRejectsTargetWidth) {
  // A k > 1 chunk validates the target width like the k = 1 path does,
  // instead of reading width-1 targets out of bounds.
  util::Rng rng(12);
  OsElm net(config_for(3, 8, 2, 0.1), rng);
  net.init_train(random_matrix(12, 3, rng), random_matrix(12, 2, rng));
  const linalg::MatD beta = net.beta();
  const linalg::MatD p = net.p();
  EXPECT_THROW(net.seq_train(random_matrix(2, 3, rng), linalg::MatD(2, 1)),
               std::invalid_argument);
  EXPECT_THROW(net.seq_train(random_matrix(1, 3, rng), linalg::MatD(1, 1)),
               std::invalid_argument);
  EXPECT_TRUE(net.beta() == beta);  // a rejected chunk trains nothing
  EXPECT_TRUE(net.p() == p);
}

TEST(OsElm, ForgettingFactorOneMatchesPlainUpdate) {
  util::Rng rng_a(20);
  OsElm plain(config_for(3, 12, 1, 0.3), rng_a);
  util::Rng rng_b(20);
  OsElm forgetting(config_for(3, 12, 1, 0.3), rng_b);

  util::Rng data_rng(21);
  const linalg::MatD x0 = random_matrix(16, 3, data_rng);
  const linalg::MatD t0 = random_matrix(16, 1, data_rng);
  plain.init_train(x0, t0);
  forgetting.init_train(x0, t0);
  for (int i = 0; i < 50; ++i) {
    linalg::VecD x(3);
    data_rng.fill_uniform(x, -1.0, 1.0);
    const linalg::VecD t{data_rng.uniform(-1.0, 1.0)};
    plain.seq_train_one(x, t);
    forgetting.seq_train_one_forgetting(x, t, 1.0);
  }
  EXPECT_TRUE(linalg::approx_equal(plain.beta(), forgetting.beta(), 1e-12));
  EXPECT_TRUE(linalg::approx_equal(plain.p(), forgetting.p(), 1e-12));
}

TEST(OsElm, ForgettingFactorValidatesRange) {
  util::Rng rng(22);
  OsElm net(config_for(2, 6, 1, 0.2), rng);
  net.init_train(random_matrix(8, 2, rng), random_matrix(8, 1, rng));
  EXPECT_THROW(net.seq_train_one_forgetting({0.1, 0.2}, {0.3}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(net.seq_train_one_forgetting({0.1, 0.2}, {0.3}, 1.5),
               std::invalid_argument);
}

TEST(OsElm, ForgettingTracksDriftWherePlainLags) {
  // FOS-ELM's reason to exist: under a drifting target, exponential
  // discounting of stale data keeps tracking while plain RLS averages
  // over the entire history and lags behind.
  const auto run = [](double lambda) {
    util::Rng rng(23);
    OsElm net(config_for(1, 24, 1, 0.1), rng);
    util::Rng data_rng(24);
    linalg::MatD x0(32, 1);
    linalg::MatD t0(32, 1);
    for (std::size_t i = 0; i < 32; ++i) {
      x0(i, 0) = data_rng.uniform(-1.0, 1.0);
      t0(i, 0) = 0.2 * x0(i, 0);
    }
    net.init_train(x0, t0);
    double slope = 0.2;
    double late_error = 0.0;
    int count = 0;
    for (int step = 0; step < 3000; ++step) {
      slope += 0.001;  // strong drift: slope triples over the run
      const double x = data_rng.uniform(-1.0, 1.0);
      const double t = slope * x;
      net.seq_train_one_forgetting({x}, {t}, lambda);
      if (step >= 2800) {
        late_error += std::abs(net.predict_one({x})[0] - t);
        ++count;
      }
    }
    return late_error / count;
  };
  const double plain_error = run(1.0);
  const double forgetting_error = run(0.99);
  EXPECT_LT(forgetting_error, plain_error * 0.5);
  EXPECT_LT(forgetting_error, 0.1);
}

TEST(OsElm, ForgettingKeepsPBoundedUnderLongStreams) {
  // With lambda < 1 the gain must not collapse: P's trace stays bounded
  // away from zero even after thousands of updates.
  util::Rng rng(25);
  OsElm net(config_for(2, 8, 1, 0.2), rng);
  net.init_train(random_matrix(16, 2, rng), random_matrix(16, 1, rng));
  util::Rng data_rng(26);
  for (int step = 0; step < 5000; ++step) {
    linalg::VecD x(2);
    data_rng.fill_uniform(x, -1.0, 1.0);
    net.seq_train_one_forgetting(x, {data_rng.uniform(-1.0, 1.0)}, 0.995);
  }
  double trace = 0.0;
  for (std::size_t i = 0; i < 8; ++i) trace += net.p()(i, i);
  EXPECT_GT(trace, 1e-4);
  EXPECT_TRUE(std::isfinite(trace));
}

TEST(OsElm, StreamingRegressionConvergesToFunction) {
  // Stream a stationary nonlinear function sample-by-sample; the online
  // model must converge toward it — the capability that makes OS-ELM
  // suitable for on-device learning.
  util::Rng rng(12);
  OsElm net(config_for(2, 24, 1, 0.05), rng);

  util::Rng data_rng(13);
  const auto f = [](double a, double b) {
    return 0.5 * a - 0.25 * b + 0.3 * a * b;
  };
  linalg::MatD x0(32, 2);
  linalg::MatD t0(32, 1);
  for (std::size_t i = 0; i < 32; ++i) {
    x0(i, 0) = data_rng.uniform(-1.0, 1.0);
    x0(i, 1) = data_rng.uniform(-1.0, 1.0);
    t0(i, 0) = f(x0(i, 0), x0(i, 1));
  }
  net.init_train(x0, t0);

  for (int step = 0; step < 2000; ++step) {
    linalg::VecD x{data_rng.uniform(-1.0, 1.0),
                   data_rng.uniform(-1.0, 1.0)};
    net.seq_train_one(x, {f(x[0], x[1])});
  }

  double total_error = 0.0;
  constexpr int kProbes = 200;
  for (int i = 0; i < kProbes; ++i) {
    linalg::VecD x{data_rng.uniform(-1.0, 1.0),
                   data_rng.uniform(-1.0, 1.0)};
    total_error += std::abs(net.predict_one(x)[0] - f(x[0], x[1]));
  }
  EXPECT_LT(total_error / kProbes, 0.05);
}

TEST(FromParts, ValidatesShapes) {
  const ElmConfig cfg = config_for(4, 12, 2, 0.25);
  EXPECT_THROW(OsElm::from_parts(cfg, linalg::MatD(2, 2), linalg::VecD(12),
                                 linalg::MatD(12, 2), linalg::MatD(), false),
               std::invalid_argument);
  EXPECT_THROW(OsElm::from_parts(cfg, linalg::MatD(4, 12),
                                 linalg::VecD(12), linalg::MatD(12, 2),
                                 linalg::MatD(3, 3), true),
               std::invalid_argument);
}

TEST(FromParts, RejectsNonEmptyPWhenUninitialized) {
  // A model that never ran init_train has no P; accepting one would let a
  // later init_train round-trip resurrect stale inverse-Gram state.
  const ElmConfig cfg = config_for(4, 12, 2, 0.25);
  EXPECT_THROW(OsElm::from_parts(cfg, linalg::MatD(4, 12), linalg::VecD(12),
                                 linalg::MatD(12, 2), linalg::MatD(12, 12),
                                 /*initialized=*/false),
               std::invalid_argument);
}

}  // namespace
}  // namespace oselm::elm
