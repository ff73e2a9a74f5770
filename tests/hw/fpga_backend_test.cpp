#include "hw/fpga_backend.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "env/registry.hpp"
#include "fixed/overflow_stats.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/kernels.hpp"
#include "linalg/ops.hpp"
#include "linalg/svd.hpp"
#include "rl/oselm_q_agent.hpp"
#include "rl/trainer.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace oselm::hw {
namespace {

FpgaBackendConfig small_config(std::size_t hidden = 16) {
  FpgaBackendConfig cfg;
  cfg.input_dim = 5;
  cfg.hidden_units = hidden;
  cfg.l2_delta = 0.5;
  cfg.spectral_normalize = true;
  return cfg;
}

using test_support::random_matrix;

/// Double-precision ReLU hidden layer using the backend's host weights.
linalg::VecD host_hidden(const FpgaOsElmBackend& backend,
                         const linalg::VecD& x) {
  const linalg::MatD& alpha = backend.alpha_host();
  const linalg::VecD& bias = backend.bias_host();
  linalg::VecD h(alpha.cols());
  for (std::size_t j = 0; j < alpha.cols(); ++j) {
    double acc = bias[j];
    for (std::size_t i = 0; i < alpha.rows(); ++i) {
      acc += x[i] * alpha(i, j);
    }
    h[j] = std::max(0.0, acc);
  }
  return h;
}

TEST(FpgaBackend, AlphaIsSpectralNormalizedOnHost) {
  FpgaOsElmBackend backend(small_config(), 1);
  EXPECT_NEAR(linalg::largest_singular_value(backend.alpha_host()), 1.0,
              1e-9);
}

TEST(FpgaBackend, StartsUninitialized) {
  FpgaOsElmBackend backend(small_config(), 2);
  EXPECT_FALSE(backend.initialized());
  EXPECT_THROW(backend.seq_train(linalg::VecD(5, 0.1), 0.5),
               std::logic_error);
}

TEST(FpgaBackend, PredictMatchesDoubleReferenceBeforeTraining) {
  FpgaOsElmBackend backend(small_config(), 3);
  util::Rng rng(30);
  for (int trial = 0; trial < 20; ++trial) {
    linalg::VecD x(5);
    rng.fill_uniform(x, -1.0, 1.0);
    const double q_fixed = backend.predict_main(x);
    // Double reference with the dequantized on-chip weights.
    const linalg::VecD h = host_hidden(backend, x);
    const linalg::MatD beta = dequantize(backend.beta_fixed());
    double q_ref = 0.0;
    for (std::size_t j = 0; j < h.size(); ++j) q_ref += h[j] * beta(j, 0);
    // Error budget: ~(n + N) rounding events of <= 1 ulp each.
    EXPECT_NEAR(q_fixed, q_ref, 64 * quantization_half_ulp()) << trial;
  }
}

TEST(FpgaBackend, InitTrainMatchesEq8WithinQuantization) {
  FpgaBackendConfig cfg = small_config(12);
  FpgaOsElmBackend backend(cfg, 4);
  util::Rng rng(40);
  const linalg::MatD x0 = random_matrix(24, 5, rng);
  const linalg::MatD t0 = random_matrix(24, 1, rng);
  backend.init_train(x0, t0);
  EXPECT_TRUE(backend.initialized());
  EXPECT_GE(backend.ledger().breakdown().get(util::OpCategory::kInitTrain),
            0.0);

  // Double reference: P0 = (H0^T H0 + delta I)^-1, beta0 = P0 H0^T t0.
  linalg::MatD h0(24, 12);
  for (std::size_t r = 0; r < 24; ++r) {
    const linalg::VecD h = host_hidden(backend, x0.row(r));
    h0.set_row(r, h);
  }
  linalg::MatD gram = linalg::matmul_at_b(h0, h0);
  linalg::add_diagonal_inplace(gram, cfg.l2_delta);
  const linalg::MatD p0 = linalg::inverse_spd(gram);
  const linalg::MatD beta0 =
      linalg::matmul(p0, linalg::matmul_at_b(h0, t0));

  EXPECT_LT(linalg::max_abs_diff(dequantize(backend.p_fixed()), p0),
            1e-5);
  EXPECT_LT(linalg::max_abs_diff(dequantize(backend.beta_fixed()), beta0),
            1e-5);
}

TEST(FpgaBackend, SeqTrainMovesPredictionTowardTarget) {
  FpgaOsElmBackend backend(small_config(16), 5);
  util::Rng rng(50);
  backend.init_train(random_matrix(32, 5, rng), random_matrix(32, 1, rng));

  linalg::VecD x(5);
  rng.fill_uniform(x, -0.5, 0.5);
  const double target = 0.8;
  const double before = backend.predict_main(x);
  // RLS residual decays ~1/k on a repeated sample; 50 repeats suffice.
  for (int i = 0; i < 50; ++i) backend.seq_train(x, target);
  const double after = backend.predict_main(x);
  EXPECT_LT(std::abs(after - target), std::abs(before - target));
  EXPECT_LT(std::abs(after - target), 0.2);
}

TEST(FpgaBackend, SeqTrainTracksDoubleMirrorForManySteps) {
  // Fixed-point Eq. 6 must stay close to an exact double implementation
  // over a long update stream — the core fidelity claim of design (7).
  FpgaBackendConfig cfg = small_config(16);
  FpgaOsElmBackend backend(cfg, 6);
  util::Rng rng(60);
  const linalg::MatD x0 = random_matrix(32, 5, rng);
  linalg::MatD t0(32, 1);
  for (std::size_t i = 0; i < 32; ++i) t0(i, 0) = rng.uniform(-1.0, 1.0);
  backend.init_train(x0, t0);

  // Double mirror of the on-chip state.
  linalg::MatD p = dequantize(backend.p_fixed());
  linalg::MatD beta = dequantize(backend.beta_fixed());

  double worst_q_gap = 0.0;
  for (int step = 0; step < 300; ++step) {
    linalg::VecD x(5);
    rng.fill_uniform(x, -1.0, 1.0);
    const double target = rng.uniform(-1.0, 1.0);

    backend.seq_train(x, target);

    // Exact rank-1 update in double.
    const linalg::VecD h = host_hidden(backend, x);
    const linalg::VecD u = linalg::matvec(p, h);
    const double denom = 1.0 + linalg::dot(h, u);
    const double inv = 1.0 / denom;
    for (std::size_t i = 0; i < 16; ++i) {
      for (std::size_t j = 0; j < 16; ++j) {
        p(i, j) -= u[i] * inv * u[j];
      }
    }
    double pred = 0.0;
    for (std::size_t j = 0; j < 16; ++j) pred += h[j] * beta(j, 0);
    const double err = (target - pred) * inv;
    for (std::size_t j = 0; j < 16; ++j) beta(j, 0) += u[j] * err;

    const double q_fixed = backend.predict_main(x);
    double q_ref = 0.0;
    const linalg::VecD h2 = host_hidden(backend, x);
    for (std::size_t j = 0; j < 16; ++j) q_ref += h2[j] * beta(j, 0);
    worst_q_gap = std::max(worst_q_gap, std::abs(q_fixed - q_ref));
  }
  EXPECT_LT(worst_q_gap, 0.02);
}

TEST(FpgaBackend, TargetNetworkSyncsOnDemand) {
  FpgaOsElmBackend backend(small_config(8), 7);
  util::Rng rng(70);
  backend.init_train(random_matrix(16, 5, rng), random_matrix(16, 1, rng));
  linalg::VecD x(5, 0.2);
  // Drift theta_1 away from theta_2.
  for (int i = 0; i < 10; ++i) backend.seq_train(x, 1.0);
  const double q_main = backend.predict_main(x);
  EXPECT_NE(q_main, backend.predict_target(x));
  backend.sync_target();
  EXPECT_DOUBLE_EQ(q_main, backend.predict_target(x));
}

TEST(FpgaBackend, ChargesModeledPlSecondsToTheLedger) {
  using util::OpCategory;
  FpgaOsElmBackend backend(small_config(64), 8);
  const CycleModel& m = backend.cycle_model();
  const util::OpBreakdown& b = backend.ledger().breakdown();
  linalg::VecD x(5, 0.1);
  (void)backend.predict_main(x);
  EXPECT_DOUBLE_EQ(b.get(OpCategory::kPredictInit), m.predict_seconds());
  util::Rng rng(80);
  backend.init_train(random_matrix(64, 5, rng),
                     random_matrix(64, 1, rng));
  backend.seq_train(x, 0.1);
  EXPECT_DOUBLE_EQ(b.get(OpCategory::kSeqTrain), m.seq_train_seconds());
}

TEST(FpgaBackend, LedgerMatchesTheAnalyticModelBitForBit) {
  // The acceptance bar for the ledger redesign: on a fixed deterministic
  // scenario the ledger-reported breakdown equals the sum the historical
  // seconds-returning API would have produced — accumulated here in the
  // same call order, so the comparison is exact to the last bit.
  using util::OpCategory;
  FpgaOsElmBackend backend(small_config(32), 14);
  const CycleModel& m = backend.cycle_model();
  const util::OpBreakdown& b = backend.ledger().breakdown();
  util::Rng rng(140);

  double expected_pre_init = 0.0;
  const linalg::VecD state(4, 0.2);
  const linalg::VecD codes{-1.0, 1.0};
  linalg::VecD q(2, 0.0);
  for (int i = 0; i < 3; ++i) {
    backend.predict_actions(state, codes, rl::QNetwork::kMain, q);
    expected_pre_init += m.predict_batch_seconds(2);
  }
  (void)backend.predict_main(linalg::VecD(5, 0.1));
  expected_pre_init += m.predict_seconds();

  backend.init_train(random_matrix(32, 5, rng), random_matrix(32, 1, rng));

  double expected_seq = 0.0;
  double expected_post_init = 0.0;
  for (int i = 0; i < 5; ++i) {
    backend.seq_train(linalg::VecD(5, 0.1), 0.4);
    expected_seq += m.seq_train_seconds();
    backend.predict_actions(state, codes, rl::QNetwork::kTarget, q);
    expected_post_init += m.predict_batch_seconds(2);
  }
  linalg::MatD states(3, 4);
  linalg::MatD q_multi(3, 2);
  backend.predict_actions_multi(states, codes, rl::QNetwork::kMain, q_multi);
  expected_post_init += m.predict_multi_seconds(3, 2);

  EXPECT_DOUBLE_EQ(b.get(OpCategory::kPredictInit), expected_pre_init);
  EXPECT_DOUBLE_EQ(b.get(OpCategory::kSeqTrain), expected_seq);
  EXPECT_DOUBLE_EQ(b.get(OpCategory::kPredictSeq), expected_post_init);
  EXPECT_EQ(b.invocations(OpCategory::kPredictInit), 7u);   // 3*2 + 1
  EXPECT_EQ(b.invocations(OpCategory::kPredictSeq), 16u);   // 5*2 + 3*2
  EXPECT_EQ(b.invocations(OpCategory::kSeqTrain), 5u);
}

TEST(FpgaBackend, CycleAccountingAccumulates) {
  FpgaOsElmBackend backend(small_config(32), 9);
  util::Rng rng(90);
  backend.init_train(random_matrix(32, 5, rng), random_matrix(32, 1, rng));
  linalg::VecD x(5, 0.1);
  const std::uint64_t before = backend.total_pl_cycles();
  (void)backend.predict_main(x);
  backend.seq_train(x, 0.3);
  const CycleModel& m = backend.cycle_model();
  EXPECT_EQ(backend.total_pl_cycles() - before,
            m.predict_cycles() + m.seq_train_cycles());
  EXPECT_GE(backend.predict_calls(), 1u);
  EXPECT_EQ(backend.seq_train_calls(), 1u);
}

TEST(FpgaBackend, BatchedPredictChargesAmortizedSchedule) {
  FpgaOsElmBackend backend(small_config(64), 12);
  const CycleModel& m = backend.cycle_model();
  const linalg::VecD state(4, 0.1);
  const linalg::VecD codes{-1.0, 1.0};
  linalg::VecD q(2, 0.0);
  const std::uint64_t before = backend.total_pl_cycles();
  const std::size_t calls_before = backend.predict_calls();
  backend.predict_actions(state, codes, rl::QNetwork::kMain, q);
  EXPECT_DOUBLE_EQ(
      backend.ledger().breakdown().get(util::OpCategory::kPredictInit),
      m.predict_batch_seconds(2));
  EXPECT_EQ(backend.total_pl_cycles() - before, m.predict_batch_cycles(2));
  // Counts stay one-per-evaluation for the board-time models.
  EXPECT_EQ(backend.predict_calls() - calls_before, 2u);
  // The amortized batch is strictly cheaper than two single predictions.
  EXPECT_LT(m.predict_batch_cycles(2), 2 * m.predict_cycles());
}

TEST(FpgaBackend, MultiStateBatchChargesOneHandshake) {
  FpgaOsElmBackend backend(small_config(64), 13);
  const CycleModel& m = backend.cycle_model();
  const linalg::VecD codes{-1.0, 1.0};
  linalg::MatD states(4, 4);
  for (std::size_t s = 0; s < 4; ++s) {
    for (std::size_t i = 0; i < 4; ++i) {
      states(s, i) = 0.1 * static_cast<double>(s + i);
    }
  }
  linalg::MatD q(4, 2);
  const std::uint64_t before = backend.total_pl_cycles();
  backend.predict_actions_multi(states, codes, rl::QNetwork::kMain, q);
  EXPECT_EQ(backend.total_pl_cycles() - before, m.predict_multi_cycles(4, 2));
  EXPECT_DOUBLE_EQ(
      backend.ledger().breakdown().get(util::OpCategory::kPredictInit),
      m.predict_multi_seconds(4, 2));
  // One pipeline fill + one AXI handshake for the whole coalesced batch:
  // strictly cheaper than four per-session batched calls.
  EXPECT_LT(m.predict_multi_cycles(4, 2), 4 * m.predict_batch_cycles(2));
  // A single-state multi batch degenerates to the per-session batch.
  EXPECT_EQ(m.predict_multi_cycles(1, 2), m.predict_batch_cycles(2));
  EXPECT_DOUBLE_EQ(m.predict_multi_seconds(1, 2), m.predict_batch_seconds(2));
}

TEST(FpgaBackend, InitializeResetsState) {
  FpgaOsElmBackend backend(small_config(8), 10);
  util::Rng rng(100);
  backend.init_train(random_matrix(16, 5, rng), random_matrix(16, 1, rng));
  ASSERT_TRUE(backend.initialized());
  backend.initialize();
  EXPECT_FALSE(backend.initialized());
  EXPECT_EQ(backend.total_pl_cycles(), 0u);
}

TEST(FpgaBackend, ValidatesShapes) {
  FpgaOsElmBackend backend(small_config(8), 11);
  EXPECT_THROW((void)backend.predict_main(linalg::VecD(3)),
               std::invalid_argument);
  EXPECT_THROW((void)backend.predict_target(linalg::VecD(9)),
               std::invalid_argument);
  EXPECT_THROW(backend.init_train(linalg::MatD(4, 3), linalg::MatD(4, 1)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Q20 SIMD == scalar at the backend level: the same run with the AVX2 and
// the scalar Q20 kernel sets leaves bit-identical fixed-point state and
// saturation counters.
// ---------------------------------------------------------------------------

std::vector<std::int32_t> raw_words(const FixedMat& m) {
  std::vector<std::int32_t> words;
  words.reserve(m.storage().size());
  for (const Q& q : m.storage()) words.push_back(q.raw());
  return words;
}

/// Saturation counters accumulated since `before` on this thread.
fixed::OverflowStats overflow_since(const fixed::OverflowStats& before) {
  const fixed::OverflowStats& now = fixed::overflow_stats();
  fixed::OverflowStats delta;
  delta.add_saturations = now.add_saturations - before.add_saturations;
  delta.mul_saturations = now.mul_saturations - before.mul_saturations;
  delta.div_saturations = now.div_saturations - before.div_saturations;
  delta.div_by_zero = now.div_by_zero - before.div_by_zero;
  delta.conversion_saturations =
      now.conversion_saturations - before.conversion_saturations;
  return delta;
}

void expect_same_overflow(const fixed::OverflowStats& a,
                          const fixed::OverflowStats& b) {
  EXPECT_EQ(a.add_saturations, b.add_saturations);
  EXPECT_EQ(a.mul_saturations, b.mul_saturations);
  EXPECT_EQ(a.div_saturations, b.div_saturations);
  EXPECT_EQ(a.div_by_zero, b.div_by_zero);
  EXPECT_EQ(a.conversion_saturations, b.conversion_saturations);
}

struct Q20Run {
  std::vector<std::int32_t> beta;
  std::vector<std::int32_t> p;
  linalg::MatD beta_target;  ///< exported (dequantized) theta_2
  std::size_t episodes = 0;
  std::size_t total_steps = 0;
  std::size_t resets = 0;
  fixed::OverflowStats saturations;
};

/// Algorithm 1 (OsElmQAgent + run_training) over the FPGA model on
/// ShapedCartPole-v0, with the Q20 kernel set pinned to `simd`.
Q20Run train_agent_on_fpga(bool simd) {
  linalg::kernels::set_simd_enabled(simd);
  const fixed::OverflowStats before = fixed::overflow_stats();
  auto backend = std::make_shared<FpgaOsElmBackend>(small_config(64), 2718);
  rl::OsElmQAgent agent(backend, rl::SimplifiedOutputModel(4, 2),
                        rl::OsElmQAgentConfig{}, 31);
  const env::EnvironmentPtr env =
      env::make_environment("ShapedCartPole-v0", 5);
  rl::TrainerConfig trainer;
  trainer.max_episodes = 80;
  trainer.reset_interval = 30;  // exercise re-initialization too
  const rl::TrainResult result = rl::run_training(agent, *env, trainer);
  linalg::kernels::reset_simd_override();

  Q20Run run;
  run.saturations = overflow_since(before);
  run.beta = raw_words(backend->beta_fixed());
  run.p = raw_words(backend->p_fixed());
  run.beta_target = backend->export_state().beta_target;
  run.episodes = result.episodes;
  run.total_steps = result.total_steps;
  run.resets = result.resets;
  return run;
}

TEST(FpgaBackendSimd, AgentTrainingIsBitIdenticalAcrossQ20KernelSets) {
  const Q20Run simd = train_agent_on_fpga(true);
  const Q20Run scalar = train_agent_on_fpga(false);
  ASSERT_GT(simd.total_steps, 0u);
  EXPECT_EQ(simd.episodes, scalar.episodes);
  EXPECT_EQ(simd.total_steps, scalar.total_steps);
  EXPECT_EQ(simd.resets, scalar.resets);
  EXPECT_EQ(simd.beta, scalar.beta);
  EXPECT_EQ(simd.p, scalar.p);
  EXPECT_EQ(simd.beta_target.storage(), scalar.beta_target.storage());
  expect_same_overflow(simd.saturations, scalar.saturations);
}

/// seq_train on a stream whose targets sit near the Q20 limit (+-2048),
/// so beta and P saturate and the kernels take their scalar fallbacks.
Q20Run saturating_seq_train(bool simd) {
  linalg::kernels::set_simd_enabled(simd);
  const fixed::OverflowStats before = fixed::overflow_stats();
  FpgaOsElmBackend backend(small_config(64), 99);
  util::Rng rng(123);
  backend.init_train(random_matrix(64, 5, rng), random_matrix(64, 1, rng));
  linalg::VecD x(5);
  for (int i = 0; i < 400; ++i) {
    rng.fill_uniform(x, -1.0, 1.0);
    backend.seq_train(x, i % 2 == 0 ? 1900.0 : -1900.0);
  }
  linalg::kernels::reset_simd_override();

  Q20Run run;
  run.saturations = overflow_since(before);
  run.beta = raw_words(backend.beta_fixed());
  run.p = raw_words(backend.p_fixed());
  return run;
}

TEST(FpgaBackendSimd, SaturatingSeqTrainIsBitIdenticalAcrossQ20KernelSets) {
  const Q20Run simd = saturating_seq_train(true);
  const Q20Run scalar = saturating_seq_train(false);
  EXPECT_GT(simd.saturations.total(), 0u) << "the stream never saturated";
  expect_same_overflow(simd.saturations, scalar.saturations);
  EXPECT_EQ(simd.beta, scalar.beta);
  EXPECT_EQ(simd.p, scalar.p);
}

}  // namespace
}  // namespace oselm::hw
