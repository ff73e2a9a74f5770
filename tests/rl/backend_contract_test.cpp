// Contract suite for rl::OsElmQBackend: every backend implementation must
// satisfy the same observable behavior, because the Algorithm 1 agent is
// written against the interface alone (the paper's Fig. 3 hardware/software
// split depends on the two sides being interchangeable). The suite is
// value-parameterized over rl::BackendRegistry — it enumerates every
// REGISTERED backend id instead of hard-coding the pair, so a new backend
// registers one factory and inherits every check; its declared capability
// flags drive the per-backend tolerances (fixed-point => half-ulp batch
// budget).
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hw/fixed_tensor.hpp"
#include "rl/backend_registry.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"
#include "util/time_ledger.hpp"

namespace oselm::rl {
namespace {

constexpr std::size_t kInputDim = 5;
constexpr std::size_t kHiddenUnits = 16;
constexpr double kDelta = 0.5;

struct BackendCase {
  std::string id;
  BackendCapabilities caps;
  /// Allowed |batched - per-action-loop| difference: 0 = bit-exact
  /// (software); the fixed-point model gets a half-ulp budget.
  double batch_tolerance = 0.0;
};

void PrintTo(const BackendCase& c, std::ostream* os) { *os << c.id; }

/// Every backend the registry knows, with capability-derived tolerances.
std::vector<BackendCase> all_registered_cases() {
  std::vector<BackendCase> cases;
  for (const std::string& id : registered_backends()) {
    BackendCase c;
    c.id = id;
    c.caps = backend_capabilities(id);
    c.batch_tolerance = c.caps.fixed_point ? hw::quantization_half_ulp() : 0.0;
    cases.push_back(std::move(c));
  }
  return cases;
}

class BackendContract : public ::testing::TestWithParam<BackendCase> {
 protected:
  [[nodiscard]] OsElmQBackendPtr make(std::uint64_t seed) const {
    BackendConfig config;
    config.input_dim = kInputDim;
    config.hidden_units = kHiddenUnits;
    config.l2_delta = kDelta;
    config.spectral_normalize = true;
    config.seed = seed;
    return make_backend(GetParam().id, config);
  }

  /// Runs the standard initial-training chunk (32 samples) on `backend`.
  static void run_init_train(OsElmQBackend& backend, std::uint64_t data_seed) {
    util::Rng rng(data_seed);
    const linalg::MatD x =
        test_support::random_matrix(32, kInputDim, rng);
    const linalg::MatD t = test_support::random_matrix(32, 1, rng);
    backend.init_train(x, t);
  }

  /// Asserts predict_actions(state, codes, which) agrees with an explicit
  /// per-action predict_main/predict_target loop within the backend's
  /// fixed-point budget (bit-exact when the budget is zero).
  void expect_batch_matches_loop(OsElmQBackend& backend,
                                 const linalg::VecD& state,
                                 const linalg::VecD& codes, QNetwork which) {
    linalg::VecD batched(codes.size(), std::nan(""));
    backend.predict_actions(state, codes, which, batched);

    linalg::VecD sa(kInputDim, 0.0);
    for (std::size_t i = 0; i < state.size(); ++i) sa[i] = state[i];
    for (std::size_t a = 0; a < codes.size(); ++a) {
      sa[kInputDim - 1] = codes[a];
      const double q_loop = which == QNetwork::kMain
                                ? backend.predict_main(sa)
                                : backend.predict_target(sa);
      const double tol = GetParam().batch_tolerance;
      if (tol == 0.0) {
        EXPECT_DOUBLE_EQ(batched[a], q_loop) << "action " << a;
      } else {
        EXPECT_NEAR(batched[a], q_loop, tol) << "action " << a;
      }
    }
  }
};

TEST_P(BackendContract, StartsUninitialized) {
  EXPECT_FALSE(make(1)->initialized());
}

TEST_P(BackendContract, ReportsConfiguredDimensions) {
  const auto backend = make(2);
  EXPECT_EQ(backend->input_dim(), kInputDim);
  EXPECT_EQ(backend->hidden_units(), kHiddenUnits);
}

TEST_P(BackendContract, PredictWorksBeforeInitTrain) {
  // Prediction with the freshly randomized weights is legal (the agent
  // explores before the init chunk fills); only seq_train requires P.
  const auto backend = make(3);
  util::Rng rng(30);
  const linalg::VecD sa = test_support::random_vector(kInputDim, rng);
  EXPECT_TRUE(std::isfinite(backend->predict_main(sa)));
  EXPECT_TRUE(std::isfinite(backend->predict_target(sa)));
}

TEST_P(BackendContract, SeqTrainBeforeInitTrainThrows) {
  const auto backend = make(4);
  EXPECT_THROW(backend->seq_train(linalg::VecD(kInputDim, 0.1), 0.5),
               std::logic_error);
}

TEST_P(BackendContract, RejectsMismatchedInputWidths) {
  const auto backend = make(5);
  EXPECT_THROW((void)backend->predict_main(linalg::VecD(kInputDim - 1)),
               std::invalid_argument);
  EXPECT_THROW((void)backend->predict_target(linalg::VecD(kInputDim + 3)),
               std::invalid_argument);
  EXPECT_THROW(backend->init_train(linalg::MatD(8, kInputDim - 2),
                                   linalg::MatD(8, 1)),
               std::invalid_argument);
}

TEST_P(BackendContract, InitTrainTransitionsToInitialized) {
  const auto backend = make(6);
  ASSERT_FALSE(backend->initialized());
  run_init_train(*backend, 60);
  EXPECT_TRUE(backend->initialized());
}

TEST_P(BackendContract, InitializeResetsTheLifecycle) {
  const auto backend = make(7);
  run_init_train(*backend, 70);
  ASSERT_TRUE(backend->initialized());
  backend->initialize();
  EXPECT_FALSE(backend->initialized());
  // Back in the pre-init state: sequential updates are illegal again ...
  EXPECT_THROW(backend->seq_train(linalg::VecD(kInputDim, 0.1), 0.5),
               std::logic_error);
  // ... and a fresh init chunk brings the backend back up.
  run_init_train(*backend, 71);
  EXPECT_TRUE(backend->initialized());
}

TEST_P(BackendContract, SeqTrainMovesPredictionTowardTarget) {
  const auto backend = make(8);
  run_init_train(*backend, 80);
  util::Rng rng(81);
  const linalg::VecD sa =
      test_support::random_vector(kInputDim, rng, -0.5, 0.5);
  const double target = 0.8;
  const double before = backend->predict_main(sa);
  // RLS on a repeated sample contracts the residual ~1/k.
  for (int i = 0; i < 60; ++i) backend->seq_train(sa, target);
  const double after = backend->predict_main(sa);
  EXPECT_LT(std::abs(after - target), std::abs(before - target));
  EXPECT_LT(std::abs(after - target), 0.2);
}

TEST_P(BackendContract, SyncTargetCopiesMainIntoTarget) {
  const auto backend = make(9);
  run_init_train(*backend, 90);
  // Drift theta_1 away from theta_2.
  const linalg::VecD sa(kInputDim, 0.2);
  for (int i = 0; i < 10; ++i) backend->seq_train(sa, 1.0);
  const double q_main = backend->predict_main(sa);
  EXPECT_NE(q_main, backend->predict_target(sa));
  backend->sync_target();
  EXPECT_NEAR(q_main, backend->predict_target(sa), 1e-12);
}

TEST_P(BackendContract, TargetStaysFrozenDuringSeqTrain) {
  const auto backend = make(10);
  run_init_train(*backend, 100);
  backend->sync_target();
  const linalg::VecD probe(kInputDim, 0.3);
  const double frozen = backend->predict_target(probe);
  util::Rng rng(101);
  for (int i = 0; i < 25; ++i) {
    backend->seq_train(test_support::random_vector(kInputDim, rng),
                       rng.uniform(-1.0, 1.0));
  }
  EXPECT_DOUBLE_EQ(frozen, backend->predict_target(probe));
}

TEST_P(BackendContract, SameSeedSameTrainingIsDeterministic) {
  const auto a = make(42);
  const auto b = make(42);
  run_init_train(*a, 420);
  run_init_train(*b, 420);
  util::Rng stream(421);
  for (int i = 0; i < 20; ++i) {
    const linalg::VecD sa = test_support::random_vector(kInputDim, stream);
    const double target = stream.uniform(-1.0, 1.0);
    a->seq_train(sa, target);
    b->seq_train(sa, target);
  }
  util::Rng probes(422);
  for (int i = 0; i < 10; ++i) {
    const linalg::VecD sa = test_support::random_vector(kInputDim, probes);
    EXPECT_DOUBLE_EQ(a->predict_main(sa), b->predict_main(sa))
        << "probe " << i;
    EXPECT_DOUBLE_EQ(a->predict_target(sa), b->predict_target(sa))
        << "target probe " << i;
  }
}

TEST_P(BackendContract, DifferentSeedsDrawDifferentWeights) {
  const auto a = make(1);
  const auto b = make(2);
  const linalg::VecD sa(kInputDim, 0.25);
  EXPECT_NE(a->predict_main(sa), b->predict_main(sa));
}

TEST_P(BackendContract, BatchedPredictMatchesPerActionLoopBeforeInit) {
  const auto backend = make(20);
  util::Rng rng(200);
  for (int probe = 0; probe < 5; ++probe) {
    const linalg::VecD state =
        test_support::random_vector(kInputDim - 1, rng, -0.8, 0.8);
    expect_batch_matches_loop(*backend, state, {-1.0, 1.0}, QNetwork::kMain);
    expect_batch_matches_loop(*backend, state, {-1.0, 1.0},
                              QNetwork::kTarget);
  }
}

TEST_P(BackendContract, BatchedPredictMatchesPerActionLoopAfterTraining) {
  const auto backend = make(21);
  run_init_train(*backend, 210);
  util::Rng rng(211);
  for (int i = 0; i < 15; ++i) {
    backend->seq_train(test_support::random_vector(kInputDim, rng),
                       rng.uniform(-1.0, 1.0));
  }
  for (int probe = 0; probe < 5; ++probe) {
    const linalg::VecD state =
        test_support::random_vector(kInputDim - 1, rng, -0.8, 0.8);
    // A 3-action code set exercises the zero-code fast path too.
    expect_batch_matches_loop(*backend, state, {-1.0, 0.0, 1.0},
                              QNetwork::kMain);
    expect_batch_matches_loop(*backend, state, {-1.0, 0.0, 1.0},
                              QNetwork::kTarget);
  }
}

TEST_P(BackendContract, BatchedPredictIsDeterministicAndTieStable) {
  const auto backend = make(22);
  run_init_train(*backend, 220);
  const linalg::VecD state(kInputDim - 1, 0.3);
  // Duplicated codes must produce exactly equal Q values — the property
  // the agent's lowest-index tie-break depends on — and repeated calls
  // must reproduce bit-identical outputs.
  const linalg::VecD codes{0.5, 0.5, 0.5};
  linalg::VecD first(3, 0.0);
  linalg::VecD second(3, 0.0);
  backend->predict_actions(state, codes, QNetwork::kMain, first);
  backend->predict_actions(state, codes, QNetwork::kMain, second);
  EXPECT_EQ(first[0], first[1]);
  EXPECT_EQ(first[1], first[2]);
  for (std::size_t a = 0; a < 3; ++a) EXPECT_EQ(first[a], second[a]) << a;
}

TEST_P(BackendContract, BatchedPredictValidatesShapes) {
  const auto backend = make(23);
  const linalg::VecD codes{-1.0, 1.0};
  linalg::VecD q2(2, 0.0);
  linalg::VecD q1(1, 0.0);
  // State must be input_dim - 1 wide (the action feature is appended).
  EXPECT_THROW(backend->predict_actions(linalg::VecD(kInputDim, 0.1), codes,
                                        QNetwork::kMain, q2),
               std::invalid_argument);
  // q_out must already hold one slot per action code.
  EXPECT_THROW(backend->predict_actions(linalg::VecD(kInputDim - 1, 0.1),
                                        codes, QNetwork::kMain, q1),
               std::invalid_argument);
}

TEST_P(BackendContract, BatchedPredictReadsTheRequestedNetwork) {
  const auto backend = make(24);
  run_init_train(*backend, 240);
  // Drift theta_1 away from theta_2 so the two networks disagree.
  const linalg::VecD sa(kInputDim, 0.2);
  for (int i = 0; i < 10; ++i) backend->seq_train(sa, 1.0);
  const linalg::VecD state(kInputDim - 1, 0.2);
  const linalg::VecD codes{-1.0, 1.0};
  linalg::VecD q_main(2, 0.0);
  linalg::VecD q_target(2, 0.0);
  backend->predict_actions(state, codes, QNetwork::kMain, q_main);
  backend->predict_actions(state, codes, QNetwork::kTarget, q_target);
  EXPECT_NE(q_main, q_target);
}

TEST_P(BackendContract, MultiStatePredictMatchesPerStateBatches) {
  // Row i of predict_actions_multi must be bit-identical to a
  // predict_actions call on states.row(i) — the property AsyncQServer's
  // cross-session coalescing rests on (for every backend, including the
  // fixed-point model: same dataflow order per state).
  const auto backend = make(25);
  run_init_train(*backend, 250);
  util::Rng rng(251);
  const linalg::VecD codes{-1.0, 1.0};
  constexpr std::size_t kStates = 6;
  linalg::MatD states(kStates, kInputDim - 1);
  for (std::size_t s = 0; s < kStates; ++s) {
    states.set_row(s,
                   test_support::random_vector(kInputDim - 1, rng, -0.8, 0.8));
  }
  for (const QNetwork which : {QNetwork::kMain, QNetwork::kTarget}) {
    linalg::MatD multi(kStates, codes.size());
    backend->predict_actions_multi(states, codes, which, multi);
    linalg::VecD single(codes.size(), 0.0);
    for (std::size_t s = 0; s < kStates; ++s) {
      backend->predict_actions(states.row(s), codes, which, single);
      for (std::size_t a = 0; a < codes.size(); ++a) {
        EXPECT_EQ(multi(s, a), single[a]) << "state " << s << " action " << a;
      }
    }
  }
}

TEST_P(BackendContract, EmptyMultiBatchChargesNothing) {
  // Zero evaluations must leave the ledger untouched on every backend —
  // the FPGA model must not raise the core (pipeline + AXI) for a batch
  // the host never sends.
  const auto backend = make(27);
  linalg::MatD states(0, kInputDim - 1);
  linalg::MatD q(0, 2);
  backend->predict_actions_multi(states, {-1.0, 1.0}, QNetwork::kMain, q);
  EXPECT_DOUBLE_EQ(backend->ledger().breakdown().total(), 0.0);
  EXPECT_EQ(
      backend->ledger().breakdown().invocations(
          util::OpCategory::kPredictInit),
      0u);
}

TEST_P(BackendContract, MultiStatePredictValidatesShapes) {
  const auto backend = make(26);
  const linalg::VecD codes{-1.0, 1.0};
  linalg::MatD q(3, 2);
  EXPECT_THROW(backend->predict_actions_multi(linalg::MatD(3, kInputDim),
                                              codes, QNetwork::kMain, q),
               std::invalid_argument);
  linalg::MatD q_bad(2, 2);
  EXPECT_THROW(backend->predict_actions_multi(linalg::MatD(3, kInputDim - 1),
                                              codes, QNetwork::kMain, q_bad),
               std::invalid_argument);
}

// --- Ledger contract -------------------------------------------------

TEST_P(BackendContract, LedgerInvocationCountsMatchTheFixedScenario) {
  // The fixed scenario's op counts are deterministic for every backend:
  // 3 pre-init evaluations (1 single + one 2-action batch), an init
  // chunk, 4 sequential updates, 6 post-init evaluations (one 2-action
  // batch + one 4-row 1-action multi).
  using util::OpCategory;
  const auto backend = make(31);
  const util::OpBreakdown& b = backend->ledger().breakdown();

  const linalg::VecD sa(kInputDim, 0.1);
  const linalg::VecD state(kInputDim - 1, 0.1);
  const linalg::VecD codes{-1.0, 1.0};
  linalg::VecD q2(2, 0.0);
  (void)backend->predict_main(sa);
  backend->predict_actions(state, codes, QNetwork::kMain, q2);
  EXPECT_EQ(b.invocations(OpCategory::kPredictInit), 3u);
  EXPECT_EQ(b.invocations(OpCategory::kPredictSeq), 0u);

  run_init_train(*backend, 310);
  EXPECT_EQ(b.invocations(OpCategory::kInitTrain), 1u);

  for (int i = 0; i < 4; ++i) backend->seq_train(sa, 0.2);
  EXPECT_EQ(b.invocations(OpCategory::kSeqTrain), 4u);

  backend->predict_actions(state, codes, QNetwork::kTarget, q2);
  linalg::MatD states(4, kInputDim - 1);
  linalg::MatD q_multi(4, 1);
  backend->predict_actions_multi(states, linalg::VecD{1.0}, QNetwork::kMain,
                                 q_multi);
  EXPECT_EQ(b.invocations(OpCategory::kPredictSeq), 6u);
  EXPECT_EQ(b.invocations(OpCategory::kPredictInit), 3u);  // unchanged
}

TEST_P(BackendContract, PredictScopeReroutesPredictionCharges) {
  // The agent's TD-target path charges target evaluations to the
  // surrounding training category; the ledger scope must route every
  // backend's prediction charge, with nesting restored on exit.
  using util::OpCategory;
  const auto backend = make(32);
  const util::OpBreakdown& b = backend->ledger().breakdown();
  const linalg::VecD state(kInputDim - 1, 0.2);
  const linalg::VecD codes{-1.0, 1.0};
  linalg::VecD q2(2, 0.0);
  {
    const util::TimeLedger::PredictScope scope(backend->ledger(),
                                               OpCategory::kSeqTrain);
    backend->predict_actions(state, codes, QNetwork::kTarget, q2);
  }
  EXPECT_EQ(b.invocations(OpCategory::kSeqTrain), 2u);
  EXPECT_EQ(b.invocations(OpCategory::kPredictInit), 0u);
  backend->predict_actions(state, codes, QNetwork::kMain, q2);
  EXPECT_EQ(b.invocations(OpCategory::kPredictInit), 2u);  // scope ended
}

TEST_P(BackendContract, WeightResetsDoNotClearTheLedger) {
  const auto backend = make(33);
  run_init_train(*backend, 330);
  const double accumulated =
      backend->ledger().breakdown().get(util::OpCategory::kInitTrain);
  ASSERT_GT(accumulated, 0.0);
  backend->initialize();  // §4.3 reset
  EXPECT_DOUBLE_EQ(
      backend->ledger().breakdown().get(util::OpCategory::kInitTrain),
      accumulated);
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredBackends, BackendContract,
    ::testing::ValuesIn(all_registered_cases()),
    [](const ::testing::TestParamInfo<BackendCase>& info) {
      std::string name = info.param.id;
      for (char& c : name) {
        if (c == '-' || c == '.') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace oselm::rl
