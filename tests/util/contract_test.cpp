// util/contract.hpp — the Debug contract layer.
//
// Load-bearing properties:
//   * tripped contracts die loudly in Debug: OSELM_DCHECK failures and
//     ThreadAffinity violations abort with a "contract failed" message
//     carrying the expression (and operands / thread ids);
//   * contracts are FREE in Release: macro operands are never evaluated
//     (a side-effect counter stays untouched) and ThreadAffinity is
//     inert — the same test binary proves whichever mode it was built
//     in, so the suite pins both halves across the CI matrix;
//   * the annotated structures enforce their contracts: ThreadPool
//     rejects re-entrant parallel_for, OsElm's sampled invariant scan
//     catches a poisoned P within one sampling window.
#include "util/contract.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "elm/elm.hpp"
#include "elm/os_elm.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/time_ledger.hpp"

namespace oselm {
namespace {

TEST(Contract, DcheckOperandsAreEvaluatedOnlyWhenContractsAreOn) {
  int calls = 0;
  const auto count_and_pass = [&calls]() {
    ++calls;
    return true;
  };
  OSELM_DCHECK(count_and_pass());
  EXPECT_EQ(calls, OSELM_CONTRACTS_ENABLED ? 1 : 0);

  int lhs_evals = 0;
  const auto lhs = [&lhs_evals]() {
    ++lhs_evals;
    return 7;
  };
  OSELM_DCHECK_EQ(lhs(), 7);
  OSELM_DCHECK_LE(lhs(), 8);
  EXPECT_EQ(lhs_evals, OSELM_CONTRACTS_ENABLED ? 2 : 0);

  int finite_evals = 0;
  const auto value = [&finite_evals]() {
    ++finite_evals;
    return 1.5;
  };
  OSELM_DCHECK_FINITE(value());
  EXPECT_EQ(finite_evals, OSELM_CONTRACTS_ENABLED ? 1 : 0);
}

TEST(Contract, PassingChecksAreSilentInEveryMode) {
  OSELM_DCHECK(true);
  OSELM_DCHECK_EQ(1, 1);
  OSELM_DCHECK_NE(1, 2);
  OSELM_DCHECK_LT(1, 2);
  OSELM_DCHECK_LE(2, 2);
  OSELM_DCHECK_GT(2, 1);
  OSELM_DCHECK_GE(2, 2);
  OSELM_DCHECK_FINITE(0.0);
  SUCCEED();
}

TEST(Contract, ThreadAffinitySameThreadUseIsAlwaysLegal) {
  util::ThreadAffinity affinity;
  EXPECT_FALSE(affinity.bound());
  affinity.bind();
  affinity.assert_here("same-thread assert after bind");
  affinity.assert_or_bind("same-thread sticky assert");
  EXPECT_EQ(affinity.bound(), static_cast<bool>(OSELM_CONTRACTS_ENABLED));
  affinity.release();
  EXPECT_FALSE(affinity.bound());
}

TEST(Contract, ThreadAffinityReleaseAllowsANewOwner) {
  util::ThreadAffinity affinity;
  affinity.assert_or_bind("first owner binds");
  affinity.release();
  // After release, a DIFFERENT thread may become the owner.
  std::thread other([&affinity] {
    affinity.assert_or_bind("second owner binds after release");
  });
  other.join();
  SUCCEED();
}

TEST(Contract, TimeLedgerResetHandsTheAccountOff) {
  util::TimeLedger ledger;
  ledger.charge(util::OpCategory::kSeqTrain, 0.25);
  ledger.reset();
  // The reset released the writer: another thread may charge next.
  std::thread other([&ledger] {
    ledger.charge(util::OpCategory::kSeqTrain, 0.5);
  });
  other.join();
  EXPECT_DOUBLE_EQ(ledger.breakdown().get(util::OpCategory::kSeqTrain), 0.5);
}

#if OSELM_CONTRACTS_ENABLED

using ContractDeathTest = ::testing::Test;

TEST(ContractDeathTest, TrippedDcheckPrintsTheExpressionAndAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(OSELM_DCHECK(1 + 1 == 3), "contract failed: 1 \\+ 1 == 3");
}

TEST(ContractDeathTest, TrippedComparisonPrintsBothOperands) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const int lhs = 3;
  const int rhs = 5;
  EXPECT_DEATH(OSELM_DCHECK_EQ(lhs, rhs),
               "contract failed: lhs == rhs \\(lhs = 3, rhs = 5\\)");
}

TEST(ContractDeathTest, NonFiniteValueTripsTheFiniteCheck) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const double nan = std::nan("");
  EXPECT_DEATH(OSELM_DCHECK_FINITE(nan), "contract failed: nan is finite");
}

TEST(ContractDeathTest, ThreadAffinityViolationAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        util::ThreadAffinity affinity;
        affinity.bind();  // this (death-test) thread owns it...
        std::thread violator([&affinity] {
          affinity.assert_here("owned elsewhere");  // ...this one trips
        });
        violator.join();
      },
      "contract failed: owned elsewhere \\(owner thread");
}

TEST(ContractDeathTest, ReentrantParallelForIsRejected) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        util::ThreadPool pool(2);
        pool.parallel_for(2, [&pool](std::size_t) {
          // A worker lane re-entering parallel_for would deadlock on its
          // own queue; the contract turns that hang into an abort.
          pool.parallel_for(1, [](std::size_t) {});
        });
      },
      "contract failed: !on_worker_thread\\(\\)");
}

TEST(ContractDeathTest, PoisonedPTripsTheSampledInvariantScan) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  elm::ElmConfig config;
  config.input_dim = 3;
  config.hidden_units = 4;
  config.output_dim = 1;
  config.l2_delta = 0.1;
  util::Rng rng(7);
  elm::OsElm model(config, rng);
  linalg::MatD x0(8, 3);
  linalg::MatD t0(8, 1);
  rng.fill_uniform(x0.storage(), -1.0, 1.0);
  rng.fill_uniform(t0.storage(), -1.0, 1.0);
  model.init_train(x0, t0);

  // Rebuild the model around a poisoned P (a NaN survives every later
  // update); the sampled scan must catch it within one 64-update window.
  linalg::MatD poisoned = model.p();
  poisoned(1, 2) = std::nan("");
  poisoned(2, 1) = std::nan("");
  elm::OsElm sick = elm::OsElm::from_parts(
      config, model.alpha(), model.bias(), model.beta(), poisoned, true);
  EXPECT_DEATH(
      {
        linalg::VecD x(3, 0.5);
        linalg::VecD t(1, 0.25);
        for (int i = 0; i < 65; ++i) sick.seq_train_one(x, t);
      },
      "contract failed");
}

#endif  // OSELM_CONTRACTS_ENABLED

}  // namespace
}  // namespace oselm
