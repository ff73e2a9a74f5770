// rl::FaultBackend — the backend-side twin of env::FaultEnv.
//
// Load-bearing properties:
//   * seeded determinism: the fire/no-fire sequence is a pure function of
//     (rate, seed) and matches util::FaultSchedule::preview exactly;
//   * fault isolation: the decorator's rng never perturbs the inner
//     backend — learned weights are bit-identical with and without it;
//   * state management never faults: initialize / export_state /
//     import_state pass through un-faulted and consume no schedule draw,
//     because replica replacement and periodic averaging must keep
//     working on a backend whose serving path is mid-failure;
//   * registry grammar: "fault:<kind>:<rate>:<seed>:<inner-id>" parses,
//     nests, and reports malformed ids with the same error style as the
//     env registry.
#include "rl/fault_backend.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "rl/backend_registry.hpp"
#include "rl/software_backend.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace oselm::rl {
namespace {

constexpr std::size_t kInputDim = 5;
constexpr std::size_t kHidden = 8;

BackendConfig small_config(std::uint64_t seed = 3) {
  BackendConfig config;
  config.input_dim = kInputDim;
  config.hidden_units = kHidden;
  config.l2_delta = 0.5;
  config.seed = seed;
  return config;
}

OsElmQBackendPtr inner_backend(std::uint64_t seed = 3) {
  return make_backend("software", small_config(seed));
}

/// Eq. 8 initial training on seeded random data so predict paths work.
void train_backend(OsElmQBackend& backend, std::uint64_t seed = 21) {
  util::Rng rng(seed);
  linalg::MatD x(kHidden, kInputDim);
  linalg::MatD t(kHidden, 1);
  rng.fill_uniform(x.storage(), -1.0, 1.0);
  rng.fill_uniform(t.storage(), -1.0, 1.0);
  backend.init_train(x, t);
}

template <typename Fn>
void expect_invalid_argument(Fn&& fn,
                             std::initializer_list<const char*> fragments) {
  try {
    fn();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    for (const char* fragment : fragments) {
      EXPECT_NE(message.find(fragment), std::string::npos)
          << "message '" << message << "' lacks '" << fragment << "'";
    }
  }
}

TEST(FaultBackend, FiringSequenceMatchesThePreviewContract) {
  // The preview IS the schedule: decision k of the preview equals the
  // decision of the k-th draw-consuming call after construction.
  const std::vector<bool> preview = util::FaultSchedule::preview(0.5, 99, 32);
  FaultBackend backend(inner_backend(), BackendFaultKind::kNan, 0.5, 99);
  train_backend(backend);  // consumes draw #0 (init_train is serving-path)
  const linalg::VecD sa(kInputDim, 0.2);
  std::size_t fired = preview[0] ? 1u : 0u;
  for (std::size_t i = 1; i < 32; ++i) {
    const double q = backend.predict_main(sa);
    if (preview[i]) ++fired;
    EXPECT_EQ(std::isnan(q), preview[i]) << "call " << i;
  }
  EXPECT_EQ(backend.fault_count(), fired);
}

TEST(FaultBackend, ThrowKindThrowsTheDistinctTypeWithContext) {
  FaultBackend backend(inner_backend(), BackendFaultKind::kThrow, 1.0, 9);
  train_backend(*backend.inner());  // train the inner directly: no draw
  const linalg::VecD sa(kInputDim, 0.2);
  try {
    (void)backend.predict_main(sa);
    FAIL() << "expected BackendFaultInjected";
  } catch (const BackendFaultInjected& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("injected failure on predict_main"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("fault:throw:1:9"), std::string::npos)
        << message;
  }
}

TEST(FaultBackend, NanKindCorruptsPredictionsButNeverTraining) {
  // Same config seed, same training data: weights must come out
  // bit-identical through a rate-1 kNan wrapper, because NaN corruption
  // applies to PREDICT OUTPUTS only and training passes through.
  const OsElmQBackendPtr clean = inner_backend(11);
  train_backend(*clean);
  FaultBackend faulty(inner_backend(11), BackendFaultKind::kNan, 1.0, 5);
  train_backend(faulty);
  const linalg::VecD sa(kInputDim, 0.4);
  faulty.seq_train(sa, 0.7);
  clean->seq_train(sa, 0.7);

  EXPECT_TRUE(std::isnan(faulty.predict_main(sa)));
  EXPECT_TRUE(std::isnan(faulty.predict_target(sa)));
  linalg::VecD codes(2);
  codes[0] = -1.0;
  codes[1] = 1.0;
  linalg::VecD q_out(2);
  faulty.predict_actions(linalg::VecD(kInputDim - 1, 0.1), codes,
                         QNetwork::kMain, q_out);
  EXPECT_TRUE(std::isnan(q_out[0]));
  EXPECT_TRUE(std::isnan(q_out[1]));

  const QNetState a = clean->export_state();
  const QNetState b = faulty.export_state();
  EXPECT_EQ(a.beta.storage(), b.beta.storage());
  EXPECT_EQ(a.p.storage(), b.p.storage());
}

TEST(FaultBackend, StallKindIsLatencyOnly) {
  // A firing stall delays the call but the computed values are
  // bit-identical to the unwrapped backend — the delay-only contract.
  const OsElmQBackendPtr clean = inner_backend(13);
  train_backend(*clean);
  FaultBackend stalled(inner_backend(13), BackendFaultKind::kStall, 1.0, 5,
                       std::chrono::microseconds(50));
  train_backend(stalled);
  const linalg::VecD sa(kInputDim, 0.25);
  EXPECT_DOUBLE_EQ(stalled.predict_main(sa), clean->predict_main(sa));
  EXPECT_DOUBLE_EQ(stalled.predict_target(sa), clean->predict_target(sa));
  EXPECT_GT(stalled.fault_count(), 0u);
}

TEST(FaultBackend, StateManagementNeverFaultsAndConsumesNoDraw) {
  // rate = 1: every draw-consuming call would throw. initialize,
  // export_state and import_state must still pass through untouched —
  // replacement seeding and averaging depend on exactly this.
  FaultBackend backend(inner_backend(), BackendFaultKind::kThrow, 1.0, 9);
  train_backend(*backend.inner());
  EXPECT_TRUE(backend.initialized());
  const QNetState state = backend.export_state();
  EXPECT_TRUE(state.initialized);
  EXPECT_NO_THROW(backend.import_state(state));
  EXPECT_NO_THROW(backend.initialize());
  EXPECT_FALSE(backend.initialized());
  EXPECT_EQ(backend.fault_count(), 0u);

  const linalg::VecD sa(kInputDim, 0.2);
  EXPECT_THROW((void)backend.predict_main(sa), BackendFaultInjected);
  EXPECT_EQ(backend.fault_count(), 1u);
}

TEST(FaultBackend, ChargesTheInnerLedger) {
  const OsElmQBackendPtr inner = make_backend("software", small_config());
  FaultBackend backend(inner, BackendFaultKind::kStall, 0.0, 1);
  EXPECT_EQ(&backend.ledger(), &inner->ledger());
  (void)backend.predict_main(linalg::VecD(kInputDim, 0.1));
  const util::OpBreakdown& b = inner->ledger().breakdown();
  EXPECT_EQ(b.invocations(util::OpCategory::kPredictInit), 1u);
}

TEST(FaultBackend, ConstructorRejectsBadArguments) {
  EXPECT_THROW(FaultBackend(nullptr, BackendFaultKind::kThrow, 0.5, 1),
               std::invalid_argument);
  EXPECT_THROW(FaultBackend(inner_backend(), BackendFaultKind::kThrow,
                            1.5, 1),
               std::invalid_argument);
  EXPECT_THROW(FaultBackend(inner_backend(), BackendFaultKind::kStall, 0.5,
                            1, std::chrono::microseconds(-1)),
               std::invalid_argument);
}

TEST(FaultBackendRegistry, BuildsFromTheModifierId) {
  const OsElmQBackendPtr backend =
      make_backend("fault:throw:0.25:7:software", small_config());
  const auto* fault = dynamic_cast<FaultBackend*>(backend.get());
  ASSERT_NE(fault, nullptr);
  EXPECT_EQ(fault->kind(), BackendFaultKind::kThrow);
  EXPECT_DOUBLE_EQ(fault->rate(), 0.25);
  EXPECT_EQ(fault->fault_seed(), 7u);
  EXPECT_NE(dynamic_cast<SoftwareOsElmBackend*>(fault->inner().get()),
            nullptr);
}

TEST(FaultBackendRegistry, NestsWithItself) {
  const OsElmQBackendPtr backend = make_backend(
      "fault:nan:0.1:3:fault:stall:0.2:4:software", small_config());
  const auto* outer = dynamic_cast<FaultBackend*>(backend.get());
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->kind(), BackendFaultKind::kNan);
  const auto* nested = dynamic_cast<FaultBackend*>(outer->inner().get());
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(nested->kind(), BackendFaultKind::kStall);
}

TEST(FaultBackendRegistry, ContainsAndCapabilitiesRecurse) {
  EXPECT_TRUE(
      BackendRegistry::global().contains("fault:throw:0.5:1:software"));
  EXPECT_FALSE(
      BackendRegistry::global().contains("fault:throw:0.5:1:tpu-v9"));
  const BackendCapabilities& caps =
      backend_capabilities("fault:nan:0.5:1:fpga-q20");
  EXPECT_TRUE(caps.fixed_point);  // the wrapper is capability-transparent
}

TEST(FaultBackendRegistry, MalformedIdsReportTheGrammar) {
  expect_invalid_argument(
      [] { (void)make_backend("fault:throw", small_config()); },
      {"malformed fault id",
       "(expected fault:<kind>:<rate>:<seed>:<inner-id>)"});
  expect_invalid_argument(
      [] { (void)make_backend("fault:melt:0.5:1:software", small_config()); },
      {"unknown fault kind", "melt", "throw|stall|nan"});
  expect_invalid_argument(
      [] { (void)make_backend("fault:throw:1.5:1:software", small_config()); },
      {"fault rate", "1.5"});
  expect_invalid_argument(
      [] { (void)make_backend("fault:throw:0.5:x:software", small_config()); },
      {"fault seed"});
}

TEST(FaultBackendRegistry, NestedErrorsNameTheOuterModifier) {
  // Same nested-error parity as the env registry: a bad inner id names
  // both the inner failure and the outer modifier it was inside.
  expect_invalid_argument(
      [] {
        (void)make_backend("fault:throw:0.5:1:analog-q4", small_config());
      },
      {"unknown backend id", "analog-q4", "inside modifier id",
       "fault:throw:0.5:1:analog-q4"});
}

TEST(FaultBackendRegistry, UnknownIdErrorListsTheModifierFamily) {
  expect_invalid_argument(
      [] { (void)make_backend("analog-q4", small_config()); },
      {"unknown backend id", "modifiers: fault:"});
  const std::vector<std::string> modifiers = registered_backend_modifiers();
  ASSERT_EQ(modifiers.size(), 1u);
  EXPECT_EQ(modifiers[0], "fault:");
}

}  // namespace
}  // namespace oselm::rl
