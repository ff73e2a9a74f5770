// util::FaultSchedule, the modifier-id grammar, and the fault-decorator
// contract.
//
// The FaultGrammar and FaultSchedule suites pin the shared primitive. The
// typed FaultDecoratorContract suite runs the SAME schedule checks
// against env::FaultEnv and rl::FaultBackend, so neither decorator can
// drift from it. Kind-specific effects (drop/reorder/spike/throw and
// throw/stall/nan) stay in tests/env/fault_env_test.cpp and
// tests/rl/fault_backend_test.cpp.
#include "util/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "env/fault_env.hpp"
#include "env/registry.hpp"
#include "linalg/matrix.hpp"
#include "rl/backend_registry.hpp"
#include "rl/fault_backend.hpp"
#include "util/rng.hpp"

namespace oselm {
namespace {

using std::chrono::microseconds;

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

TEST(FaultSchedule, PreviewIsTheLiveDrawSequence) {
  util::FaultSchedule schedule("test", 0.3, 11);
  const std::vector<bool> preview = util::FaultSchedule::preview(0.3, 11, 40);
  for (std::size_t k = 0; k < preview.size(); ++k) {
    EXPECT_EQ(schedule.draw(), preview[k]) << k;
  }
  const auto fired = std::ranges::count(preview, true);
  EXPECT_EQ(schedule.draws(), 40u);
  EXPECT_EQ(schedule.fires(), static_cast<std::uint64_t>(fired));
}

TEST(FaultSchedule, RewindRestartsTheStreamButNotTheCounters) {
  util::FaultSchedule schedule("test", 0.5, 4);
  const std::vector<bool> preview = util::FaultSchedule::preview(0.5, 4, 16);
  for (std::size_t k = 0; k < 10; ++k) (void)schedule.draw();
  const std::uint64_t fires = schedule.fires();
  schedule.rewind();
  for (std::size_t k = 0; k < preview.size(); ++k) {
    EXPECT_EQ(schedule.draw(), preview[k]) << k;
  }
  EXPECT_EQ(schedule.draws(), 26u);
  EXPECT_GE(schedule.fires(), fires);
}

TEST(FaultSchedule, RejectsRatesOutsideTheUnitIntervalNamingTheOwner) {
  expect_invalid_argument([] { util::FaultSchedule("Owner", 1.5, 1); },
                          {"Owner: rate 1.5 outside [0, 1]"});
  expect_invalid_argument(
      [] { (void)util::FaultSchedule::preview(-0.1, 1, 4); },
      {"rate -0.1 outside [0, 1]"});
}

TEST(FaultGrammar, FormatsTheCanonicalFaultId) {
  EXPECT_EQ(util::canonical_rate(0.05), "0.05");
  EXPECT_EQ(util::canonical_rate(1.0), "1");
  EXPECT_EQ(util::canonical_rate(0.123456789), "0.123456789");
  EXPECT_EQ(util::format_fault_id("drop", 0.123456789, 7, "CartPole-v0"),
            "fault:drop:0.123456789:7:CartPole-v0");
  // No inner id: the bare modifier prefix.
  EXPECT_EQ(util::format_fault_id("throw", 1.0, 9, ""), "fault:throw:1:9");
}

TEST(FaultGrammar, ParseInvertsFormat) {
  const std::string inner = "fault:spike:0.5:3:GridWorld";
  const std::string id = util::format_fault_id("nan", 0.375, 42, inner);
  const util::FaultId fault =
      util::parse_fault_id("caller", id, "throw|stall|nan");
  EXPECT_EQ(fault.kind, 2u);
  EXPECT_DOUBLE_EQ(fault.rate, 0.375);
  EXPECT_EQ(fault.seed, 42u);
  EXPECT_EQ(fault.inner_id, inner);
}

TEST(FaultGrammar, KindListsResolveByPosition) {
  EXPECT_EQ(util::kind_index("throw|stall|nan", "throw"), 0u);
  EXPECT_EQ(util::kind_index("throw|stall|nan", "nan"), 2u);
  EXPECT_EQ(util::kind_index("throw|stall|nan", "melt"),
            std::string_view::npos);
  EXPECT_EQ(util::kind_index("throw|stall|nan", "sta"), std::string_view::npos);
  EXPECT_EQ(util::kind_name("throw|stall|nan", 1), "stall");
  EXPECT_EQ(util::kind_name("throw|stall|nan", 3), "unknown");
}

TEST(FaultGrammar, ModifierIdSplitsFieldsFromTheInnerId) {
  const util::ModifierId delay("caller", "delay:500:fault:drop:0.1:1:X",
                               "delay:<micros>:<inner-id>");
  EXPECT_EQ(delay.field(0), "500");
  EXPECT_EQ(delay.inner(), "fault:drop:0.1:1:X");
  EXPECT_EQ(delay.u64(0, "delay"), 500u);
  for (const char* id : {"delay:", "delay:5", "delay:5:", "delay::X"}) {
    expect_invalid_argument(
        [id] {
          (void)util::ModifierId("caller", id, "delay:<micros>:<inner-id>");
        },
        {"caller: malformed delay id", "(expected delay:<micros>:<inner-id>)"});
  }
}

TEST(FaultGrammar, NumericFieldsAreStrict) {
  const auto field = [](const std::string& text) {
    return util::ModifierId("caller", "m:" + text + ":X", "m:<n>:<inner>");
  };
  for (const char* text : {" 5", "+5", "5x", "-1"}) {
    expect_invalid_argument([&] { (void)field(text).u64(0, "count"); },
                            {"caller: non-numeric count in"});
  }
  expect_invalid_argument(
      [&] { (void)field("18446744073709551616").u64(0, "seed"); },
      {"seed in", "exceeds 64 bits"});
  expect_invalid_argument(
      [&] { (void)field("101").u64(0, "delay", 100, "us"); },
      {"delay in", "exceeds 100 us"});
  EXPECT_EQ(field("18446744073709551615").u64(0, "seed"), UINT64_MAX);

  const std::vector<std::string> bad_rates = {
      " 0.5", "0.5 ", "0x1p-1", "nan", "inf", "1.5", "-0.1", ".", "1e-400"};
  for (const std::string& text : bad_rates) {
    expect_invalid_argument([&] { (void)field(text).rate(0, "rate"); },
                            {"is not a number in [0, 1]"});
  }
  EXPECT_DOUBLE_EQ(field("2.5e-1").rate(0, "rate"), 0.25);
}

TEST(FaultGrammar, NestedFailuresNameTheOuterIdOnce) {
  const auto fail_with = [](const std::string& message) {
    return [message]() -> int { throw std::invalid_argument(message); };
  };
  expect_invalid_argument(
      [&] { (void)util::within_modifier("outer", fail_with("inner broke")); },
      {"inner broke (inside modifier id 'outer')"});
  try {
    (void)util::within_modifier("outer", fail_with("bad 'outer'"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "bad 'outer'");
  }
  EXPECT_EQ(util::within_modifier("outer", [] { return 7; }), 7);
}

// ---- The fault-decorator contract ------------------------------------

/// env::FaultEnv under the contract: every reset() and step() draws.
class EnvDecorator {
 public:
  EnvDecorator(std::size_t kind, double rate, std::uint64_t seed,
               microseconds duration = microseconds(1))
      : fault_(env::make_environment("CartPole-v0", 3),
               static_cast<env::FaultKind>(kind), rate, seed, duration) {}

  static std::string_view kinds() { return env::fault_kinds(); }

  /// One draw-consuming call; true when it threw the injected failure.
  bool call() {
    try {
      if (need_reset_) {
        fault_.reset();
        need_reset_ = false;
      } else if (fault_.step(0).done()) {
        need_reset_ = true;
      }
    } catch (const env::FaultInjected&) {
      return true;
    }
    return false;
  }

  [[nodiscard]] std::uint64_t fault_count() const {
    return fault_.fault_count();
  }

  /// FaultEnv::seed, then a fresh episode.
  void seed(std::uint64_t env_seed) {
    fault_.seed(env_seed);
    need_reset_ = true;
  }

 private:
  env::FaultEnv fault_;
  bool need_reset_ = true;
};

/// rl::FaultBackend under the contract: every serving-path call draws.
class BackendDecorator {
 public:
  BackendDecorator(std::size_t kind, double rate, std::uint64_t seed,
                   microseconds duration = microseconds(1))
      : fault_(trained_backend(), static_cast<rl::BackendFaultKind>(kind), rate,
               seed, duration) {}

  static std::string_view kinds() { return rl::backend_fault_kinds(); }

  /// One draw-consuming call; true when it threw the injected failure.
  bool call() {
    try {
      (void)fault_.predict_main(linalg::VecD(kInputDim, 0.2));
    } catch (const rl::BackendFaultInjected&) {
      return true;
    }
    return false;
  }

  [[nodiscard]] std::uint64_t fault_count() const {
    return fault_.fault_count();
  }

 private:
  static constexpr std::size_t kInputDim = 5;
  static constexpr std::size_t kHidden = 8;

  /// Eq. 8 initial training applied to the inner backend (no draw).
  static rl::OsElmQBackendPtr trained_backend() {
    rl::BackendConfig config;
    config.input_dim = kInputDim;
    config.hidden_units = kHidden;
    rl::OsElmQBackendPtr backend = rl::make_backend("software", config);
    util::Rng rng(21);
    linalg::MatD x(kHidden, kInputDim);
    linalg::MatD t(kHidden, 1);
    rng.fill_uniform(x.storage(), -1.0, 1.0);
    rng.fill_uniform(t.storage(), -1.0, 1.0);
    backend->init_train(x, t);
    return backend;
  }

  rl::FaultBackend fault_;
};

/// Number of entries in a '|'-separated kind list.
std::size_t kind_count(std::string_view kinds) {
  return static_cast<std::size_t>(std::ranges::count(kinds, '|')) + 1;
}

/// The fault-count increments of `calls` draw-consuming calls.
template <typename Decorator>
std::vector<bool> observed_schedule(Decorator& decorator, std::size_t calls) {
  std::vector<bool> fired;
  for (std::size_t k = 0; k < calls; ++k) {
    const std::uint64_t before = decorator.fault_count();
    (void)decorator.call();
    fired.push_back(decorator.fault_count() > before);
  }
  return fired;
}

template <typename Decorator>
class FaultDecoratorContract : public ::testing::Test {};

struct DecoratorNames {
  template <typename Decorator>
  static std::string GetName(int /*index*/) {
    return std::is_same_v<Decorator, EnvDecorator> ? "Env" : "Backend";
  }
};

using Decorators = ::testing::Types<EnvDecorator, BackendDecorator>;
TYPED_TEST_SUITE(FaultDecoratorContract, Decorators, DecoratorNames);

TYPED_TEST(FaultDecoratorContract, LiveDrawsMatchThePreviewForEveryKind) {
  // Element k of the preview is the decision of the k-th call, for every
  // kind; fault_count() counts exactly the fired draws, and only the
  // throw kind throws, exactly when its draw fires.
  const std::vector<bool> preview = util::FaultSchedule::preview(0.5, 42, 24);
  const std::string_view kinds = TypeParam::kinds();
  for (std::size_t kind = 0; kind < kind_count(kinds); ++kind) {
    const std::string_view name = util::kind_name(kinds, kind);
    TypeParam decorator(kind, 0.5, 42);
    std::uint64_t fired = 0;
    for (std::size_t k = 0; k < preview.size(); ++k) {
      const bool threw = decorator.call();
      if (preview[k]) ++fired;
      EXPECT_EQ(decorator.fault_count(), fired) << name << " call " << k;
      EXPECT_EQ(threw, name == "throw" && preview[k]) << name << " call " << k;
    }
  }
}

TYPED_TEST(FaultDecoratorContract, TheScheduleIsAPureFunctionOfTheSeed) {
  TypeParam a(0, 0.3, 7);
  TypeParam b(0, 0.3, 7);
  TypeParam c(0, 0.3, 8);
  const std::vector<bool> seen = observed_schedule(a, 64);
  EXPECT_EQ(seen, util::FaultSchedule::preview(0.3, 7, 64));
  EXPECT_EQ(seen, observed_schedule(b, 64));
  EXPECT_NE(seen, observed_schedule(c, 64));
}

TYPED_TEST(FaultDecoratorContract, RateZeroNeverFiresAndRateOneAlwaysFires) {
  for (std::size_t kind = 0; kind < kind_count(TypeParam::kinds()); ++kind) {
    TypeParam never(kind, 0.0, 5);
    TypeParam always(kind, 1.0, 5);
    EXPECT_EQ(observed_schedule(never, 16), std::vector<bool>(16, false));
    EXPECT_EQ(observed_schedule(always, 16), std::vector<bool>(16, true));
  }
}

TYPED_TEST(FaultDecoratorContract, RejectsBadRatesAndNegativeDurations) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double rate : {-0.1, 1.5, nan}) {
    EXPECT_THROW(TypeParam(0, rate, 1), std::invalid_argument) << rate;
  }
  EXPECT_THROW(TypeParam(0, 0.5, 1, microseconds(-1)), std::invalid_argument);
}

TEST(FaultDecoratorContract, EnvSeedRewindsTheSchedule) {
  // seed() restarts the fault schedule at ITS OWN seed, whatever the env
  // seed: the calls after it replay the preview from the start.
  const std::vector<bool> preview = util::FaultSchedule::preview(0.5, 42, 12);
  EnvDecorator decorator(0, 0.5, 42);
  EXPECT_EQ(observed_schedule(decorator, 12), preview);
  for (const std::uint64_t env_seed : {3u, 99u}) {
    decorator.seed(env_seed);
    EXPECT_EQ(observed_schedule(decorator, 12), preview) << env_seed;
  }
}

}  // namespace
}  // namespace oselm
