#include "env/registry.hpp"

#include <gtest/gtest.h>

#include "env/fault_env.hpp"

namespace oselm::env {
namespace {

TEST(Registry, AllRegisteredIdsConstruct) {
  for (const std::string& id : registered_environments()) {
    const EnvironmentPtr env = make_environment(id, 1);
    ASSERT_NE(env, nullptr) << id;
    const Observation obs = env->reset();
    EXPECT_EQ(obs.size(), env->observation_space().dimensions()) << id;
    EXPECT_GE(env->action_space().n, 2u) << id;
  }
}

TEST(Registry, UnknownIdThrows) {
  EXPECT_THROW(make_environment("Pong-v5"), std::invalid_argument);
  EXPECT_THROW(make_environment(""), std::invalid_argument);
}

TEST(Registry, CartPoleIdsHaveExpectedNames) {
  EXPECT_EQ(make_environment("CartPole-v0")->name(), "CartPole-v0");
  // The shaped wrapper keeps the inner environment's name.
  EXPECT_EQ(make_environment("ShapedCartPole-v0")->name(), "CartPole-v0");
}

TEST(Registry, SeedsPropagate) {
  auto a = make_environment("CartPole-v0", 42);
  auto b = make_environment("CartPole-v0", 42);
  EXPECT_EQ(a->reset(), b->reset());
}

TEST(Registry, ShapedCartPoleHasShapedRewards) {
  auto env = make_environment("ShapedCartPole-v0", 3);
  env->reset();
  EXPECT_DOUBLE_EQ(env->step(1).reward, 0.0);  // raw CartPole would pay 1
}

TEST(Registry, ListsSevenEnvironments) {
  EXPECT_EQ(registered_environments().size(), 7u);
}

TEST(Registry, ShapedMountainCarRewardsGoalReaching) {
  auto env = make_environment("ShapedMountainCar-v0", 3);
  env->reset();
  // Ordinary step: 0 instead of the raw -1.
  EXPECT_DOUBLE_EQ(env->step(1).reward, 0.0);
}

TEST(Registry, ShapedAcrobotConstructs) {
  auto env = make_environment("ShapedAcrobot-v1", 3);
  const Observation obs = env->reset();
  EXPECT_EQ(obs.size(), 6u);
}

TEST(Registry, DelayModifierWrapsWithoutChangingDynamics) {
  auto plain = make_environment("ShapedCartPole-v0", 99);
  auto delayed = make_environment("delay:200:ShapedCartPole-v0", 99);
  EXPECT_EQ(delayed->name(), "delay:200:CartPole-v0");
  EXPECT_EQ(delayed->observation_space().dimensions(),
            plain->observation_space().dimensions());
  EXPECT_EQ(delayed->action_space().n, plain->action_space().n);
  // Identical trajectory: the wrapper only adds time, never randomness.
  EXPECT_EQ(plain->reset(), delayed->reset());
  for (std::size_t step = 0; step < 5; ++step) {
    const StepResult a = plain->step(step % 2);
    const StepResult b = delayed->step(step % 2);
    EXPECT_EQ(a.observation, b.observation) << step;
    EXPECT_DOUBLE_EQ(a.reward, b.reward) << step;
    EXPECT_EQ(a.done(), b.done()) << step;
  }
}

TEST(Registry, DelayModifierNests) {
  auto env = make_environment("delay:100:delay:50:GridWorld", 5);
  EXPECT_EQ(env->name(), "delay:100:delay:50:GridWorld");
  EXPECT_EQ(env->reset().size(), env->observation_space().dimensions());
}

TEST(Registry, RegisteredModifiersExposeBothFamilies) {
  // registered_environments() lists only the concrete ids, so callers
  // that enumerate-then-construct (contract suites, scenario specs) need
  // the modifier prefixes too — a "delay:"- or "fault:"-wrapped id is
  // constructible even though no enumerated id starts with either.
  const std::vector<std::string> modifiers = registered_modifiers();
  ASSERT_EQ(modifiers.size(), 2u);
  EXPECT_EQ(modifiers[0], "delay:");
  EXPECT_EQ(modifiers[1], "fault:");
  // Prefix + a well-formed argument + any registered id constructs.
  for (const std::string& id : registered_environments()) {
    ASSERT_NE(make_environment("delay:1:" + id, 1), nullptr) << id;
    ASSERT_NE(make_environment("fault:drop:0.5:9:" + id, 1), nullptr)
        << id;
  }
}

TEST(Registry, FaultModifierWrapsAndNests) {
  auto env = make_environment("fault:drop:0.25:7:ShapedCartPole-v0", 11);
  EXPECT_EQ(env->name(), "fault:drop:0.25:7:CartPole-v0");
  EXPECT_EQ(env->observation_space().dimensions(), 4u);
  // The name round-trips the id, rate digits included.
  EXPECT_EQ(make_environment("fault:drop:0.123456789:7:CartPole-v0")->name(),
            "fault:drop:0.123456789:7:CartPole-v0");
  // Nesting with itself and with delay: composes like any modifier.
  auto nested =
      make_environment("delay:100:fault:spike:0.1:3:GridWorld", 5);
  EXPECT_EQ(nested->reset().size(),
            nested->observation_space().dimensions());
  auto doubled =
      make_environment("fault:drop:0.1:1:fault:spike:0.1:2:GridWorld", 5);
  EXPECT_EQ(doubled->reset().size(),
            doubled->observation_space().dimensions());
}

TEST(Registry, MalformedFaultIdsThrow) {
  EXPECT_THROW(make_environment("fault:"), std::invalid_argument);
  EXPECT_THROW(make_environment("fault:drop"), std::invalid_argument);
  EXPECT_THROW(make_environment("fault:drop:0.5"), std::invalid_argument);
  EXPECT_THROW(make_environment("fault:drop:0.5:9"),
               std::invalid_argument);
  EXPECT_THROW(make_environment("fault:drop:0.5:9:"),
               std::invalid_argument);
  EXPECT_THROW(make_environment("fault:flood:0.5:9:GridWorld"),
               std::invalid_argument);
  EXPECT_THROW(make_environment("fault:drop:1.5:9:GridWorld"),
               std::invalid_argument);
  EXPECT_THROW(make_environment("fault:drop:-0.1:9:GridWorld"),
               std::invalid_argument);
  EXPECT_THROW(make_environment("fault:drop:lots:9:GridWorld"),
               std::invalid_argument);
  // The rate field is as strict as the seed field: no stray whitespace.
  EXPECT_THROW(make_environment("fault:drop: 0.5:7:CartPole-v0"),
               std::invalid_argument);
  EXPECT_THROW(make_environment("fault:drop:0.5:nine:GridWorld"),
               std::invalid_argument);
  // Over-long seed fields throw instead of wrapping modulo 2^64.
  EXPECT_THROW(
      make_environment("fault:drop:0.5:18446744073709551617:GridWorld"),
      std::invalid_argument);
  EXPECT_THROW(make_environment("fault:drop:0.5:9:NoSuchEnv"),
               std::invalid_argument);
}

TEST(Registry, UnknownFaultKindListsTheValidKinds) {
  // The message must enumerate every valid kind (the fault_kinds() single
  // source), so a chaos-spec typo tells the operator what to write.
  try {
    make_environment("fault:flood:0.5:9:GridWorld");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown fault kind 'flood'"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find(fault_kinds()), std::string::npos) << message;
    EXPECT_EQ(fault_kinds(), "drop|reorder|throw|spike");
  }
}

TEST(Registry, UnknownIdListsEnvironmentsAndModifierFamilies) {
  try {
    make_environment("Pong-v5");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown id 'Pong-v5'"), std::string::npos)
        << message;
    for (const std::string& id : registered_environments()) {
      EXPECT_NE(message.find(id), std::string::npos)
          << "message lacks environment '" << id << "': " << message;
    }
    EXPECT_NE(message.find("modifiers: delay:, fault:"), std::string::npos)
        << message;
  }
}

TEST(Registry, NestedFaultErrorsReportTheFullOuterId) {
  // Error-reporting parity with delay:: a nested failure names the FULL
  // outer id regardless of which modifier family wraps which.
  const auto expect_mentions = [](const std::string& id) {
    try {
      (void)make_environment(id);
      FAIL() << "expected std::invalid_argument for '" << id << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + id + "'"),
                std::string::npos)
          << "message '" << e.what() << "' lacks the outer id '" << id
          << "'";
    }
  };
  expect_mentions("fault:drop:0.5:9:NoSuchEnv");
  expect_mentions("fault:drop:0.5:9:fault:spike:0.1:1:NoSuchEnv");
  expect_mentions("fault:drop:0.5:9:delay:oops:GridWorld");
  expect_mentions("delay:100:fault:flood:0.5:9:GridWorld");
}

TEST(Registry, NestedMalformedInnerIdsReportTheFullOuterId) {
  // A bad inner id inside nested "delay:" wrappers must surface the FULL
  // outer id, not just the innermost fragment — callers built the outer
  // string and grep their logs for it.
  const auto expect_mentions = [](const std::string& id) {
    try {
      (void)make_environment(id);
      FAIL() << "expected std::invalid_argument for '" << id << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + id + "'"),
                std::string::npos)
          << "message '" << e.what() << "' lacks the outer id '" << id
          << "'";
    }
  };
  expect_mentions("delay:100:NoSuchEnv");
  expect_mentions("delay:100:delay:50:NoSuchEnv");
  expect_mentions("delay:100:delay:oops:GridWorld");
  expect_mentions("delay:100:delay:50:");
}

TEST(Registry, MalformedDelayIdsThrow) {
  EXPECT_THROW(make_environment("delay:"), std::invalid_argument);
  EXPECT_THROW(make_environment("delay:500"), std::invalid_argument);
  EXPECT_THROW(make_environment("delay:500:"), std::invalid_argument);
  EXPECT_THROW(make_environment("delay::GridWorld"), std::invalid_argument);
  EXPECT_THROW(make_environment("delay:12ms:GridWorld"),
               std::invalid_argument);
  EXPECT_THROW(make_environment("delay:100:NoSuchEnv"),
               std::invalid_argument);
  // Over-long numeric fields throw instead of wrapping modulo 2^64.
  EXPECT_THROW(make_environment("delay:18446744073709551617:GridWorld"),
               std::invalid_argument);
  EXPECT_THROW(make_environment("delay:9999999999999:GridWorld"),
               std::invalid_argument);
}

}  // namespace
}  // namespace oselm::env
