#include "env/fault_env.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "env/registry.hpp"
#include "util/fault.hpp"

namespace oselm::env {
namespace {

using std::chrono::microseconds;

EnvironmentPtr cartpole(std::uint64_t seed) {
  return make_environment("CartPole-v0", seed);
}

TEST(FaultEnv, LiveDrawsMatchPreviewForEveryKind) {
  // The schedule contract: element k of the preview equals the decision
  // of the k-th reset()/step() call after construction, for ALL kinds —
  // including those whose firing reset is a no-op.
  const double rate = 0.5;
  const std::uint64_t fault_seed = 42;
  const std::size_t draws = 12;
  const std::vector<bool> preview =
      util::FaultSchedule::preview(rate, fault_seed, draws);
  for (const FaultKind kind :
       {FaultKind::kDrop, FaultKind::kReorder, FaultKind::kThrow,
        FaultKind::kSpike}) {
    FaultEnv env(cartpole(3), kind, rate, fault_seed, microseconds(1));
    std::uint64_t fired_so_far = 0;
    bool need_reset = true;
    for (std::size_t call = 0; call < draws; ++call) {
      bool threw = false;
      try {
        if (need_reset) {
          env.reset();
          need_reset = false;
        } else if (env.step(call % 2).done()) {
          need_reset = true;
        }
      } catch (const FaultInjected&) {
        threw = true;
      }
      if (preview[call]) ++fired_so_far;
      EXPECT_EQ(env.fault_count(), fired_so_far)
          << to_string(kind) << " call " << call;
      EXPECT_EQ(threw, kind == FaultKind::kThrow && preview[call])
          << to_string(kind) << " call " << call;
    }
  }
}

TEST(FaultEnv, SpikeIsLatencyOnly) {
  // kSpike at rate 1.0 sleeps on every call but the trajectory must be
  // bit-identical to the unwrapped environment — this is the invariant
  // the kEvaluate determinism scenarios pin.
  auto plain = cartpole(7);
  FaultEnv spiked(cartpole(7), FaultKind::kSpike, 1.0, 9, microseconds(1));
  EXPECT_EQ(plain->reset(), spiked.reset());
  for (std::size_t step = 0; step < 6; ++step) {
    const StepResult a = plain->step(step % 2);
    const StepResult b = spiked.step(step % 2);
    EXPECT_EQ(a.observation, b.observation) << step;
    EXPECT_DOUBLE_EQ(a.reward, b.reward) << step;
    EXPECT_EQ(a.done(), b.done()) << step;
  }
  EXPECT_EQ(spiked.fault_count(), 7u);  // reset + 6 steps, all fired
}

TEST(FaultEnv, DropDeliversTheStaleFrame) {
  // A firing drop returns the previously-delivered observation while the
  // inner environment advances normally: rewards and flags stay real.
  auto plain = cartpole(11);
  FaultEnv dropped(cartpole(11), FaultKind::kDrop, 1.0, 5);
  const Observation stale = dropped.reset();
  EXPECT_EQ(stale, plain->reset());
  for (std::size_t step = 0; step < 4; ++step) {
    const StepResult real = plain->step(step % 2);
    const StepResult seen = dropped.step(step % 2);
    EXPECT_EQ(seen.observation, stale) << step;
    EXPECT_NE(seen.observation, real.observation) << step;
    EXPECT_DOUBLE_EQ(seen.reward, real.reward) << step;
    EXPECT_EQ(seen.done(), real.done()) << step;
  }
}

TEST(FaultEnv, ReorderLagsThenSnapsToNewest) {
  // At rate 1.0 the firings alternate entering the lag (deliver stale,
  // hold fresh) and dropping the held frame (deliver newest).
  auto plain = cartpole(13);
  FaultEnv reordered(cartpole(13), FaultKind::kReorder, 1.0, 5);
  const Observation first = reordered.reset();
  EXPECT_EQ(first, plain->reset());
  std::vector<Observation> fresh;
  std::vector<Observation> seen;
  for (std::size_t step = 0; step < 4; ++step) {
    fresh.push_back(plain->step(step % 2).observation);
    seen.push_back(reordered.step(step % 2).observation);
  }
  EXPECT_EQ(seen[0], first);     // entered lag: stale frame delivered
  EXPECT_EQ(seen[1], fresh[1]);  // held frame dropped: newest delivered
  EXPECT_EQ(seen[2], fresh[1]);  // lag re-entered: stale again
  EXPECT_EQ(seen[3], fresh[3]);  // and snapped back to newest
}

TEST(FaultEnv, ThrowRaisesFaultInjectedWithContext) {
  FaultEnv env(cartpole(3), FaultKind::kThrow, 1.0, 5);
  try {
    env.reset();
    FAIL() << "expected FaultInjected";
  } catch (const FaultInjected& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("reset"), std::string::npos) << what;
    EXPECT_NE(what.find("fault:throw:1:5:CartPole-v0"), std::string::npos)
        << what;
  }
}

TEST(FaultEnv, SeedRewindsTheFaultStreamWithTheDynamics) {
  // seed() must reproduce the WHOLE run — inner dynamics and fault
  // schedule alike — and the env seed must never leak into the faults.
  FaultEnv env(cartpole(5), FaultKind::kDrop, 0.5, 42);
  const auto record = [&env] {
    std::vector<Observation> trace;
    std::vector<std::uint64_t> counts;
    trace.push_back(env.reset());
    counts.push_back(env.fault_count());
    for (std::size_t step = 0; step < 5; ++step) {
      trace.push_back(env.step(step % 2).observation);
      counts.push_back(env.fault_count());
    }
    return std::make_pair(trace, counts);
  };
  const auto first = record();
  env.seed(5);
  const auto second = record();
  EXPECT_EQ(first.first, second.first);
  // fault_count() is cumulative; the per-call increments must match.
  ASSERT_EQ(first.second.size(), second.second.size());
  const std::uint64_t base = first.second.back();
  for (std::size_t i = 1; i < first.second.size(); ++i) {
    EXPECT_EQ(first.second[i] - first.second[i - 1],
              second.second[i] - second.second[i - 1])
        << i;
  }
  EXPECT_EQ(second.second.front(), base + first.second.front());
}

TEST(FaultEnv, ConstructorValidates) {
  EXPECT_THROW(FaultEnv(nullptr, FaultKind::kDrop, 0.5, 1),
               std::invalid_argument);
  EXPECT_THROW(FaultEnv(cartpole(1), FaultKind::kDrop, 1.5, 1),
               std::invalid_argument);
  EXPECT_THROW(FaultEnv(cartpole(1), FaultKind::kDrop, -0.1, 1),
               std::invalid_argument);
  EXPECT_THROW(FaultEnv(cartpole(1), FaultKind::kDrop,
                        std::numeric_limits<double>::quiet_NaN(), 1),
               std::invalid_argument);
  EXPECT_THROW(FaultEnv(cartpole(1), FaultKind::kSpike, 0.5, 1,
                        microseconds(-1)),
               std::invalid_argument);
}

TEST(FaultEnv, ExposesItsConfigurationAndName) {
  FaultEnv env(cartpole(1), FaultKind::kReorder, 0.25, 7,
               microseconds(123));
  EXPECT_EQ(env.kind(), FaultKind::kReorder);
  EXPECT_DOUBLE_EQ(env.rate(), 0.25);
  EXPECT_EQ(env.fault_seed(), 7u);
  EXPECT_EQ(env.spike_duration(), microseconds(123));
  EXPECT_EQ(env.name(), "fault:reorder:0.25:7:CartPole-v0");
  EXPECT_EQ(env.observation_space().dimensions(), 4u);
  EXPECT_EQ(to_string(FaultKind::kDrop), "drop");
  EXPECT_EQ(to_string(FaultKind::kThrow), "throw");
  EXPECT_EQ(to_string(FaultKind::kSpike), "spike");
}

}  // namespace
}  // namespace oselm::env
