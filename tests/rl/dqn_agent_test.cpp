#include "rl/dqn_agent.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "env/registry.hpp"
#include "linalg/kernels.hpp"
#include "test_support.hpp"
#include "util/hash.hpp"

// Counts heap allocations made through operator new in this test binary.
namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace oselm::rl {
namespace {

DqnAgentConfig small_config() {
  DqnAgentConfig cfg;
  cfg.state_dim = 4;
  cfg.action_count = 2;
  cfg.hidden_units = 16;
  cfg.batch_size = 4;
  cfg.learning_starts = 4;
  cfg.replay_capacity = 100;
  return cfg;
}

nn::Transition transition(double reward, bool done = false) {
  return nn::Transition{{0.1, 0.2, 0.3, 0.4}, 1, reward,
                        {0.5, 0.6, 0.7, 0.8}, done};
}

TEST(DqnAgentConfig, Validation) {
  DqnAgentConfig cfg = small_config();
  cfg.action_count = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config();
  cfg.gamma = -0.1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config();
  cfg.replay_capacity = 2;  // below batch size
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config();
  cfg.target_sync_interval = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(DqnAgent, TargetStartsIdenticalToOnline) {
  DqnAgent agent(small_config(), 1);
  const linalg::VecD x{0.1, -0.2, 0.3, -0.4};
  const linalg::VecD online = agent.online_network().forward(x);
  const linalg::VecD target = agent.target_network().forward(x);
  for (std::size_t i = 0; i < online.size(); ++i) {
    EXPECT_EQ(online[i], target[i]);
  }
}

TEST(DqnAgent, TrainingStartsAfterLearningStarts) {
  DqnAgent agent(small_config(), 2);
  for (int i = 0; i < 3; ++i) agent.observe(transition(0.0));
  EXPECT_EQ(agent.training_steps(), 0u);
  agent.observe(transition(0.0));  // 4th: batch available
  EXPECT_EQ(agent.training_steps(), 1u);
  agent.observe(transition(0.0));
  EXPECT_EQ(agent.training_steps(), 2u);  // every step thereafter
}

TEST(DqnAgent, TrainingChangesOnlineButNotTargetWeights) {
  DqnAgent agent(small_config(), 3);
  const linalg::VecD x{0.1, 0.2, 0.3, 0.4};
  const linalg::VecD target_before = agent.target_network().forward(x);
  for (int i = 0; i < 20; ++i) agent.observe(transition(1.0));
  const linalg::VecD online_after = agent.online_network().forward(x);
  const linalg::VecD target_after = agent.target_network().forward(x);
  bool online_moved = false;
  for (std::size_t i = 0; i < online_after.size(); ++i) {
    if (online_after[i] != target_after[i]) online_moved = true;
    EXPECT_EQ(target_after[i], target_before[i]);  // frozen theta_2
  }
  EXPECT_TRUE(online_moved);
}

TEST(DqnAgent, EpisodeEndSyncsTargetEveryInterval) {
  DqnAgentConfig cfg = small_config();
  cfg.target_sync_interval = 2;
  DqnAgent agent(cfg, 4);
  for (int i = 0; i < 10; ++i) agent.observe(transition(0.5));
  const linalg::VecD x{0.1, 0.2, 0.3, 0.4};
  const linalg::VecD online = agent.online_network().forward(x);

  agent.episode_end(1);  // no sync yet
  const linalg::VecD target1 = agent.target_network().forward(x);
  bool differs = false;
  for (std::size_t i = 0; i < online.size(); ++i) {
    if (target1[i] != online[i]) differs = true;
  }
  EXPECT_TRUE(differs);

  agent.episode_end(2);  // sync
  const linalg::VecD online2 = agent.online_network().forward(x);
  const linalg::VecD target2 = agent.target_network().forward(x);
  for (std::size_t i = 0; i < online2.size(); ++i) {
    EXPECT_EQ(target2[i], online2[i]);
  }
}

TEST(DqnAgent, BreakdownUsesDqnCategories) {
  DqnAgent agent(small_config(), 5);
  (void)agent.greedy_action({0.0, 0.0, 0.0, 0.0});
  for (int i = 0; i < 8; ++i) agent.observe(transition(0.0));
  const util::OpBreakdown& b = agent.breakdown();
  EXPECT_GT(b.get(util::OpCategory::kPredict1), 0.0);
  EXPECT_GT(b.get(util::OpCategory::kPredict32), 0.0);
  EXPECT_GT(b.get(util::OpCategory::kTrainDqn), 0.0);
  // The OS-ELM categories stay untouched.
  EXPECT_DOUBLE_EQ(b.get(util::OpCategory::kSeqTrain), 0.0);
  EXPECT_DOUBLE_EQ(b.get(util::OpCategory::kInitTrain), 0.0);
}

TEST(DqnAgent, DoesNotSupportWeightReset) {
  // §4.3: the reset rule applies to the ELM/OS-ELM designs only.
  DqnAgent agent(small_config(), 6);
  EXPECT_FALSE(agent.supports_weight_reset());
}

TEST(DqnAgent, LastLossBecomesFiniteAndDecreasesOnConstantTask) {
  DqnAgentConfig cfg = small_config();
  cfg.gamma = 0.0;  // pure reward regression: Q(s, a) -> r
  DqnAgent agent(cfg, 7);
  double early_loss = 0.0;
  for (int i = 0; i < 400; ++i) {
    agent.observe(transition(1.0, true));
    if (i == 10) early_loss = agent.last_loss();
  }
  EXPECT_TRUE(std::isfinite(agent.last_loss()));
  EXPECT_LT(agent.last_loss(), early_loss);
}

TEST(DqnAgent, GreedyActionIsArgmaxOfOnlineNetwork) {
  DqnAgent agent(small_config(), 8);
  const linalg::VecD x{0.3, -0.1, 0.2, 0.0};
  const linalg::VecD q = agent.online_network().forward(x);
  const std::size_t expected = q[0] >= q[1] ? 0u : 1u;
  EXPECT_EQ(agent.greedy_action(x), expected);
}

TEST(DqnAgent, ResetWeightsClearsReplayAndOptimizer) {
  DqnAgent agent(small_config(), 9);
  for (int i = 0; i < 10; ++i) agent.observe(transition(0.0));
  ASSERT_GT(agent.training_steps(), 0u);
  agent.reset_weights();
  EXPECT_EQ(agent.training_steps(), 0u);
  // New observations need to refill the replay before training resumes.
  agent.observe(transition(0.0));
  EXPECT_EQ(agent.training_steps(), 0u);
}

/// FNV-1a over the bit patterns of every online-network parameter.
std::uint64_t weight_digest(const nn::Mlp& net) {
  std::uint64_t hash = util::kFnv1aOffsetBasis;
  const auto fold = [&hash](const double* data, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      hash = util::fnv1a_u64(std::bit_cast<std::uint64_t>(data[i]), hash);
    }
  };
  fold(net.w1().data(), net.w1().size());
  fold(net.b1().data(), net.b1().size());
  fold(net.w2().data(), net.w2().size());
  fold(net.b2().data(), net.b2().size());
  return hash;
}

/// Drives `agent` through `steps` CartPole-v0 steps with the trainer's
/// episode loop and target syncs.
void run_cartpole(DqnAgent& agent, int steps) {
  const env::EnvironmentPtr env = env::make_environment("CartPole-v0", 77);
  linalg::VecD state = env->reset();
  std::size_t episodes = 0;
  for (int step = 0; step < steps; ++step) {
    const std::size_t action = agent.act(state);
    const env::StepResult result = env->step(action);
    agent.observe(nn::Transition{state, action, result.reward,
                                 result.observation, result.done()});
    state = result.observation;
    if (result.done()) {
      agent.episode_end(++episodes);
      state = env->reset();
    }
  }
}

TEST(DqnAgent, FixedSeedRunReproducesPinnedWeightsBitForBit) {
  // 500 CartPole steps at the paper's DQN shapes (64 hidden units, batch
  // 32), with the trainer's episode loop and target syncs. The digest was
  // recorded from the plain i-k-j GEMM and scalar MLP/Adam code; any
  // change to the order or fusion of a floating-point operation on the
  // DQN path changes it. It must hold on both kernel sets.
  for (const bool simd : {false, true}) {
    if (simd && !linalg::kernels::simd_available()) continue;
    const test_support::KernelSetScope scope(simd);
    DqnAgent agent(DqnAgentConfig{}, 2024);
    run_cartpole(agent, 500);
    ASSERT_EQ(agent.training_steps(), 500u - 31u);
    EXPECT_EQ(weight_digest(agent.online_network()), 0xe6b43ff9556fcb1bull)
        << (simd ? "avx2" : "scalar");
  }
}

TEST(DqnAgent, SimdTrainingMatchesScalarBitForBitOverFiveThousandSteps) {
  if (!linalg::kernels::simd_available()) {
    GTEST_SKIP() << "no SIMD kernel set on this host";
  }
  DqnAgent scalar(DqnAgentConfig{}, 31);
  DqnAgent simd(DqnAgentConfig{}, 31);
  {
    const test_support::KernelSetScope scope(false);
    run_cartpole(scalar, 5000);
  }
  {
    const test_support::KernelSetScope scope(true);
    run_cartpole(simd, 5000);
  }
  ASSERT_EQ(simd.training_steps(), scalar.training_steps());
  EXPECT_EQ(weight_digest(simd.online_network()),
            weight_digest(scalar.online_network()));
  EXPECT_EQ(weight_digest(simd.target_network()),
            weight_digest(scalar.target_network()));
  const auto simd_moments = simd.optimizer().moments();
  const auto scalar_moments = scalar.optimizer().moments();
  for (std::size_t t = 0; t < simd_moments.size(); ++t) {
    const linalg::VecD& a = *simd_moments[t];
    const linalg::VecD& b = *scalar_moments[t];
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
                std::bit_cast<std::uint64_t>(b[i]))
          << "moment tensor " << t << " element " << i;
    }
  }
}

TEST(DqnAgent, SteadyStateStepsDoNotAllocate) {
  // Once the replay ring is full and the workspaces are warm, observe()
  // (push + train_step) and greedy_action() reuse storage only.
  DqnAgent agent(small_config(), 12);
  nn::Transition t = transition(0.0);
  const auto step = [&](int i) {
    t.reward = i % 3;
    t.done = i % 7 == 0;
    agent.observe(t);
    (void)agent.greedy_action(t.state);
  };
  for (int i = 0; i < 150; ++i) step(i);
  const std::size_t before = g_allocations;
  for (int i = 0; i < 200; ++i) step(i);
  EXPECT_EQ(g_allocations - before, 0u);
}

TEST(DqnAgent, NameIsDqn) {
  DqnAgent agent(small_config(), 10);
  EXPECT_EQ(agent.name(), "DQN");
}

}  // namespace
}  // namespace oselm::rl
