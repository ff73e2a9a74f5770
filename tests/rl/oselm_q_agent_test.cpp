#include "rl/oselm_q_agent.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "rl/software_backend.hpp"

namespace oselm::rl {
namespace {

/// Records every backend interaction so the Algorithm 1 control flow can
/// be asserted precisely. Charges fixed per-op seconds to its ledger so
/// the routing (PredictScope retargeting, init/seq categories) is
/// assertable bit-for-bit.
class MockBackend final : public OsElmQBackend {
 public:
  MockBackend(std::size_t input, std::size_t hidden)
      : OsElmQBackend(nullptr), input_dim_(input), hidden_(hidden) {}

  void initialize() override {
    ++initialize_calls;
    initialized_ = false;
  }
  double predict_main(const linalg::VecD& sa) override {
    main_inputs.push_back(sa);
    ledger_->charge_predict(initialized_, 0.001);
    // Q depends on the action code (last slot) so argmax is deterministic:
    // action with code +1 wins.
    return sa.back();
  }
  double predict_target(const linalg::VecD& sa) override {
    target_inputs.push_back(sa);
    ledger_->charge_predict(initialized_, 0.002);
    return target_q;
  }
  void predict_actions(const linalg::VecD& state,
                       const linalg::VecD& action_codes, QNetwork which,
                       linalg::VecD& q_out) override {
    if (q_out.size() != action_codes.size()) {
      throw std::invalid_argument("MockBackend::predict_actions: q_out");
    }
    if (which == QNetwork::kMain) {
      batched_main_states.push_back(state);
      batched_codes = action_codes;
      // Mirrors the single-sample mock: Q equals the action code unless a
      // tie script overrides it, so argmax behavior is assertable.
      for (std::size_t a = 0; a < action_codes.size(); ++a) {
        q_out[a] = tie_all_actions ? 0.125 : action_codes[a];
      }
      ledger_->charge_predict(initialized_,
                              0.001 * static_cast<double>(q_out.size()),
                              q_out.size());
      return;
    }
    batched_target_states.push_back(state);
    for (std::size_t a = 0; a < action_codes.size(); ++a) q_out[a] = target_q;
    ledger_->charge_predict(initialized_,
                            0.002 * static_cast<double>(q_out.size()),
                            q_out.size());
  }
  void init_train(const linalg::MatD& x, const linalg::MatD& t) override {
    init_x = x;
    init_t = t;
    initialized_ = true;
    ++init_calls;
    ledger_->charge(util::OpCategory::kInitTrain, 0.25);
  }
  void seq_train(const linalg::VecD& sa, double target) override {
    seq_inputs.push_back(sa);
    seq_targets.push_back(target);
    ledger_->charge(util::OpCategory::kSeqTrain, 0.125);
  }
  void sync_target() override { ++sync_calls; }
  [[nodiscard]] bool initialized() const override { return initialized_; }
  [[nodiscard]] std::size_t input_dim() const override { return input_dim_; }
  [[nodiscard]] std::size_t hidden_units() const override { return hidden_; }

  std::size_t input_dim_;
  std::size_t hidden_;
  bool initialized_ = false;
  double target_q = 0.0;
  bool tie_all_actions = false;
  int initialize_calls = 0;
  int init_calls = 0;
  int sync_calls = 0;
  std::vector<linalg::VecD> main_inputs;
  std::vector<linalg::VecD> target_inputs;
  std::vector<linalg::VecD> batched_main_states;
  std::vector<linalg::VecD> batched_target_states;
  linalg::VecD batched_codes;
  std::vector<linalg::VecD> seq_inputs;
  std::vector<double> seq_targets;
  linalg::MatD init_x;
  linalg::MatD init_t;
};

struct AgentWithMock {
  MockBackend* mock;
  std::unique_ptr<OsElmQAgent> agent;
};

AgentWithMock make_agent(OsElmQAgentConfig config, std::size_t hidden = 4,
                         std::uint64_t seed = 9) {
  auto backend = std::make_unique<MockBackend>(5, hidden);
  MockBackend* raw = backend.get();
  auto agent = std::make_unique<OsElmQAgent>(
      std::move(backend), SimplifiedOutputModel(4, 2), config, seed);
  return {raw, std::move(agent)};
}

nn::Transition transition(double reward, bool done = false) {
  return nn::Transition{{0.1, 0.2, 0.3, 0.4}, 1, reward,
                        {0.5, 0.6, 0.7, 0.8}, done};
}

TEST(OsElmQAgentConfig, Validation) {
  OsElmQAgentConfig cfg;
  cfg.gamma = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = OsElmQAgentConfig{};
  cfg.epsilon_greedy = -0.1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = OsElmQAgentConfig{};
  cfg.target_sync_interval = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(OsElmQAgent, RejectsBackendEncoderWidthMismatch) {
  OsElmQAgentConfig cfg;
  auto backend = std::make_unique<MockBackend>(7, 4);  // encoder wants 5
  EXPECT_THROW(OsElmQAgent(std::move(backend), SimplifiedOutputModel(4, 2),
                           cfg, 1),
               std::invalid_argument);
}

TEST(OsElmQAgent, BufferFillsToHiddenUnitsThenInitTrains) {
  OsElmQAgentConfig cfg;
  auto [mock, agent] = make_agent(cfg, /*hidden=*/4);
  for (int i = 0; i < 3; ++i) agent->observe(transition(0.0));
  EXPECT_EQ(mock->init_calls, 0);
  EXPECT_EQ(agent->buffered_samples(), 3u);
  agent->observe(transition(0.0));  // 4th sample -> Eq. 7/8 fires
  EXPECT_EQ(mock->init_calls, 1);
  EXPECT_EQ(agent->buffered_samples(), 0u);  // buffer D released
  EXPECT_EQ(mock->init_x.rows(), 4u);
  EXPECT_EQ(mock->init_x.cols(), 5u);
  EXPECT_EQ(mock->init_t.cols(), 1u);
}

TEST(OsElmQAgent, InitTargetsAreClippedTdTargets) {
  OsElmQAgentConfig cfg;
  cfg.gamma = 0.9;
  auto [mock, agent] = make_agent(cfg, /*hidden=*/2);
  mock->target_q = 10.0;  // wildly optimistic target network
  agent->observe(transition(0.0));
  agent->observe(transition(0.0));
  ASSERT_EQ(mock->init_calls, 1);
  // 0 + 0.9 * 10 = 9 -> clipped to 1 (Q-value clipping, §3.1).
  EXPECT_DOUBLE_EQ(mock->init_t(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(mock->init_t(1, 0), 1.0);
}

TEST(OsElmQAgent, TerminalTransitionSkipsBootstrap) {
  OsElmQAgentConfig cfg;
  cfg.gamma = 0.9;
  cfg.random_update = false;  // deterministic updates
  auto [mock, agent] = make_agent(cfg, /*hidden=*/1);
  mock->target_q = 10.0;
  agent->observe(transition(0.0));  // fills buffer, init-trains
  ASSERT_TRUE(mock->initialized());
  mock->batched_target_states.clear();  // drop init-training target queries

  agent->observe(transition(-1.0, /*done=*/true));
  ASSERT_EQ(mock->seq_targets.size(), 1u);
  // d == 1: target = clip(r) = -1, no Q_theta2 evaluation.
  EXPECT_DOUBLE_EQ(mock->seq_targets[0], -1.0);
  EXPECT_TRUE(mock->batched_target_states.empty());
}

TEST(OsElmQAgent, NonTerminalTargetUsesMaxOverActions) {
  OsElmQAgentConfig cfg;
  cfg.gamma = 0.5;
  cfg.random_update = false;
  auto [mock, agent] = make_agent(cfg, /*hidden=*/1);
  mock->target_q = 0.6;
  agent->observe(transition(0.0));  // init train
  mock->batched_target_states.clear();

  agent->observe(transition(0.25));
  ASSERT_EQ(mock->seq_targets.size(), 1u);
  // target = 0.25 + 0.5 * 0.6 = 0.55 (within the clip range).
  EXPECT_DOUBLE_EQ(mock->seq_targets[0], 0.55);
  // max over both actions => ONE batched theta_2 evaluation on s'.
  EXPECT_EQ(mock->batched_target_states.size(), 1u);
  EXPECT_DOUBLE_EQ(mock->batched_target_states[0][0], 0.5);  // s' forwarded
}

TEST(OsElmQAgent, SeqTrainEncodesTakenStateAction) {
  OsElmQAgentConfig cfg;
  cfg.random_update = false;
  auto [mock, agent] = make_agent(cfg, /*hidden=*/1);
  agent->observe(transition(0.0));
  agent->observe(transition(0.0));
  ASSERT_EQ(mock->seq_inputs.size(), 1u);
  const linalg::VecD& sa = mock->seq_inputs[0];
  EXPECT_DOUBLE_EQ(sa[0], 0.1);   // s, not s'
  EXPECT_DOUBLE_EQ(sa[4], 1.0);   // action 1 -> code +1
}

TEST(OsElmQAgent, RandomUpdateGatesRoughlyAtEpsilon2) {
  OsElmQAgentConfig cfg;
  cfg.update_probability = 0.5;
  auto [mock, agent] = make_agent(cfg, /*hidden=*/1, /*seed=*/123);
  agent->observe(transition(0.0));  // init train
  constexpr int kSteps = 10000;
  for (int i = 0; i < kSteps; ++i) agent->observe(transition(0.0));
  const double rate =
      static_cast<double>(agent->seq_updates()) / kSteps;
  EXPECT_NEAR(rate, 0.5, 0.02);  // §3.2's per-step Bernoulli coin
}

TEST(OsElmQAgent, RandomUpdateDisabledTrainsEveryStep) {
  OsElmQAgentConfig cfg;
  cfg.random_update = false;
  auto [mock, agent] = make_agent(cfg, /*hidden=*/1);
  agent->observe(transition(0.0));
  for (int i = 0; i < 100; ++i) agent->observe(transition(0.0));
  EXPECT_EQ(agent->seq_updates(), 100u);
}

TEST(OsElmQAgent, TargetSyncEveryUpdateStepEpisodes) {
  OsElmQAgentConfig cfg;
  cfg.target_sync_interval = 2;  // the paper's UPDATE_STEP
  auto [mock, agent] = make_agent(cfg);
  agent->episode_end(1);
  EXPECT_EQ(mock->sync_calls, 0);
  agent->episode_end(2);
  EXPECT_EQ(mock->sync_calls, 1);
  agent->episode_end(3);
  EXPECT_EQ(mock->sync_calls, 1);
  agent->episode_end(4);
  EXPECT_EQ(mock->sync_calls, 2);
}

TEST(OsElmQAgent, GreedyActionPicksArgmaxAndChargesPredicts) {
  OsElmQAgentConfig cfg;
  auto [mock, agent] = make_agent(cfg);
  // Mock Q equals the action code, so action 1 (+1) must win.
  EXPECT_EQ(agent->greedy_action({0.0, 0.0, 0.0, 0.0}), 1u);
  // One batched evaluation covering both actions.
  EXPECT_EQ(mock->batched_main_states.size(), 1u);
  EXPECT_EQ(mock->batched_codes, (linalg::VecD{-1.0, 1.0}));
  // Before init training, prediction time goes to predict_init; counts
  // stay one-per-evaluation (2 actions) for the board-time models.
  EXPECT_GT(agent->breakdown().get(util::OpCategory::kPredictInit), 0.0);
  EXPECT_EQ(agent->breakdown().invocations(util::OpCategory::kPredictInit),
            2u);
  EXPECT_DOUBLE_EQ(agent->breakdown().get(util::OpCategory::kPredictSeq),
                   0.0);
}

TEST(OsElmQAgent, GreedyActionBreaksTiesTowardLowestAction) {
  OsElmQAgentConfig cfg;
  auto [mock, agent] = make_agent(cfg);
  mock->tie_all_actions = true;  // every action reports the same Q
  EXPECT_EQ(agent->greedy_action({0.0, 0.0, 0.0, 0.0}), 0u);
}

TEST(OsElmQAgent, PredictionChargesSwitchAfterInitTraining) {
  OsElmQAgentConfig cfg;
  auto [mock, agent] = make_agent(cfg, /*hidden=*/1);
  agent->observe(transition(0.0));  // init-trains
  (void)agent->greedy_action({0.0, 0.0, 0.0, 0.0});
  EXPECT_GT(agent->breakdown().get(util::OpCategory::kPredictSeq), 0.0);
}

TEST(OsElmQAgent, BreakdownChargesBackendReportedSeconds) {
  OsElmQAgentConfig cfg;
  cfg.random_update = false;
  auto [mock, agent] = make_agent(cfg, /*hidden=*/2);
  agent->observe(transition(0.0));
  agent->observe(transition(0.0));  // init train: 0.25s + target predicts
  agent->observe(transition(0.0, /*done=*/true));  // seq train: 0.125s
  // Each buffered sample pays one batched target evaluation (2 actions
  // at 0.002 each in the mock).
  EXPECT_NEAR(agent->breakdown().get(util::OpCategory::kInitTrain),
              0.25 + 2 * 2 * 0.002, 1e-12);
  EXPECT_NEAR(agent->breakdown().get(util::OpCategory::kSeqTrain), 0.125,
              1e-12);
}

TEST(OsElmQAgent, ResetReinitializesBackendAndBuffer) {
  OsElmQAgentConfig cfg;
  auto [mock, agent] = make_agent(cfg, /*hidden=*/8);
  agent->observe(transition(0.0));
  EXPECT_EQ(agent->buffered_samples(), 1u);
  agent->reset_weights();
  EXPECT_EQ(mock->initialize_calls, 1);
  EXPECT_EQ(agent->buffered_samples(), 0u);
  EXPECT_TRUE(agent->supports_weight_reset());
}

TEST(OsElmQAgent, ActMixesGreedyAndRandom) {
  OsElmQAgentConfig cfg;
  cfg.epsilon_greedy = 0.7;
  auto [mock, agent] = make_agent(cfg, 4, /*seed=*/321);
  int greedy_wins = 0;
  constexpr int kSteps = 5000;
  for (int i = 0; i < kSteps; ++i) {
    if (agent->act({0.0, 0.0, 0.0, 0.0}) == 1) ++greedy_wins;
  }
  // Greedy always picks 1 (70%); random picks 1 half the rest (15%).
  EXPECT_NEAR(static_cast<double>(greedy_wins) / kSteps, 0.85, 0.03);
}

TEST(OsElmQAgent, EndToEndWithSoftwareBackendLearnsBufferedTargets) {
  // Smoke-level integration with the real software backend: after the
  // initial training, Q predictions must be finite and bounded.
  SoftwareBackendConfig backend_cfg;
  backend_cfg.elm.input_dim = 5;
  backend_cfg.elm.hidden_units = 8;
  backend_cfg.elm.output_dim = 1;
  backend_cfg.elm.l2_delta = 0.5;
  backend_cfg.spectral_normalize = true;
  auto backend = std::make_unique<SoftwareOsElmBackend>(backend_cfg, 5);

  OsElmQAgentConfig cfg;
  cfg.random_update = false;
  OsElmQAgent agent(std::move(backend), SimplifiedOutputModel(4, 2), cfg, 6,
                    "test");
  for (int i = 0; i < 20; ++i) {
    agent.observe(transition(i % 3 == 0 ? -1.0 : 0.0, i % 5 == 4));
  }
  EXPECT_EQ(agent.init_trainings(), 1u);
  EXPECT_GT(agent.seq_updates(), 0u);
  const double q = agent.q_value({0.1, 0.2, 0.3, 0.4}, 1);
  EXPECT_TRUE(std::isfinite(q));
  EXPECT_LT(std::abs(q), 10.0);  // clipped targets keep Q in a sane range
}

}  // namespace
}  // namespace oselm::rl
