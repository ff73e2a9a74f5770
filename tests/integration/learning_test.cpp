// End-to-end learning: the paper's flagship design must actually acquire
// behaviour on the evaluation task (shaped CartPole-v0).
//
// Completion semantics follow §4.3/§4.4: the task is "complete" when an
// episode first survives the full 200-step cap (see TrainerConfig docs).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/experiment.hpp"
#include "env/registry.hpp"
#include "rl/async_server.hpp"
#include "rl/backend_registry.hpp"
#include "rl/trainer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace oselm::core {
namespace {

RunSpec paper_spec(Design design, std::size_t units, std::uint64_t seed) {
  RunSpec spec;
  spec.agent.design = design;
  spec.agent.hidden_units = units;
  spec.agent.seed = seed;
  spec.env_seed = seed * 31 + 7;  // same pairing as the benches
  spec.trainer.max_episodes = 8000;
  spec.trainer.reset_interval = 300;
  return spec;
}

TEST(Learning, OsElmL2LipschitzSolvesCartPole) {
  // The headline result: design (5) completes CartPole-v0.
  const rl::TrainResult result =
      run_experiment(paper_spec(Design::kOsElmL2Lipschitz, 32, 1));
  EXPECT_TRUE(result.solved)
      << "episodes=" << result.episodes << " resets=" << result.resets;
  EXPECT_GE(result.episode_steps.back(), 200.0);
}

TEST(Learning, OsElmL2SolvesCartPoleQuickly) {
  // §4.4: OS-ELM-L2 completes fastest of the software OS-ELM variants.
  const rl::TrainResult result =
      run_experiment(paper_spec(Design::kOsElmL2, 32, 1));
  EXPECT_TRUE(result.solved);
  EXPECT_LT(result.episodes, 4000u);
}

TEST(Learning, OsElmL2TrainingCurveGrowsWithoutResets) {
  // Fig. 4 stability: with L2 regularization the 100-episode moving
  // average improves substantially over a no-reset horizon.
  RunSpec spec = paper_spec(Design::kOsElmL2, 32, 1);
  spec.env_seed = 18;
  spec.trainer.reset_interval = 0;
  spec.trainer.solved_threshold = 1e9;  // run the full horizon
  spec.trainer.max_episodes = 1500;
  const rl::TrainResult result = run_experiment(spec);
  const auto ma = util::moving_average_series(result.episode_steps, 100);
  EXPECT_GT(ma.back(), ma[199]);  // late beats early
  EXPECT_GT(ma.back(), 60.0);     // well above the ~20-step random floor
}

TEST(Learning, DqnBaselineSolvesCartPole) {
  const rl::TrainResult result =
      run_experiment(paper_spec(Design::kDqn, 32, 3));
  EXPECT_TRUE(result.solved);
}

TEST(Learning, FpgaDesignLearnsLikeItsSoftwareTwin) {
  const rl::TrainResult result =
      run_experiment(paper_spec(Design::kFpga, 32, 1));
  EXPECT_TRUE(result.solved)
      << "episodes=" << result.episodes << " resets=" << result.resets;
}

/// Forwards to a backend and records its training stream: the state right
/// after the initial training, then every sequential-update row and its
/// target in applied order.
class RecordingBackend final : public rl::OsElmQBackend {
 public:
  explicit RecordingBackend(rl::OsElmQBackendPtr inner)
      : OsElmQBackend(inner->ledger_ptr()), inner_(std::move(inner)) {}

  void initialize() override { inner_->initialize(); }
  double predict_main(const linalg::VecD& sa) override {
    return inner_->predict_main(sa);
  }
  double predict_target(const linalg::VecD& sa) override {
    return inner_->predict_target(sa);
  }
  void predict_actions(const linalg::VecD& state, const linalg::VecD& codes,
                       rl::QNetwork which, linalg::VecD& q_out) override {
    inner_->predict_actions(state, codes, which, q_out);
  }
  void predict_actions_multi(const linalg::MatD& states,
                             const linalg::VecD& codes, rl::QNetwork which,
                             linalg::MatD& q_out) override {
    inner_->predict_actions_multi(states, codes, which, q_out);
  }
  void init_train(const linalg::MatD& x, const linalg::MatD& t) override {
    inner_->init_train(x, t);
    after_init = inner_->export_state();
    rows.clear();
    targets.clear();
  }
  void seq_train(const linalg::VecD& sa, double target) override {
    inner_->seq_train(sa, target);
    rows.push_back(sa);
    targets.push_back(target);
  }
  void seq_train_chunk(const linalg::MatD& sa_rows,
                       std::span<const double> chunk_targets) override {
    inner_->seq_train_chunk(sa_rows, chunk_targets);
    for (std::size_t r = 0; r < sa_rows.rows(); ++r) {
      rows.push_back(sa_rows.row(r));
      targets.push_back(chunk_targets[r]);
    }
  }
  void sync_target() override { inner_->sync_target(); }
  bool initialized() const override { return inner_->initialized(); }
  std::size_t input_dim() const override { return inner_->input_dim(); }
  std::size_t hidden_units() const override {
    return inner_->hidden_units();
  }
  bool supports_state_sync() const override { return true; }
  rl::QNetState export_state() const override {
    return inner_->export_state();
  }

  rl::QNetState after_init;
  std::vector<linalg::VecD> rows;
  std::vector<double> targets;

 private:
  rl::OsElmQBackendPtr inner_;
};

double max_rel_diff(const linalg::MatD& a, const linalg::MatD& b) {
  double diff = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff = std::max(diff, std::abs(a.data()[i] - b.data()[i]));
    scale = std::max(scale, std::abs(b.data()[i]));
  }
  return diff / scale;
}

TEST(Learning, SharedLockstepCohortLearnsLikeItsRowByRowReplay) {
  // Eight lockstep co-tenants train one shared network, configured as the
  // serve-train benchmark: N-tilde 64, OS-ELM-L2-Lipschitz, gamma 0.9,
  // shaped CartPole, no §4.3 resets. Two checks:
  //   * the cohort learns. Over 8 seeds x 8 sessions x 600 episodes, the
  //     mean of each session's last 100 episodes and its gain over the
  //     first 100 must clear floors. Over five disjoint 8-seed groups the
  //     two read 32.7-65.3 and 14.6-33.5 steps (a random policy lives
  //     ~20), and seeds 1-8 read 42.8 and 24.8;
  //   * the shared state equals a replay of its own training stream, one
  //     row at a time through seq_train from the post-init state, within
  //     1e-8 relative. That is how co-tenant updates must compose, and
  //     the learning floors alone cannot see a wrong P: a chunk update
  //     that skips the P downdate behaves like strong forgetting and
  //     learns about as well.
  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kEpisodes = 600;
  double early_sum = 0.0;
  double late_sum = 0.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    rl::BackendConfig config;
    config.input_dim = 5;
    config.hidden_units = 64;
    config.l2_delta = 0.5;
    config.spectral_normalize = true;
    config.seed = 1000 + seed;
    const auto backend = std::make_shared<RecordingBackend>(
        rl::make_backend("software", config));
    rl::AsyncQServer server(backend, rl::SimplifiedOutputModel(4, 2),
                            rl::lockstep_config(kSessions));
    std::vector<rl::AsyncSessionSpec> specs(kSessions);
    for (std::size_t i = 0; i < kSessions; ++i) {
      rl::AsyncSessionSpec& spec = specs[i];
      spec.mode = rl::AsyncSessionMode::kTrain;
      spec.session.env_id = "ShapedCartPole-v0";
      spec.session.env_seed = 100 * seed + 2 * i + 1;
      spec.session.agent_seed = 100 * seed + 2 * i;
      spec.session.agent.gamma = 0.9;
      spec.session.trainer.max_episodes = kEpisodes;
      spec.session.trainer.reset_interval = 0;
      spec.session.trainer.stop_on_solved = false;
    }
    rl::add_cohort(server, specs);
    for (const rl::AsyncSessionResult& r : server.drain()) {
      ASSERT_FALSE(r.failed) << r.error;
      const std::vector<double>& steps = r.train.episode_steps;
      ASSERT_EQ(steps.size(), kEpisodes);
      for (std::size_t e = 0; e < 100; ++e) {
        early_sum += steps[e];
        late_sum += steps[kEpisodes - 100 + e];
      }
    }
    server.stop();

    const auto replay = rl::make_backend("software", config);
    replay->import_state(backend->after_init);
    for (std::size_t r = 0; r < backend->rows.size(); ++r) {
      replay->seq_train(backend->rows[r], backend->targets[r]);
    }
    const rl::QNetState served = backend->export_state();
    const rl::QNetState replayed = replay->export_state();
    EXPECT_LT(max_rel_diff(served.beta, replayed.beta), 1e-8)
        << "seed " << seed << ", " << backend->rows.size() << " rows";
    EXPECT_LT(max_rel_diff(served.p, replayed.p), 1e-8)
        << "seed " << seed << ", " << backend->rows.size() << " rows";
  }
  const double runs = 8.0 * kSessions * 100.0;
  const double early = early_sum / runs;
  const double late = late_sum / runs;
  EXPECT_GT(late, 30.0) << "early " << early;
  EXPECT_GT(late - early, 10.0) << "early " << early << " late " << late;
}

TEST(Learning, RandomPolicyBaselineIsShort) {
  // Context for the numbers above: a purely random CartPole policy lives
  // ~20 steps. This pins the floor the learners must clear.
  auto env = env::make_environment("CartPole-v0", 21);
  util::Rng rng(22);
  util::RunningStat steps;
  for (int episode = 0; episode < 200; ++episode) {
    env->reset();
    std::size_t count = 0;
    for (;;) {
      const auto r = env->step(rng.uniform_index(2));
      ++count;
      if (r.done()) break;
    }
    steps.add(static_cast<double>(count));
  }
  EXPECT_LT(steps.mean(), 40.0);
  EXPECT_GT(steps.mean(), 10.0);
}

}  // namespace
}  // namespace oselm::core
