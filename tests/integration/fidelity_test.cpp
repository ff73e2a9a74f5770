// Cross-design fidelity: the FPGA functional model and the software
// OS-ELM must implement the same algorithm, and the modeled FPGA time
// must reproduce the paper's qualitative cost structure (Fig. 6).
#include <gtest/gtest.h>

#include <cstdio>

#include "core/experiment.hpp"
#include "fixed/fixed_point.hpp"
#include "hw/platform_model.hpp"
#include "rl/dqn_agent.hpp"

namespace oselm::core {
namespace {

RunSpec short_spec(Design design, std::size_t hidden = 32) {
  RunSpec spec;
  spec.agent.design = design;
  spec.agent.hidden_units = hidden;
  spec.agent.seed = 9;
  spec.env_seed = 19;
  spec.trainer.max_episodes = 120;
  spec.trainer.reset_interval = 0;
  spec.trainer.solved_threshold = 1e9;  // run the full horizon
  return spec;
}

TEST(Fidelity, FpgaBreakdownIsDominatedBySeqTrain) {
  // Fig. 6: the FPGA's programmable-logic time is mostly seq_train.
  const rl::TrainResult result = run_experiment(short_spec(Design::kFpga));
  const double seq = result.breakdown.get(util::OpCategory::kSeqTrain);
  const double pred = result.breakdown.get(util::OpCategory::kPredictSeq) +
                      result.breakdown.get(util::OpCategory::kPredictInit);
  EXPECT_GT(seq, 0.0);
  EXPECT_GT(pred, 0.0);
  EXPECT_GT(seq, pred * 0.5);  // same order; seq_train clearly significant
}

TEST(Fidelity, SoftwareOsElmBreakdownAlsoSeqTrainHeavy) {
  const rl::TrainResult result =
      run_experiment(short_spec(Design::kOsElmL2Lipschitz));
  const double seq = result.breakdown.get(util::OpCategory::kSeqTrain);
  EXPECT_GT(seq, 0.0);
  EXPECT_GT(seq, result.breakdown.get(util::OpCategory::kInitTrain) * 0.1);
}

TEST(Fidelity, FpgaModeledOpsAreFasterThanDqnModeledOps) {
  // The structural speed claim (Fig. 5, §4.4) is against DQN on the
  // PYNQ-Z1's 650 MHz Cortex-A9, so both sides are board models: the
  // FPGA's seq_train seconds come from the cycle model, and every DQN
  // training step is charged SoftwarePlatformModel::dqn_train_seconds.
  // The host-measured DQN time depends on the machine running the test;
  // it is printed, not asserted.
  const RunSpec fpga_spec = short_spec(Design::kFpga);
  const RunSpec dqn_spec = short_spec(Design::kDqn);
  const rl::TrainResult fpga = run_experiment(fpga_spec);
  const rl::TrainResult dqn = run_experiment(dqn_spec);
  const double fpga_train_per_step =
      fpga.breakdown.get(util::OpCategory::kSeqTrain) /
      static_cast<double>(fpga.total_steps);
  const double dqn_steps = static_cast<double>(dqn.total_steps);
  const double dqn_updates = static_cast<double>(
      dqn.breakdown.invocations(util::OpCategory::kTrainDqn));
  const double dqn_board_per_step =
      dqn_updates *
      hw::SoftwarePlatformModel().dqn_train_seconds(
          rl::DqnAgentConfig{}.batch_size, dqn_spec.agent.state_dim,
          dqn_spec.agent.hidden_units, dqn_spec.agent.action_count) /
      dqn_steps;
  const double dqn_host_per_step =
      dqn.breakdown.get(util::OpCategory::kTrainDqn) / dqn_steps;
  std::printf(
      "[telemetry] per-step training: FPGA modeled %.3g s, DQN board "
      "model %.3g s, DQN host-measured %.3g s (host/FPGA %.2fx)\n",
      fpga_train_per_step, dqn_board_per_step, dqn_host_per_step,
      dqn_host_per_step / fpga_train_per_step);
  EXPECT_LT(fpga_train_per_step, dqn_board_per_step);
}

TEST(Fidelity, FixedPointOverflowIsRareDuringTraining) {
  // Q11.20 must have enough headroom for CartPole-scale data: saturation
  // events during a full training run should be essentially absent.
  fixed::overflow_stats().reset();
  (void)run_experiment(short_spec(Design::kFpga));
  // u = P h^T intermediates stay inside +-2048 by a wide margin.
  EXPECT_EQ(fixed::overflow_stats().add_saturations, 0u);
  EXPECT_EQ(fixed::overflow_stats().mul_saturations, 0u);
  EXPECT_EQ(fixed::overflow_stats().div_by_zero, 0u);
}

TEST(Fidelity, DqnSpendsTimeInAllThreeDqnCategories) {
  const rl::TrainResult dqn = run_experiment(short_spec(Design::kDqn));
  EXPECT_GT(dqn.breakdown.get(util::OpCategory::kTrainDqn), 0.0);
  EXPECT_GT(dqn.breakdown.get(util::OpCategory::kPredict1), 0.0);
  EXPECT_GT(dqn.breakdown.get(util::OpCategory::kPredict32), 0.0);
  EXPECT_DOUBLE_EQ(dqn.breakdown.get(util::OpCategory::kSeqTrain), 0.0);
}

TEST(Fidelity, ModeledFpgaSecondsScaleWithHiddenUnits) {
  const rl::TrainResult small = run_experiment(short_spec(Design::kFpga, 32));
  const rl::TrainResult large =
      run_experiment(short_spec(Design::kFpga, 128));
  const double small_per_update =
      small.breakdown.get(util::OpCategory::kSeqTrain) /
      std::max(1.0, static_cast<double>(small.total_steps));
  const double large_per_update =
      large.breakdown.get(util::OpCategory::kSeqTrain) /
      std::max(1.0, static_cast<double>(large.total_steps));
  // 2N^2 scaling: 128 vs 32 units is ~16x per update; allow a wide band
  // because update counts differ between runs.
  EXPECT_GT(large_per_update, small_per_update * 4.0);
}

}  // namespace
}  // namespace oselm::core
