// ELM Q-Network — design (1) of §4.1: Algorithm 1 without the
// OS-ELM-specific branches. The network is batch-retrained every time
// buffer D (capacity N-tilde) fills (§3.2: "updated only when buffer D
// becomes full"), using the simplified output model and Q-value clipping.
//
// Reconstruction note: the paper is silent on when the ELM variant syncs
// theta_2. Batch training replaces beta wholesale, so this implementation
// snapshots theta_2 <- theta_1 right after each batch train, preserving
// fixed-target semantics between trainings.
#pragma once

#include <vector>

#include "elm/elm.hpp"
#include "rl/agent.hpp"
#include "rl/policy.hpp"
#include "rl/sa_encoding.hpp"
#include "util/rng.hpp"

namespace oselm::rl {

struct ElmQAgentConfig {
  std::size_t hidden_units = 64;
  double gamma = 0.99;
  double epsilon_greedy = 0.7;  ///< epsilon_1
  bool clip_targets = true;  ///< Q-value clipping to [-1, 1] (§3.1)
  double init_low = -1.0;
  double init_high = 1.0;
};

class ElmQAgent final : public Agent {
 public:
  ElmQAgent(SimplifiedOutputModel model, ElmQAgentConfig config,
            std::uint64_t seed);

  std::size_t act(const linalg::VecD& state) override;
  void observe(const nn::Transition& transition) override;
  void episode_end(std::size_t episodes_since_reset) override;
  void reset_weights() override;
  [[nodiscard]] bool supports_weight_reset() const override { return true; }
  [[nodiscard]] std::string_view name() const override { return "ELM"; }
  [[nodiscard]] const util::OpBreakdown& breakdown() const override {
    return ledger_.breakdown();
  }

  std::size_t greedy_action(const linalg::VecD& state);
  [[nodiscard]] std::size_t batch_trainings() const noexcept {
    return batch_trainings_;
  }
  [[nodiscard]] const elm::Elm& network() const noexcept { return net_; }

 private:
  double q_main(const linalg::VecD& state, std::size_t action);
  double td_target(const nn::Transition& transition);
  void run_batch_train();

  SimplifiedOutputModel model_;
  ElmQAgentConfig config_;
  GreedyWithProbabilityPolicy policy_;
  util::Rng rng_;
  elm::Elm net_;
  linalg::MatD beta_target_;

  std::vector<nn::Transition> buffer_;  ///< ring buffer D of capacity N
  std::size_t pushes_ = 0;
  util::TimeLedger ledger_;
  linalg::VecD scratch_sa_;
  std::size_t batch_trainings_ = 0;
};

}  // namespace oselm::rl
