// OS-ELM Q-Network — Algorithm 1 with the OS-ELM-specific branches
// (lines 20-24): the paper's primary contribution (§3.2). Its rules live
// in the backend-free OsElmQRules, owned by OsElmQAgent (designs (2)-(5)
// [software] and (7) [FPGA functional model]) and by every
// rl::AsyncQServer training session alike.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "rl/agent.hpp"
#include "rl/policy.hpp"
#include "rl/sa_encoding.hpp"
#include "util/rng.hpp"

namespace oselm::rl {

struct OsElmQAgentConfig {
  double gamma = 0.99;              ///< discount rate
  double epsilon_greedy = 0.7;      ///< epsilon_1: P(act greedily)
  double update_probability = 0.5;  ///< epsilon_2: P(seq update per step)
  std::size_t target_sync_interval = 2;  ///< UPDATE_STEP (episodes)
  bool clip_targets = true;         ///< Q-value clipping to [-1, 1] (§3.1)
  bool random_update = true;        ///< §3.2 (false: update every step)

  void validate() const;
};

/// The backend-free rules of Algorithm 1 for one OS-ELM Q-learner: the
/// epsilon_1 coin, buffer D, the store / init-train / epsilon_2 / train
/// decision, the UPDATE_STEP cadence and the clipped TD target. The owner
/// evaluates the network wherever the rules need a Q value.
class OsElmQRules {
 public:
  enum class Update {
    kNone,       ///< stored in D, or skipped by the epsilon_2 coin
    kInitTrain,  ///< D is full: Eq. 7/8 on take_init_chunk()
    kSeqTrain,   ///< one Eq. 6 update toward td_target()
  };
  struct InitChunk {
    linalg::MatD x;  ///< encoded (s, a) rows
    linalg::MatD t;  ///< their TD targets
  };

  /// D holds `hidden_units` (N-tilde) samples; `seed` drives the coins.
  OsElmQRules(const OsElmQAgentConfig& config, std::size_t action_count,
              std::size_t hidden_units, std::uint64_t seed);

  /// Lines 9-13: the epsilon_1 coin. Empty means act greedily (argmax
  /// over Q_theta1(s, .)), otherwise the uniformly random action.
  std::optional<std::size_t> explore() {
    if (policy_.should_act_greedily(rng_)) return std::nullopt;
    return policy_.random_action(rng_);
  }

  /// Lines 14-22 for one transition. A part-filled D is dropped once the
  /// network is trained (a co-tenant of a shared network trained it).
  Update observe(const nn::Transition& transition, bool initialized);

  /// r + (1 - d) * gamma * max_next_q, clipped when clip_targets (§3.1);
  /// `max_next_q` is max_a Q_theta2(s', a).
  [[nodiscard]] double td_target(double reward, bool done,
                                 double max_next_q) const;

  /// Lines 23-24: whether theta_2 <- theta_1 is due after this episode.
  [[nodiscard]] bool sync_due(std::size_t episodes_since_reset) const {
    return episodes_since_reset % config_.target_sync_interval == 0;
  }

  /// Lines 17-19: the Eq. 7/8 chunk from D, `max_next_q(s')` evaluating
  /// the non-terminal rows; frees D, as the edge device does.
  InitChunk take_init_chunk(
      const SimplifiedOutputModel& model,
      const std::function<double(const linalg::VecD&)>& max_next_q);

  /// Frees D untrained: a stale chunk, or fresh weights (§4.3 reset).
  void drop_buffer() { std::vector<nn::Transition>().swap(buffer_); }
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

 private:
  OsElmQAgentConfig config_;
  GreedyWithProbabilityPolicy policy_;
  util::Rng rng_;
  std::size_t capacity_;
  std::vector<nn::Transition> buffer_;  ///< buffer D
};

class OsElmQAgent final : public Agent {
 public:
  /// `backend` provides the arithmetic; `model` the (s, a) encoding;
  /// `seed` drives exploration and the random-update coin flips. The
  /// agent accounts time through the backend's TimeLedger.
  OsElmQAgent(OsElmQBackendPtr backend, SimplifiedOutputModel model,
              OsElmQAgentConfig config, std::uint64_t seed,
              std::string_view display_name = "OS-ELM");

  std::size_t act(const linalg::VecD& state) override;
  void observe(const nn::Transition& transition) override;
  void episode_end(std::size_t episodes_since_reset) override;
  void reset_weights() override;
  [[nodiscard]] bool supports_weight_reset() const override { return true; }
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] const util::OpBreakdown& breakdown() const override {
    return backend_->ledger().breakdown();
  }

  /// Greedy action under theta_1 (no exploration): one batched
  /// predict_actions call, ties toward the lowest action index.
  std::size_t greedy_action(const linalg::VecD& state);

  /// Q_theta1(s, a) (prediction time charged as usual).
  double q_value(const linalg::VecD& state, std::size_t action);

  [[nodiscard]] const OsElmQBackend& backend() const noexcept {
    return *backend_;
  }
  [[nodiscard]] std::size_t buffered_samples() const noexcept {
    return rules_.buffered();
  }
  [[nodiscard]] std::size_t seq_updates() const noexcept {
    return seq_updates_;
  }
  [[nodiscard]] std::size_t init_trainings() const noexcept {
    return init_trainings_;
  }

 private:
  OsElmQBackendPtr backend_;
  SimplifiedOutputModel model_;
  OsElmQRules rules_;
  std::string name_;

  linalg::VecD scratch_sa_;     ///< reused encode buffer (no hot-loop allocs)
  linalg::VecD action_codes_;   ///< precomputed codes for predict_actions
  linalg::VecD q_ws_;           ///< per-action Q workspace (no allocs)
  std::size_t seq_updates_ = 0;
  std::size_t init_trainings_ = 0;
};

}  // namespace oselm::rl
