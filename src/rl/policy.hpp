// Exploration policy of Algorithm 1 (lines 10-13).
//
// Note the inverted convention relative to textbook epsilon-greedy: the
// paper acts GREEDILY with probability epsilon_1 (= 0.7) and randomly
// otherwise. Reproduced as written.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

#include "util/rng.hpp"

namespace oselm::rl {

class GreedyWithProbabilityPolicy {
 public:
  /// greedy_probability is the paper's epsilon_1.
  GreedyWithProbabilityPolicy(double greedy_probability,
                              std::size_t action_count);

  /// True when this step should act greedily (line 10).
  [[nodiscard]] bool should_act_greedily(util::Rng& rng) const {
    return rng.bernoulli(greedy_probability_);
  }

  /// Uniformly random action (line 13).
  [[nodiscard]] std::size_t random_action(util::Rng& rng) const {
    return static_cast<std::size_t>(rng.uniform_index(action_count_));
  }

  [[nodiscard]] double greedy_probability() const noexcept {
    return greedy_probability_;
  }
  [[nodiscard]] std::size_t action_count() const noexcept {
    return action_count_;
  }

 private:
  double greedy_probability_;
  std::size_t action_count_;
};

/// The greedy action over Q(s, .): the first maximum, so ties break toward
/// the lowest action index.
[[nodiscard]] inline std::size_t argmax_action(std::span<const double> q) {
  return static_cast<std::size_t>(std::max_element(q.begin(), q.end()) -
                                  q.begin());
}

}  // namespace oselm::rl
