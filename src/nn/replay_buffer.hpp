// Uniform experience-replay buffer (Lin 1993; §2.4). The DQN baseline
// samples uniformly at random; this is exactly the large buffer the paper
// argues is infeasible on the edge device (motivating §3.2's random update).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "util/rng.hpp"

namespace oselm::nn {

/// One (s, a, r, s', d) experience tuple.
struct Transition {
  linalg::VecD state;
  std::size_t action = 0;
  double reward = 0.0;
  linalg::VecD next_state;
  bool done = false;
};

class ReplayBuffer {
 public:
  explicit ReplayBuffer(std::size_t capacity);

  /// Appends a transition, evicting the oldest once at capacity. Once
  /// full, the evicted slot's vectors are reused (no allocation).
  void push(const Transition& transition);

  /// Samples `count` transitions uniformly with replacement.
  [[nodiscard]] std::vector<Transition> sample(std::size_t count,
                                               util::Rng& rng) const;

  /// sample() without the copies: `out` receives pointers to the stored
  /// transitions (valid until the next push or clear), from the same
  /// rng draws as sample().
  void sample_into(std::size_t count, util::Rng& rng,
                   std::vector<const Transition*>& out) const;

  [[nodiscard]] std::size_t size() const noexcept { return storage_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty() const noexcept { return storage_.empty(); }

  /// Oldest-first access for deterministic iteration in tests.
  [[nodiscard]] const Transition& at(std::size_t logical_index) const;

  void clear() noexcept;

 private:
  std::size_t capacity_;
  std::vector<Transition> storage_;
  std::size_t next_ = 0;  ///< ring-buffer write cursor once full
};

}  // namespace oselm::nn
