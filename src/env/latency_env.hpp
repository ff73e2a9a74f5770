// Step-latency injection wrapper for serving benchmarks and tests.
//
// The async serving work (rl/async_server.hpp) is motivated by
// heterogeneous environment latency: a fleet where some sessions talk to
// slow sensors or remote simulators while others run fast local physics.
// The repo's built-in environments all step in nanoseconds, so this
// decorator adds a configurable per-call delay to reset() and step(),
// modeling an I/O-bound environment. The delay sleeps (does not spin), so
// N delayed sessions overlap on a thread pool the way N blocking sensor
// reads would — which is exactly the regime where lockstep ticks lose to
// asynchronous scheduling.
//
// The wrapped dynamics are untouched: trajectories, spaces, and seeding
// are bit-identical to the inner environment's.
//
// Registry integration: env::make_environment accepts
// "delay:<micros>:<inner-id>" (e.g. "delay:500:ShapedCartPole-v0"), so
// any component that names environments by id — serving session specs,
// benches, examples — can inject latency without new plumbing.
#pragma once

#include <chrono>
#include <string>

#include "env/environment.hpp"

namespace oselm::env {

class LatencyEnv final : public Environment {
 public:
  LatencyEnv(EnvironmentPtr inner, std::chrono::microseconds delay);

  Observation reset() override;
  StepResult step(std::size_t action) override;
  void seed(std::uint64_t seed_value) override { inner_->seed(seed_value); }

  [[nodiscard]] const BoxSpace& observation_space() const override {
    return inner_->observation_space();
  }
  [[nodiscard]] const DiscreteSpace& action_space() const override {
    return inner_->action_space();
  }
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] std::size_t max_episode_steps() const override {
    return inner_->max_episode_steps();
  }

  [[nodiscard]] std::chrono::microseconds delay() const noexcept {
    return delay_;
  }

 private:
  void sleep_delay() const;

  EnvironmentPtr inner_;
  std::chrono::microseconds delay_;
  std::string name_;  ///< "delay:<us>:<inner name>"
};

}  // namespace oselm::env
