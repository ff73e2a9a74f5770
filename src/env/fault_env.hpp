// Seeded fault-injection wrapper for the scenario & chaos harness.
//
// The serving stack is built for edge deployments where environments
// misbehave: sensors drop frames, telemetry arrives out of order, remote
// simulators throw, and I/O latency spikes. FaultEnv decorates any
// Environment with exactly those failure modes, driven by a
// util::FaultSchedule: the schedule is a pure function of (rate, seed),
// util::FaultSchedule::preview() pins it without stepping an environment,
// and the wrapped environment's rng is never touched, so the inner
// dynamics under a given env seed are bit-identical with and without the
// wrapper.
//
// One schedule decision is drawn per reset() AND per step(), in call
// order. What a firing fault does depends on the kind:
//
//   kDrop     step: the inner environment advances normally but the STALE
//             previously-delivered observation is returned (a dropped
//             sensor frame); reward and termination flags stay real.
//             reset: no-op beyond consuming the draw.
//   kReorder  step: toggles a one-frame lag. Entering the lag delivers
//             the stale observation and holds the fresh one; while
//             lagging, each step delivers the held frame and holds the
//             fresh one; a second firing drops the held frame and
//             delivers the newest (frames "arrived out of order").
//             reset: clears any lag, then no-op.
//   kThrow    reset/step: throws env::FaultInjected (a std::runtime_error)
//             — the serving stack's env-failure isolation path.
//   kSpike    reset/step: sleeps spike_duration() first, then passes the
//             call through UNCHANGED. Trajectories are bit-identical to
//             the unwrapped environment — the latency-only fault the
//             kEvaluate determinism tests pin.
//
// Registry integration: env::make_environment accepts
// "fault:<kind>:<rate>:<seed>:<inner-id>" (e.g.
// "fault:throw:0.01:9:CartPole-v0"), nestable with itself and with
// "delay:" — so scenario specs compose fault plans from ids alone.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "env/environment.hpp"
#include "util/fault.hpp"

namespace oselm::env {

/// Thrown by FaultEnv's kThrow kind. A distinct type so chaos tests can
/// tell an injected failure from a genuine environment bug.
class FaultInjected : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Declared in fault_kinds() order.
enum class FaultKind { kDrop, kReorder, kThrow, kSpike };

/// "drop" / "reorder" / "throw" / "spike" — the registry-id spelling.
[[nodiscard]] std::string_view to_string(FaultKind kind) noexcept;

/// The valid <kind> spellings for "fault:<kind>:..." ids, '|'-separated
/// in declaration order — the single source for the registry, the
/// scenario spec's validation and their error messages.
[[nodiscard]] std::string_view fault_kinds() noexcept;

class FaultEnv final : public Environment {
 public:
  /// `rate` in [0, 1] is the per-call fault probability; `seed` fixes the
  /// fault schedule (independent of the inner environment's seed);
  /// `spike` is the kSpike sleep duration (other kinds ignore it).
  FaultEnv(EnvironmentPtr inner, FaultKind kind, double rate,
           std::uint64_t seed,
           std::chrono::microseconds spike = kDefaultSpike);

  Observation reset() override;
  StepResult step(std::size_t action) override;
  /// Reseeds the inner environment AND rewinds the fault schedule to its
  /// constructed seed, so seed()-then-run reproduces faults and dynamics
  /// alike. The env seed never feeds the fault schedule.
  void seed(std::uint64_t seed_value) override;

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

  [[nodiscard]] FaultKind kind() const noexcept { return kind_; }
  [[nodiscard]] double rate() const noexcept { return schedule_.rate(); }
  [[nodiscard]] std::uint64_t fault_seed() const noexcept {
    return schedule_.seed();
  }
  [[nodiscard]] std::chrono::microseconds spike_duration() const noexcept {
    return spike_;
  }
  /// Faults injected so far (draws that fired, across resets and steps).
  [[nodiscard]] std::uint64_t fault_count() const noexcept {
    return schedule_.fires();
  }

  static constexpr std::chrono::microseconds kDefaultSpike{5000};

 private:
  /// One schedule draw for `call`; a firing kThrow throws and a firing
  /// kSpike sleeps before it returns. Returns whether the call faults.
  bool draw_fault(const char* call);

  EnvironmentPtr inner_;
  FaultKind kind_;
  util::FaultSchedule schedule_;
  std::chrono::microseconds spike_;
  std::string name_;

  Observation last_delivered_;       ///< stale frame for kDrop/kReorder
  Observation held_;                 ///< in-flight frame while lagging
  bool lagging_ = false;             ///< kReorder one-frame lag active
  bool has_delivered_ = false;
};

}  // namespace oselm::env
