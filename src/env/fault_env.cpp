#include "env/fault_env.hpp"

#include <array>
#include <thread>
#include <utility>

#include "obs/trace.hpp"

namespace oselm::env {

namespace {

/// FaultKind declaration order; trace names in the same order.
constexpr std::string_view kKinds = "drop|reorder|throw|spike";
constexpr std::array<const char*, 4> kTraceNames = {
    "env_drop", "env_reorder", "env_throw", "env_spike"};

}  // namespace

std::string_view to_string(FaultKind kind) noexcept {
  return util::kind_name(kKinds, static_cast<std::size_t>(kind));
}

std::string_view fault_kinds() noexcept { return kKinds; }

FaultEnv::FaultEnv(EnvironmentPtr inner, FaultKind kind, double rate,
                   std::uint64_t seed, std::chrono::microseconds spike)
    : inner_(std::move(inner)),
      kind_(kind),
      schedule_("FaultEnv", rate, seed),
      spike_(spike) {
  if (!inner_) throw std::invalid_argument("FaultEnv: null inner env");
  if (spike_.count() < 0) {
    throw std::invalid_argument("FaultEnv: negative spike duration");
  }
  name_ = util::format_fault_id(to_string(kind_), rate, seed, inner_->name());
}

bool FaultEnv::draw_fault(const char* call) {
  // The schedule is consumed on EVERY call — even kinds that treat a
  // firing reset as a no-op — so the decision sequence stays aligned with
  // util::FaultSchedule::preview() regardless of kind.
  if (!schedule_.draw()) return false;
  OSELM_TRACE_INSTANT("fault", kTraceNames[static_cast<std::size_t>(kind_)]);
  if (kind_ == FaultKind::kThrow) {
    throw FaultInjected("FaultEnv: injected failure on " + std::string(call) +
                        " #" + std::to_string(schedule_.draws()) + " of '" +
                        name_ + "'");
  }
  if (kind_ == FaultKind::kSpike) std::this_thread::sleep_for(spike_);
  return true;
}

void FaultEnv::seed(std::uint64_t seed_value) {
  inner_->seed(seed_value);
  // Rewind the fault schedule to ITS OWN seed: reseeding the dynamics
  // must reproduce the whole run, faults included, and the env seed must
  // never leak into the fault schedule.
  schedule_.rewind();
}

Observation FaultEnv::reset() {
  // Episode boundaries clear the frame-delivery state before the draw:
  // stale frames never cross episodes.
  lagging_ = false;
  held_.clear();
  has_delivered_ = false;
  // A firing kDrop/kReorder is a no-op here: nothing delivered yet.
  draw_fault("reset");
  last_delivered_ = inner_->reset();
  has_delivered_ = true;
  return last_delivered_;
}

StepResult FaultEnv::step(std::size_t action) {
  const bool fired = draw_fault("step");
  StepResult result = inner_->step(action);
  switch (kind_) {
    case FaultKind::kThrow:
    case FaultKind::kSpike:
      break;  // observations always pass through unchanged
    case FaultKind::kDrop:
      if (fired && has_delivered_) {
        // The frame was dropped: the caller sees the stale observation;
        // reward and termination flags are real.
        result.observation = last_delivered_;
      }
      break;
    case FaultKind::kReorder:
      if (fired) {
        if (!lagging_) {
          if (has_delivered_) {
            // Enter the lag: hold the fresh frame, deliver the stale one.
            lagging_ = true;
            held_ = result.observation;
            result.observation = last_delivered_;
          }
        } else {
          // Second firing: the held frame "arrived too late" and is
          // dropped; delivery snaps back to the newest frame.
          lagging_ = false;
          held_.clear();
        }
      } else if (lagging_) {
        // Steady lag: deliver the held frame, hold the fresh one.
        std::swap(result.observation, held_);
      }
      break;
  }
  last_delivered_ = result.observation;
  has_delivered_ = true;
  return result;
}

}  // namespace oselm::env
