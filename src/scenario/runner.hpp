// ScenarioRunner — spec in, verdict out.
//
// The thin orchestration layer the CLI (tools/scenario_runner) and tests
// share: it expands the spec's schedule once (holding the digest the
// verdict reports), runs the chaos driver, and can persist the verdict
// JSON. run() may be called repeatedly — every run replays the SAME
// expanded schedule, which is what makes two runs of one runner the
// reproducibility experiment (identical deterministic_json()).
#pragma once

#include <string>

#include "scenario/chaos.hpp"
#include "scenario/schedule.hpp"
#include "scenario/spec.hpp"

namespace oselm::scenario {

class ScenarioRunner {
 public:
  /// Validates the spec and expands its schedule. Throws
  /// std::invalid_argument on spec errors.
  explicit ScenarioRunner(ScenarioSpec spec);

  [[nodiscard]] const ScenarioSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const ScenarioSchedule& schedule() const noexcept {
    return schedule_;
  }

  /// Executes the schedule against the spec's serving tier.
  [[nodiscard]] ScenarioVerdict run() const;

 private:
  ScenarioSpec spec_;
  ScenarioSchedule schedule_;
};

/// Writes `verdict.to_json()` to `path`; throws std::runtime_error when
/// the file cannot be written.
void write_verdict(const ScenarioVerdict& verdict, const std::string& path);

}  // namespace oselm::scenario
