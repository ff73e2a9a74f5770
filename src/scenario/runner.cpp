#include "scenario/runner.hpp"

#include <fstream>
#include <stdexcept>
#include <utility>

namespace oselm::scenario {

ScenarioRunner::ScenarioRunner(ScenarioSpec spec)
    : spec_(std::move(spec)), schedule_(expand_schedule(spec_)) {}

ScenarioVerdict ScenarioRunner::run() const {
  return run_chaos(spec_, schedule_);
}

void write_verdict(const ScenarioVerdict& verdict,
                   const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    throw std::runtime_error("write_verdict: cannot write '" + path + "'");
  }
  file << verdict.to_json();
  if (!file) {
    throw std::runtime_error("write_verdict: write to '" + path +
                             "' failed");
  }
}

}  // namespace oselm::scenario
