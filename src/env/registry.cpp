#include "env/registry.hpp"

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "env/acrobot.hpp"
#include "env/cartpole.hpp"
#include "env/fault_env.hpp"
#include "env/grid_world.hpp"
#include "env/latency_env.hpp"
#include "env/mountain_car.hpp"
#include "env/shaping.hpp"
#include "util/fault.hpp"

namespace oselm::env {

EnvironmentPtr make_environment(const std::string& id,
                                std::uint64_t seed_value) {
  // Modifier ids wrap an inner id; a nested construction failure names
  // the full outer id (util::within_modifier).
  if (id.starts_with("delay:")) {
    const util::ModifierId delay("make_environment", id,
                                 "delay:<micros>:<inner-id>");
    // One hour per step is already absurd; the bound doubles as an
    // overflow guard so an over-long field throws instead of wrapping.
    constexpr std::uint64_t kMaxDelayMicros = 3'600'000'000;
    const std::uint64_t micros = delay.u64(0, "delay", kMaxDelayMicros, "us");
    return std::make_unique<LatencyEnv>(
        util::within_modifier(
            id, [&] { return make_environment(delay.inner(), seed_value); }),
        std::chrono::microseconds(micros));
  }
  if (id.starts_with("fault:")) {
    const util::FaultId fault =
        util::parse_fault_id("make_environment", id, fault_kinds());
    return std::make_unique<FaultEnv>(
        util::within_modifier(
            id, [&] { return make_environment(fault.inner_id, seed_value); }),
        static_cast<FaultKind>(fault.kind), fault.rate, fault.seed);
  }
  if (id == "CartPole-v0") {
    return std::make_unique<CartPole>(CartPoleParams{}, seed_value);
  }
  if (id == "ShapedCartPole-v0") return make_shaped_cartpole(seed_value);
  if (id == "ShapedMountainCar-v0") {
    return std::make_unique<GoalShaping>(
        std::make_unique<MountainCar>(MountainCarParams{}, seed_value));
  }
  if (id == "ShapedAcrobot-v1") {
    return std::make_unique<GoalShaping>(
        std::make_unique<Acrobot>(AcrobotParams{}, seed_value));
  }
  if (id == "MountainCar-v0") {
    return std::make_unique<MountainCar>(MountainCarParams{}, seed_value);
  }
  if (id == "Acrobot-v1") {
    return std::make_unique<Acrobot>(AcrobotParams{}, seed_value);
  }
  if (id == "GridWorld") {
    return std::make_unique<GridWorld>(GridWorldParams{}, seed_value);
  }
  // List the alternatives: callers typo'd a concrete id or a modifier
  // prefix, and the registered set is small enough to enumerate inline.
  std::string known;
  for (const std::string& env_id : registered_environments()) {
    if (!known.empty()) known += ", ";
    known += env_id;
  }
  std::string modifiers;
  for (const std::string& prefix : registered_modifiers()) {
    if (!modifiers.empty()) modifiers += ", ";
    modifiers += prefix;
  }
  throw std::invalid_argument("make_environment: unknown id '" + id +
                              "' (known: " + known +
                              "; modifiers: " + modifiers + ")");
}

std::vector<std::string> registered_environments() {
  return {"CartPole-v0",        "ShapedCartPole-v0",
          "MountainCar-v0",     "ShapedMountainCar-v0",
          "Acrobot-v1",         "ShapedAcrobot-v1",
          "GridWorld"};
}

std::vector<std::string> registered_modifiers() {
  // Prefix families applied recursively in front of any id from
  // registered_environments() (or another modifier). Enumerate-then-
  // construct callers compose these with the concrete ids.
  return {"delay:", "fault:"};
}

}  // namespace oselm::env
