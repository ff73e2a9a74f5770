// Environment factory keyed by Gym-style id strings.
#pragma once

#include <string>
#include <vector>

#include "env/environment.hpp"

namespace oselm::env {

/// Creates an environment by id. Known ids: "CartPole-v0",
/// "ShapedCartPole-v0", "MountainCar-v0", "ShapedMountainCar-v0",
/// "Acrobot-v1", "ShapedAcrobot-v1", "GridWorld".
///
/// Any id may be prefixed with a modifier:
///
///   * "delay:<micros>:<inner-id>" (e.g. "delay:500:ShapedCartPole-v0")
///     wraps the inner environment in env::LatencyEnv — identical
///     dynamics, each reset()/step() sleeping the given number of
///     microseconds first (an I/O-bound environment model for the
///     serving benches).
///   * "fault:<kind>:<rate>:<seed>:<inner-id>" (e.g.
///     "fault:throw:0.01:9:CartPole-v0") wraps it in env::FaultEnv —
///     kind is one of env::fault_kinds(), rate in [0, 1] is the per-call
///     fault probability, and seed fixes the fault schedule
///     independently of the env seed (see fault_env.hpp).
///
/// Modifiers nest ("delay:100:fault:drop:0.1:7:GridWorld" is legal).
/// Throws std::invalid_argument for unknown ids; nested failures name
/// the full outer id.
EnvironmentPtr make_environment(const std::string& id,
                                std::uint64_t seed_value = 2020);

/// All concrete ids make_environment accepts. Modifier-wrapped ids (see
/// registered_modifiers) are accepted too but not enumerated here.
std::vector<std::string> registered_environments();

/// Modifier-prefix families make_environment accepts in front of any id
/// (recursively composable). Currently {"delay:", "fault:"} — the full
/// forms are "delay:<micros>:<inner-id>" and
/// "fault:<kind>:<rate>:<seed>:<inner-id>". Callers that
/// enumerate-then-construct combine these prefixes with
/// registered_environments().
std::vector<std::string> registered_modifiers();

}  // namespace oselm::env
