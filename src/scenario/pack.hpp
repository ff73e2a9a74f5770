// The shipped scenario pack: named, bounded chaos workloads.
//
// Each builtin is a complete ScenarioSpec tuned to finish in seconds even
// under TSan/ASan (small envs, short budgets), so the whole pack is the
// CI chaos-soak gauntlet — and, because every spec is deterministic under
// its seed, a reproducible serving benchmark workload. The pack covers
// the failure modes the serving stack claims to survive:
//
//   churn-storm          async: join bursts far beyond the admission cap
//   latency-spike        async: seeded kSpike faults on evaluate traffic
//   env-fault-mix        async: drop/reorder/throw mix, train + eval
//   backend-stall        async: a run_exclusive sleep on THE batch thread
//   router-replica-stall router: the same sleep on one replica of three
//   mixed-train-eval     router: train/eval mix with colliding affinity
//                        keys (duplicate-id rejections) and a mid-run stop
#pragma once

#include <string>
#include <vector>

#include "scenario/spec.hpp"

namespace oselm::scenario {

/// Names of every builtin, in pack order.
[[nodiscard]] std::vector<std::string> builtin_scenarios();

/// The builtin spec registered under `name`; throws
/// std::invalid_argument (listing the known names) for unknown names.
[[nodiscard]] ScenarioSpec builtin_scenario(const std::string& name);

}  // namespace oselm::scenario
