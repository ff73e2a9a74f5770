#include "scenario/schedule.hpp"

#include <cstdio>
#include <sstream>

#include "util/fault.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace oselm::scenario {

std::string ScenarioSchedule::to_text() const {
  std::ostringstream out;
  out << "sessions = " << total_sessions << "\n";
  if (stall_planned) {
    out << "stall before burst " << stall_before_burst << ": "
        << stall_ms << " ms on replica " << stall_replica << "\n";
  }
  if (backend_fault_planned) {
    out << "backend fault on replica " << backend_fault_replica << ": "
        << backend_fault_kind << ":" << util::canonical_rate(backend_fault_rate)
        << " seed=" << backend_fault_seed << "\n";
  }
  if (kill_planned) {
    out << "kill replica " << kill_replica << " before burst "
        << kill_before_burst << "\n";
  }
  for (const PlannedBurst& burst : bursts) {
    out << "burst at " << burst.at_ms << " ms (" << burst.sessions.size()
        << " sessions)\n";
    for (const PlannedSession& s : burst.sessions) {
      out << "  #" << s.index << " " << (s.train ? "train" : "eval") << " "
          << s.env_id << " env_seed=" << s.env_seed
          << " agent_seed=" << s.agent_seed << " key=" << s.affinity_key
          << "\n";
    }
  }
  return out.str();
}

ScenarioSchedule expand_schedule(const ScenarioSpec& spec) {
  spec.validate();
  ScenarioSchedule schedule;
  schedule.total_sessions = spec.sessions;
  schedule.stall_planned = spec.stall_ms > 0;
  schedule.stall_before_burst = spec.stall_at_burst;
  schedule.stall_ms = spec.stall_ms;
  schedule.stall_replica =
      spec.backend == ScenarioBackend::kRouter ? spec.stall_replica : 0;

  // The dedicated schedule stream: every draw below comes from here, in
  // this exact order, so the expansion is a pure function of the master
  // seed. Nothing else may consume from it.
  util::Rng rng(spec.seed);

  schedule.bursts.resize(spec.bursts);
  for (std::size_t b = 0; b < spec.bursts; ++b) {
    schedule.bursts[b].at_ms = spec.burst_gap_ms * b;
  }
  for (std::size_t k = 0; k < spec.sessions; ++k) {
    PlannedSession session;
    session.index = k;
    // Fixed per-session draw order (env, fault, fault seed, mode, seeds,
    // key): inserting a draw for one feature must not silently reshuffle
    // the others, so every branch below still consumes its draws.
    std::string env_id =
        spec.env_ids[rng.uniform_index(spec.env_ids.size())];
    if (!spec.faults.empty()) {
      const FaultPlanEntry& entry =
          spec.faults[rng.uniform_index(spec.faults.size())];
      const std::uint64_t fault_seed = rng();
      if (entry.kind != "none") {
        env_id =
            util::format_fault_id(entry.kind, entry.rate, fault_seed, env_id);
      }
    }
    session.env_id = std::move(env_id);
    session.train = rng.bernoulli(spec.train_fraction);
    session.env_seed = rng();
    session.agent_seed = rng();
    // snprintf instead of `"s" + std::to_string(...)`: the operator+
    // form trips GCC 12's -Wrestrict false positive (PR105651) at -O2.
    char key[32];
    if (spec.affinity_keys == 0) {
      std::snprintf(key, sizeof(key), "s%zu", k);
    } else {
      std::snprintf(key, sizeof(key), "k%zu",
                    rng.uniform_index(spec.affinity_keys));
    }
    session.affinity_key = key;
    // Sessions deal round-robin into bursts, so every burst is a mass
    // join of ~sessions/bursts and early bursts absorb the remainder.
    schedule.bursts[k % spec.bursts].sessions.push_back(
        std::move(session));
  }

  // Post-loop draws: the backend-fault seed comes AFTER every per-session
  // draw (and only when a fault is planned), so turning the backend-fault
  // axis on or off never reshuffles the session plan of an existing spec.
  schedule.backend_fault_planned = spec.backend_fault_kind != "none";
  if (schedule.backend_fault_planned) {
    schedule.backend_fault_kind = spec.backend_fault_kind;
    schedule.backend_fault_rate = spec.backend_fault_rate;
    schedule.backend_fault_seed = rng();
    schedule.backend_fault_replica =
        spec.backend == ScenarioBackend::kRouter ? spec.backend_fault_replica
                                                 : 0;
  }
  schedule.kill_planned = spec.kill_planned;
  if (schedule.kill_planned) {
    schedule.kill_replica = spec.kill_replica;
    schedule.kill_before_burst = spec.kill_at_burst;
  }

  schedule.digest = util::fnv1a(schedule.to_text());
  return schedule;
}

}  // namespace oselm::scenario
