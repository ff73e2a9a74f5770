#include "scenario/pack.hpp"

#include <stdexcept>

namespace oselm::scenario {

namespace {

/// Common base every builtin starts from: CartPole-family envs (one
/// homogeneous (4, 2) shape), short budgets so the whole pack stays
/// CI-soak sized even under TSan/ASan.
ScenarioSpec base_spec() {
  ScenarioSpec spec;
  spec.env_ids = {"ShapedCartPole-v0", "CartPole-v0"};
  spec.episodes_per_session = 2;
  spec.max_steps_per_episode = 25;
  spec.hidden_units = 32;
  spec.worker_threads = 4;
  spec.burst_gap_ms = 2;
  return spec;
}

ScenarioSpec churn_storm() {
  ScenarioSpec spec = base_spec();
  spec.name = "churn-storm";
  spec.backend = ScenarioBackend::kAsync;
  spec.seed = 801;
  spec.sessions = 32;
  spec.bursts = 4;
  spec.burst_gap_ms = 1;  // joins arrive far faster than retirements
  spec.max_live_sessions = 6;
  spec.train_fraction = 0.25;
  return spec;
}

ScenarioSpec latency_spike() {
  ScenarioSpec spec = base_spec();
  spec.name = "latency-spike";
  spec.backend = ScenarioBackend::kAsync;
  spec.seed = 802;
  spec.sessions = 12;
  spec.bursts = 2;
  spec.max_live_sessions = 12;  // no cap pressure: isolate the spikes
  spec.train_fraction = 0.0;    // evaluate-only (the delay-only contract)
  spec.faults = {{"spike", 0.2}, {"none", 0.0}};
  return spec;
}

ScenarioSpec env_fault_mix() {
  ScenarioSpec spec = base_spec();
  spec.name = "env-fault-mix";
  spec.backend = ScenarioBackend::kAsync;
  spec.seed = 803;
  spec.sessions = 16;
  spec.bursts = 4;
  spec.max_live_sessions = 8;
  spec.train_fraction = 0.5;
  spec.faults = {{"drop", 0.15}, {"reorder", 0.15}, {"throw", 0.05},
                 {"none", 0.0}};
  return spec;
}

ScenarioSpec backend_stall() {
  ScenarioSpec spec = base_spec();
  spec.name = "backend-stall";
  spec.backend = ScenarioBackend::kAsync;
  spec.seed = 804;
  spec.sessions = 12;
  spec.bursts = 3;
  spec.max_live_sessions = 12;
  spec.train_fraction = 0.5;
  spec.stall_ms = 30;       // occupies THE batch thread mid-run
  spec.stall_at_burst = 1;  // with burst 0's sessions already serving
  return spec;
}

ScenarioSpec router_replica_stall() {
  ScenarioSpec spec = base_spec();
  spec.name = "router-replica-stall";
  spec.backend = ScenarioBackend::kRouter;
  spec.seed = 805;
  spec.sessions = 18;
  spec.bursts = 3;
  spec.replicas = 3;
  spec.max_live_sessions = 4;  // per replica: spillover pressure too
  spec.train_fraction = 0.25;
  spec.stall_ms = 30;
  spec.stall_replica = 1;  // co-replicas keep serving through the stall
  spec.stall_at_burst = 1;
  return spec;
}

ScenarioSpec mixed_train_eval() {
  ScenarioSpec spec = base_spec();
  spec.name = "mixed-train-eval";
  spec.backend = ScenarioBackend::kRouter;
  spec.seed = 806;
  spec.sessions = 16;
  spec.bursts = 4;
  spec.burst_gap_ms = 5;
  spec.replicas = 2;
  spec.max_live_sessions = 6;
  spec.train_fraction = 0.5;
  spec.affinity_keys = 6;  // colliding keys: duplicate-id rejections
  // Long budgets + a deadline-style stop: most sessions retire via
  // stop(), exercising the stopped-early accounting path.
  spec.episodes_per_session = 50;
  spec.stop_after_ms = 150;
  return spec;
}

ScenarioSpec backend_fault_storm() {
  ScenarioSpec spec = base_spec();
  spec.name = "backend-fault-storm";
  spec.backend = ScenarioBackend::kAsync;
  spec.seed = 808;
  spec.sessions = 16;
  spec.bursts = 4;
  spec.max_live_sessions = 8;
  spec.train_fraction = 0.25;
  spec.prime = true;
  // The single shared backend throws on a quarter of its serving calls:
  // whole batches fail, their sessions retire with backend-error, and the
  // server must keep serving the survivors — failed_backend attribution
  // and batch-failure containment under sanitizers.
  spec.backend_fault_kind = "throw";
  spec.backend_fault_rate = 0.25;
  return spec;
}

ScenarioSpec replica_kill_rescue() {
  ScenarioSpec spec = base_spec();
  spec.name = "replica-kill-rescue";
  spec.backend = ScenarioBackend::kRouter;
  spec.seed = 809;
  spec.sessions = 16;
  spec.bursts = 4;
  spec.replicas = 4;
  spec.max_live_sessions = 8;  // survivors have headroom for rescues
  spec.train_fraction = 0.0;   // evaluate-only: rescued reruns are exact
  spec.prime = true;           // trained fleet; replacements seed-import
  // Sessions live across the kill: a step sleeps 1 ms, so even 8 shortest
  // CartPole episodes outlast the ~4 ms until the kill by tens of ms,
  // however fast the serving path or however loaded the host.
  spec.env_ids = {"delay:1000:ShapedCartPole-v0", "delay:1000:CartPole-v0"};
  spec.episodes_per_session = 8;
  // Hard-kill replica 1 just before burst 2, with bursts 0/1 already
  // serving: its live sessions rescue onto the three survivors and the
  // slot is replaced with a state-seeded fresh server — rescued-complete
  // and replacement-seeded must both hold.
  spec.kill_planned = true;
  spec.kill_replica = 1;
  spec.kill_at_burst = 2;
  return spec;
}

ScenarioSpec replica_backend_nan() {
  ScenarioSpec spec = base_spec();
  spec.name = "replica-backend-nan";
  spec.backend = ScenarioBackend::kRouter;
  spec.seed = 810;
  spec.sessions = 18;
  spec.bursts = 6;
  spec.replicas = 3;
  spec.max_live_sessions = 8;
  spec.train_fraction = 0.25;
  spec.prime = true;
  spec.episodes_per_session = 6;
  // Replica 0's backend (original incarnation only) corrupts nearly every
  // prediction to NaN: the server's non-finite scan converts each into a
  // structured backend failure, consecutive failing passes trip the
  // health machine (degraded -> failed), and the replacement serves the
  // CLEAN backend. Six burst waves keep feeding the sick replica so the
  // consecutive-failure threshold is reached while sessions are live.
  spec.backend_fault_kind = "nan";
  spec.backend_fault_rate = 0.9;
  spec.backend_fault_replica = 0;
  return spec;
}

ScenarioSpec averaging_kill_rescue() {
  ScenarioSpec spec = base_spec();
  spec.name = "averaging-kill-rescue";
  spec.backend = ScenarioBackend::kRouter;
  spec.seed = 812;
  spec.sessions = 16;
  spec.bursts = 4;
  spec.replicas = 3;
  spec.max_live_sessions = 8;
  spec.train_fraction = 0.75;  // train-heavy: averaging rounds fire
  spec.prime = true;
  spec.episodes_per_session = 6;
  // Periodic parameter averaging every 16 fleet-wide train updates,
  // with a hard kill mid-run: the maintenance thread's passes run the
  // replacement, the rescue and the averaging rounds in turn while the
  // replicas' batch threads keep serving — the one builtin whose trace
  // shows every serving-stack actor (batch drains, train applies,
  // averaging rounds, a rescue), which is exactly what the
  // observability acceptance run captures with --trace-out.
  spec.sync_every_updates = 16;
  spec.kill_planned = true;
  spec.kill_replica = 1;
  spec.kill_at_burst = 2;
  return spec;
}

ScenarioSpec bounded_wait_admission() {
  ScenarioSpec spec = base_spec();
  spec.name = "bounded-wait-admission";
  spec.backend = ScenarioBackend::kRouter;
  spec.seed = 811;
  spec.sessions = 16;
  spec.bursts = 2;
  spec.burst_gap_ms = 1;
  spec.replicas = 2;
  spec.max_live_sessions = 3;  // fleet cap 6 << 16 joins: waits, not drops
  spec.train_fraction = 0.0;
  spec.prime = true;
  // Bounded-wait admission: a join against the saturated fleet blocks up
  // to 2 s for a retirement instead of rejecting — with these budgets
  // every session eventually admits (rejected_capacity stays 0 unless
  // the host is pathologically slow, which the verdict would surface).
  spec.admission_wait_us = 2000000;
  return spec;
}

}  // namespace

std::vector<std::string> builtin_scenarios() {
  return {"churn-storm",          "latency-spike",
          "env-fault-mix",        "backend-stall",
          "router-replica-stall", "mixed-train-eval",
          "backend-fault-storm",  "replica-kill-rescue",
          "replica-backend-nan",  "averaging-kill-rescue",
          "bounded-wait-admission"};
}

ScenarioSpec builtin_scenario(const std::string& name) {
  if (name == "churn-storm") return churn_storm();
  if (name == "latency-spike") return latency_spike();
  if (name == "env-fault-mix") return env_fault_mix();
  if (name == "backend-stall") return backend_stall();
  if (name == "router-replica-stall") return router_replica_stall();
  if (name == "mixed-train-eval") return mixed_train_eval();
  if (name == "backend-fault-storm") return backend_fault_storm();
  if (name == "replica-kill-rescue") return replica_kill_rescue();
  if (name == "replica-backend-nan") return replica_backend_nan();
  if (name == "averaging-kill-rescue") return averaging_kill_rescue();
  if (name == "bounded-wait-admission") return bounded_wait_admission();
  std::string known;
  for (const std::string& id : builtin_scenarios()) {
    known += (known.empty() ? "" : ", ") + id;
  }
  throw std::invalid_argument("builtin_scenario: unknown name '" + name +
                              "' (known: " + known + ")");
}

}  // namespace oselm::scenario
