#include "scenario/chaos.hpp"

#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "env/registry.hpp"
#include "linalg/matrix.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "rl/async_server.hpp"
#include "rl/backend_registry.hpp"
#include "rl/router.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace oselm::scenario {

namespace {

using Clock = std::chrono::steady_clock;

struct EnvDims {
  std::size_t state_dim = 0;
  std::size_t action_count = 0;
};

/// Probes every distinct env id in the schedule (construction only —
/// nothing is reset or stepped, so no fault or env rng advances) and
/// requires one common (state, action) shape: every serving tier
/// validates sessions against ONE SimplifiedOutputModel.
EnvDims probe_dims(const ScenarioSchedule& schedule) {
  std::set<std::string> distinct;
  for (const PlannedBurst& burst : schedule.bursts) {
    for (const PlannedSession& s : burst.sessions) distinct.insert(s.env_id);
  }
  EnvDims dims;
  std::string first;
  for (const std::string& id : distinct) {
    const env::EnvironmentPtr probe = env::make_environment(id, 1);
    const std::size_t state = probe->observation_space().dimensions();
    const std::size_t actions = probe->action_space().n;
    if (first.empty()) {
      dims.state_dim = state;
      dims.action_count = actions;
      first = id;
    } else if (state != dims.state_dim || actions != dims.action_count) {
      throw std::invalid_argument(
          "run_chaos: env mix is not dimension-homogeneous: '" + first +
          "' is (" + std::to_string(dims.state_dim) + ", " +
          std::to_string(dims.action_count) + ") but '" + id + "' is (" +
          std::to_string(state) + ", " + std::to_string(actions) + ")");
    }
  }
  return dims;
}

rl::TrainerConfig trainer_for(const ScenarioSpec& spec) {
  rl::TrainerConfig trainer;
  trainer.max_episodes = spec.episodes_per_session;
  trainer.episode_step_cap = spec.max_steps_per_episode;
  // Budget-driven sessions: an unreachable threshold means every session
  // runs its full episode budget, so scenario load is seed-stable.
  trainer.solved_threshold = 1e18;
  trainer.solved_window = 1;
  trainer.reset_interval = 0;  // shared network: §4.3 resets off
  return trainer;
}

rl::BackendConfig backend_for(const ScenarioSpec& spec,
                              const rl::SimplifiedOutputModel& model) {
  rl::BackendConfig backend;
  backend.input_dim = model.input_dim();
  backend.hidden_units = spec.hidden_units;
  backend.seed = spec.seed;
  return backend;
}

/// The schedule's backend-fault plan as a BackendRegistry id: the clean
/// backend wrapped in the seeded rl::FaultBackend modifier.
std::string faulted_backend_id(const ScenarioSpec& spec,
                               const ScenarioSchedule& schedule) {
  return util::format_fault_id(schedule.backend_fault_kind,
                               schedule.backend_fault_rate,
                               schedule.backend_fault_seed, spec.backend_id);
}

/// Paper Eq. 8 initial training on deterministic seeded random data,
/// run on a CLEAN scratch backend and returned as exportable state.
/// Priming every serving backend by IMPORTING this one state gives the
/// whole tier a single Q surface — so evaluate-only schedules run
/// trained policies and replica replacements can be state-seeded from
/// any survivor — and, because import_state is a state-management call,
/// priming succeeds even on a fault-wrapped backend whose serving path
/// (init_train included) is busy injecting failures.
rl::QNetState primed_state(const ScenarioSpec& spec,
                           const rl::SimplifiedOutputModel& model) {
  const rl::OsElmQBackendPtr scratch =
      rl::make_backend(spec.backend_id, backend_for(spec, model));
  util::Rng rng(spec.seed);
  const std::size_t rows = scratch->hidden_units();
  linalg::MatD x(rows, scratch->input_dim());
  linalg::MatD t(rows, 1);
  rng.fill_uniform(x.storage(), -1.0, 1.0);
  rng.fill_uniform(t.storage(), -1.0, 1.0);
  scratch->init_train(x, t);
  return scratch->export_state();
}

rl::AsyncSessionSpec async_spec(const ScenarioSpec& spec,
                                const PlannedSession& planned) {
  rl::AsyncSessionSpec session;
  session.session.env_id = planned.env_id;
  session.session.env_seed = planned.env_seed;
  session.session.agent_seed = planned.agent_seed;
  session.session.trainer = trainer_for(spec);
  session.mode = planned.train ? rl::AsyncSessionMode::kTrain
                               : rl::AsyncSessionMode::kEvaluate;
  return session;
}

void push_invariant(ScenarioVerdict& verdict, std::string name, bool pass,
                    std::string detail) {
  verdict.invariants.push_back(
      InvariantResult{std::move(name), pass, std::move(detail)});
}

/// The tier seam: the burst/stall/collect loop below drives any serving
/// tier through these closures, so async and router share one driver.
struct Tier {
  std::function<std::size_t(const PlannedSession&)> add;
  std::function<rl::AsyncSessionResult(std::size_t)> wait;
  std::function<void()> stop;
  std::function<std::future<void>(std::uint64_t)> stall;
  /// Hard-kills one replica (router only; fires before the planned burst).
  std::function<void(std::size_t)> kill;
  /// Called once per collected result (router: placement accounting).
  std::function<void(const rl::AsyncSessionResult&)> on_result;
  /// Invariants only the tier can check (server counters, placement).
  std::function<void(ScenarioVerdict&)> final_checks;
};

/// stop() under a watchdog: the call runs on a one-lane pool and the
/// driver waits with the spec's deadline. A miss is recorded as a failed
/// invariant, then the driver STILL blocks for completion — tearing down
/// a tier mid-stop would trade a detectable deadlock for undefined
/// behavior, and a TSan/ASan CI job timing out with live stacks is the
/// debugging artifact we actually want from a hung stop().
void watchdog_stop(const ScenarioSpec& spec, Tier& tier,
                   ScenarioVerdict& verdict) {
  util::ThreadPool watchdog(1);
  std::future<void> done = watchdog.submit([&tier] { tier.stop(); });
  const bool returned =
      done.wait_for(std::chrono::milliseconds(spec.stop_deadline_ms)) ==
      std::future_status::ready;
  push_invariant(verdict, "stop-returned", returned,
                 returned ? "stop() returned within " +
                                std::to_string(spec.stop_deadline_ms) + " ms"
                          : "stop() still running after " +
                                std::to_string(spec.stop_deadline_ms) +
                                " ms deadline");
  done.get();
}

void drive_tier(const ScenarioSpec& spec, const ScenarioSchedule& schedule,
                ScenarioVerdict& verdict, Tier& tier) {
  OSELM_TRACE_SPAN("scenario", "drive_tier");
  const Clock::time_point start = Clock::now();
  std::future<void> stall_future;
  std::set<std::string> live_keys;
  std::vector<std::pair<std::size_t, bool>> admitted;  // (tier id, train?)

  std::set<std::size_t> distinct_ids;
  bool duplicate_id = false;

  for (std::size_t b = 0; b < schedule.bursts.size(); ++b) {
    OSELM_TRACE_SPAN("scenario", "burst");
    if (schedule.stall_planned && b == schedule.stall_before_burst) {
      OSELM_TRACE_INSTANT("scenario", "stall_injected");
      stall_future = tier.stall(schedule.stall_ms);
    }
    if (schedule.kill_planned && b == schedule.kill_before_burst &&
        tier.kill) {
      // The planned hard kill: the replica's sessions retire with
      // backend-error and the router rescues them onto survivors while
      // the remaining bursts keep admitting.
      OSELM_TRACE_INSTANT("scenario", "kill_injected");
      tier.kill(schedule.kill_replica);
    }
    const PlannedBurst& burst = schedule.bursts[b];
    std::this_thread::sleep_until(
        start + std::chrono::milliseconds(burst.at_ms));
    for (const PlannedSession& planned : burst.sessions) {
      ++verdict.attempted;
      // Driver-side duplicate detection: one live session per affinity
      // key. Keys stay open until results are collected, so a later
      // burst reusing a key is refused with a structured reason just
      // like a server-side rejection.
      if (!live_keys.insert(planned.affinity_key).second) {
        ++verdict.rejected_duplicate;
        continue;
      }
      try {
        const std::size_t id = tier.add(planned);
        if (!distinct_ids.insert(id).second) duplicate_id = true;
        admitted.emplace_back(id, planned.train);
        ++verdict.admitted;
      } catch (const rl::AdmissionError& e) {
        live_keys.erase(planned.affinity_key);
        if (e.reason() == rl::AdmissionRejectReason::kCapacity) {
          ++verdict.rejected_capacity;
        } else {
          ++verdict.rejected_stopping;
        }
      }
    }
  }

  bool stopped_midrun = false;
  if (spec.stop_after_ms > 0) {
    // Deadline-style run: stop() retires every live session at its next
    // step boundary; results are collected afterwards.
    std::this_thread::sleep_until(
        start + std::chrono::milliseconds(spec.stop_after_ms));
    OSELM_TRACE_SPAN("scenario", "stop");
    watchdog_stop(spec, tier, verdict);
    stopped_midrun = true;
  }
  if (stall_future.valid()) stall_future.get();

  OSELM_TRACE_SPAN("scenario", "collect");
  std::uint64_t collected = 0;
  for (const auto& [id, train] : admitted) {
    rl::AsyncSessionResult result = tier.wait(id);
    ++collected;
    // Cause-based classification: backend failures (injected faults, NaN
    // detections, kills whose rescue was abandoned) are attributed apart
    // from the session's own environment failing.
    switch (result.cause) {
      case rl::SessionEndCause::kCompleted:
        ++verdict.completed;
        break;
      case rl::SessionEndCause::kStopped:
        ++verdict.stopped_early;
        break;
      case rl::SessionEndCause::kEnvError:
        ++verdict.failed_env;
        break;
      case rl::SessionEndCause::kBackendError:
        ++verdict.failed_backend;
        break;
    }
    if (result.rescues > 0) ++verdict.rescued;
    (train ? verdict.train_step_latency_us : verdict.eval_step_latency_us)
        .merge(result.step_latency_us);
    if (tier.on_result) tier.on_result(result);
  }
  if (!stopped_midrun) watchdog_stop(spec, tier, verdict);

  // Post-stop probe: a join after stop() must be refused with the
  // structured kStopping reason — never admitted, never a bare error,
  // never a hang. Probe admissions stay out of the telemetry counters.
  {
    bool pass = false;
    std::string detail;
    const PlannedSession& probe = schedule.bursts.front().sessions.front();
    try {
      tier.add(probe);
      detail = "admission unexpectedly succeeded after stop()";
    } catch (const rl::AdmissionError& e) {
      pass = e.reason() == rl::AdmissionRejectReason::kStopping;
      detail = pass ? "AdmissionError(kStopping)"
                    : "AdmissionError with wrong reason '" +
                          std::string(to_string(e.reason())) + "'";
    } catch (const std::exception& e) {
      detail = std::string("non-structured exception: ") + e.what();
    }
    push_invariant(verdict, "post-stop-rejects", pass, detail);
  }

  const std::uint64_t rejected = verdict.rejected_capacity +
                                 verdict.rejected_stopping +
                                 verdict.rejected_duplicate;
  push_invariant(
      verdict, "sessions-conserved",
      verdict.attempted == verdict.admitted + rejected &&
          collected == verdict.admitted,
      "attempted " + std::to_string(verdict.attempted) + " == admitted " +
          std::to_string(verdict.admitted) + " + rejected " +
          std::to_string(rejected) + "; results " +
          std::to_string(collected));
  // Rescues re-place a session but must never mint a second result id:
  // every admitted tier id is distinct and delivers exactly one result.
  push_invariant(verdict, "no-duplicate-results",
                 !duplicate_id && collected == verdict.admitted,
                 std::to_string(verdict.admitted) +
                     " admitted ids all distinct, " +
                     std::to_string(collected) +
                     " results claimed exactly once");
  if (tier.final_checks) tier.final_checks(verdict);

  verdict.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
}

/// `extra_admissions`: the router's successful rescues — every rescue
/// re-admits an already-counted session on a survivor replica, so the
/// tier-side admission/retirement ledgers legitimately exceed the
/// driver's by exactly that amount.
void check_server_accounting(ScenarioVerdict& verdict,
                             const rl::AsyncServerStats& stats,
                             std::uint64_t extra_admissions = 0) {
  const std::uint64_t expected = verdict.admitted + extra_admissions;
  push_invariant(
      verdict, "server-accounting",
      stats.sessions_admitted == expected &&
          stats.sessions_retired == expected,
      "server admitted " + std::to_string(stats.sessions_admitted) +
          ", retired " + std::to_string(stats.sessions_retired) +
          "; driver admitted " + std::to_string(verdict.admitted) +
          " + rescues " + std::to_string(extra_admissions));
  push_invariant(
      verdict, "steps-accounted",
      stats.steps == stats.step_latency_us.count(),
      "steps " + std::to_string(stats.steps) + " == latency samples " +
          std::to_string(stats.step_latency_us.count()));
}

ScenarioVerdict run_async(const ScenarioSpec& spec,
                          const ScenarioSchedule& schedule,
                          ScenarioVerdict verdict) {
  const EnvDims dims = probe_dims(schedule);
  const rl::SimplifiedOutputModel model(dims.state_dim, dims.action_count);
  rl::AsyncQServerConfig config;
  config.name = spec.name;
  config.worker_threads = spec.worker_threads;
  config.max_live_sessions = spec.max_live_sessions;
  // The backend-fault plan wraps THE single backend: every session feels
  // the injected throws/stalls/NaNs (there is no survivor tier here —
  // that contrast is the router's job).
  const std::string backend_id = schedule.backend_fault_planned
                                     ? faulted_backend_id(spec, schedule)
                                     : spec.backend_id;
  rl::AsyncQServer server(
      rl::make_backend(backend_id, backend_for(spec, model)), model,
      config);
  if (spec.prime) {
    const rl::QNetState state = primed_state(spec, model);
    server.run_exclusive([&state](rl::OsElmQBackend& backend) {
      backend.import_state(state);
    });
  }

  Tier tier;
  tier.add = [&server, &spec](const PlannedSession& planned) {
    return server.add_session(async_spec(spec, planned));
  };
  tier.wait = [&server](std::size_t id) { return server.wait(id); };
  tier.stop = [&server] { server.stop(); };
  tier.stall = [&server](std::uint64_t stall_ms) {
    // Occupy the single batch thread: every session's predict/train
    // request queues behind this sleep — the whole-backend stall.
    return server.run_exclusive_async([stall_ms](rl::OsElmQBackend&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
    });
  };
  tier.final_checks = [&server](ScenarioVerdict& v) {
    check_server_accounting(v, server.stats());
  };

  drive_tier(spec, schedule, verdict, tier);
  verdict.server_stats_json = server.stats().to_json();
  return verdict;
}

ScenarioVerdict run_router(const ScenarioSpec& spec,
                           const ScenarioSchedule& schedule,
                           ScenarioVerdict verdict) {
  const EnvDims dims = probe_dims(schedule);
  const rl::SimplifiedOutputModel model(dims.state_dim, dims.action_count);
  rl::RouterConfig config;
  config.name = spec.name;
  config.replicas = spec.replicas;
  config.backend_id = spec.backend_id;
  config.backend = backend_for(spec, model);
  config.server.worker_threads = spec.worker_threads;
  config.server.max_live_sessions = spec.max_live_sessions;
  config.admission_wait_us = spec.admission_wait_us;
  config.sync_every_updates = spec.sync_every_updates;
  if (schedule.backend_fault_planned) {
    // Fault exactly ONE replica's backend (original incarnation only);
    // its co-replicas — and any replacement the health machine builds —
    // serve the clean backend, which is what rescue recovers onto.
    config.replica_backend_ids.assign(spec.replicas, "");
    config.replica_backend_ids[schedule.backend_fault_replica] =
        faulted_backend_id(spec, schedule);
  }
  rl::RouterQServer router(config, model);
  if (spec.prime) {
    const rl::QNetState state = primed_state(spec, model);
    router.run_exclusive_on_all([&state](rl::OsElmQBackend& backend) {
      backend.import_state(state);
    });
  }

  std::map<std::string, std::uint64_t> served_by;
  std::uint64_t rescued_results = 0;
  std::uint64_t rescued_noncompleted = 0;
  Tier tier;
  tier.add = [&router, &spec](const PlannedSession& planned) {
    rl::RouterSessionSpec session;
    session.session = async_spec(spec, planned);
    session.affinity_key = planned.affinity_key;
    return router.add_session(session);
  };
  tier.wait = [&router](std::size_t id) { return router.wait(id); };
  tier.stop = [&router] { router.stop(); };
  tier.stall = [&router, &spec](std::uint64_t stall_ms) {
    // Occupy ONE replica's batch thread; its co-replicas keep serving.
    return router.run_exclusive_on(
        spec.stall_replica, [stall_ms](rl::OsElmQBackend&) {
          std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
        });
  };
  tier.kill = [&router](std::size_t replica) {
    router.kill_replica(replica);
  };
  tier.on_result = [&served_by, &rescued_results, &rescued_noncompleted](
                       const rl::AsyncSessionResult& result) {
    ++served_by[result.served_by];
    if (result.rescues > 0) {
      ++rescued_results;
      if (result.cause != rl::SessionEndCause::kCompleted) {
        ++rescued_noncompleted;
      }
    }
  };
  tier.final_checks = [&router, &config, &spec, &schedule, &served_by,
                       &rescued_results,
                       &rescued_noncompleted](ScenarioVerdict& v) {
    const rl::RouterStats stats = router.stats();
    v.abandoned = stats.abandoned;
    check_server_accounting(v, stats.aggregate, stats.rescued);
    const bool chaotic =
        schedule.kill_planned || schedule.backend_fault_planned;
    // Placement map consistency: every result names a real replica, and
    // the per-replica admission counters agree with both the router's
    // own ledger and the served_by attribution of the results. A rescued
    // session legitimately admits once per placement, so under a planned
    // kill / backend fault the per-slot equality relaxes to a fleet-wide
    // sum; the calm case keeps the strict per-replica identity.
    bool consistent = stats.sessions_admitted == v.admitted;
    std::string detail =
        "router admitted " + std::to_string(stats.sessions_admitted);
    std::uint64_t attributed = 0;
    std::uint64_t slot_admitted = 0;
    std::uint64_t slot_retired = 0;
    for (std::size_t r = 0; r < stats.per_replica.size(); ++r) {
      const std::string replica_name =
          config.name + "/r" + std::to_string(r);
      const auto it = served_by.find(replica_name);
      const std::uint64_t served =
          it == served_by.end() ? 0 : it->second;
      attributed += served;
      slot_admitted += stats.per_replica[r].sessions_admitted;
      slot_retired += stats.per_replica[r].sessions_retired;
      if (!chaotic &&
          (stats.per_replica[r].sessions_admitted != served ||
           stats.per_replica[r].sessions_retired != served)) {
        consistent = false;
      }
      detail += "; " + replica_name + " admitted " +
                std::to_string(stats.per_replica[r].sessions_admitted) +
                " served " + std::to_string(served);
    }
    if (slot_admitted != v.admitted + stats.rescued ||
        slot_retired != v.admitted + stats.rescued) {
      consistent = false;
    }
    // attributed counts only results naming a real replica; any result
    // with an unknown served_by leaves it short of admitted.
    if (attributed != v.admitted) consistent = false;
    push_invariant(v, "placement-consistent", consistent, detail);
    // Health timelines are monotone per incarnation — degraded never
    // heals back within an incarnation (sticky), failed never un-fails —
    // and every replacement incarnation starts healthy.
    bool monotone = true;
    std::size_t health_events = 0;
    for (const rl::ReplicaHealthInfo& info : stats.health) {
      bool first = true;
      std::uint64_t prev_inc = 0;
      int prev_rank = 0;
      for (const rl::ReplicaHealthEvent& event : info.timeline) {
        ++health_events;
        const int rank = static_cast<int>(event.state);
        if (!first) {
          if (event.incarnation < prev_inc) {
            monotone = false;
          } else if (event.incarnation == prev_inc) {
            if (rank < prev_rank) monotone = false;
          } else if (event.state != rl::ReplicaHealth::kHealthy) {
            monotone = false;
          }
        }
        first = false;
        prev_inc = event.incarnation;
        prev_rank = rank;
      }
    }
    push_invariant(v, "health-monotone", monotone,
                   std::to_string(health_events) +
                       " health events across " +
                       std::to_string(stats.health.size()) +
                       " slots, all monotone per incarnation");
    if (schedule.kill_planned && spec.stop_after_ms == 0) {
      // The planned hard kill with no mid-run stop: every session the
      // kill orphaned must have been rescued to completion on a
      // survivor — none abandoned, none left failed.
      push_invariant(v, "rescued-complete",
                     rescued_noncompleted == 0 && stats.abandoned == 0,
                     std::to_string(rescued_results) +
                         " rescued sessions all completed; abandoned " +
                         std::to_string(stats.abandoned));
    }
    if (schedule.kill_planned) {
      // The killed slot must have been replaced, and (when the fleet was
      // primed) every replacement seeded from fleet state — a fresh,
      // untrained replacement would silently serve garbage Q values.
      const bool seeded_ok =
          !spec.prime || stats.replacements_seeded == stats.replacements;
      push_invariant(v, "replacement-seeded",
                     stats.replacements >= 1 && seeded_ok,
                     std::to_string(stats.replacements) +
                         " replacements, " +
                         std::to_string(stats.replacements_seeded) +
                         " seeded from fleet state");
    }
  };

  drive_tier(spec, schedule, verdict, tier);
  const rl::RouterStats final_stats = router.stats();
  verdict.server_stats_json = final_stats.to_json();
  verdict.health_json = final_stats.health_json();
  return verdict;
}

std::string verdict_json(const ScenarioVerdict& verdict,
                         bool with_telemetry) {
  std::ostringstream out;
  char digest[32];
  std::snprintf(digest, sizeof(digest), "0x%016llx",
                static_cast<unsigned long long>(verdict.schedule_digest));
  out << "{\n";
  out << "  \"scenario\": \"" << obs::json_escape(verdict.scenario) << "\",\n";
  out << "  \"backend_tier\": \"" << obs::json_escape(verdict.backend_tier)
      << "\",\n";
  out << "  \"backend_id\": \"" << obs::json_escape(verdict.backend_id)
      << "\",\n";
  out << "  \"seed\": " << verdict.seed << ",\n";
  out << "  \"schedule_digest\": \"" << digest << "\",\n";
  out << "  \"planned_sessions\": " << verdict.planned_sessions << ",\n";
  out << "  \"pass\": " << (verdict.pass ? "true" : "false") << ",\n";
  out << "  \"invariants\": [\n";
  for (std::size_t i = 0; i < verdict.invariants.size(); ++i) {
    const InvariantResult& inv = verdict.invariants[i];
    out << "    {\"name\": \"" << obs::json_escape(inv.name) << "\", \"pass\": "
        << (inv.pass ? "true" : "false");
    // Details carry timing-dependent counts, so they belong to the full
    // verdict only — the deterministic core stays byte-stable.
    if (with_telemetry) {
      out << ", \"detail\": \"" << obs::json_escape(inv.detail) << "\"";
    }
    out << "}" << (i + 1 < verdict.invariants.size() ? "," : "") << "\n";
  }
  out << "  ]";
  if (with_telemetry) {
    out << ",\n  \"telemetry\": {\n";
    out << "    \"attempted\": " << verdict.attempted << ",\n";
    out << "    \"admitted\": " << verdict.admitted << ",\n";
    out << "    \"rejected_capacity\": " << verdict.rejected_capacity
        << ",\n";
    out << "    \"rejected_stopping\": " << verdict.rejected_stopping
        << ",\n";
    out << "    \"rejected_duplicate\": " << verdict.rejected_duplicate
        << ",\n";
    out << "    \"completed\": " << verdict.completed << ",\n";
    out << "    \"failed_env\": " << verdict.failed_env << ",\n";
    out << "    \"failed_backend\": " << verdict.failed_backend << ",\n";
    out << "    \"stopped_early\": " << verdict.stopped_early << ",\n";
    out << "    \"rescued\": " << verdict.rescued << ",\n";
    out << "    \"abandoned\": " << verdict.abandoned << ",\n";
    char wall[64];
    std::snprintf(wall, sizeof(wall), "%.6f", verdict.wall_seconds);
    out << "    \"wall_seconds\": " << wall << ",\n";
    out << "    \"train_step_latency_us\": "
        << verdict.train_step_latency_us.to_json() << ",\n";
    out << "    \"eval_step_latency_us\": "
        << verdict.eval_step_latency_us.to_json() << ",\n";
    out << "    \"server\": "
        << (verdict.server_stats_json.empty() ? "{}"
                                              : verdict.server_stats_json)
        << "\n";
    out << "  }";
  }
  out << "\n}\n";
  return out.str();
}

}  // namespace

std::string ScenarioVerdict::to_json() const {
  return verdict_json(*this, /*with_telemetry=*/true);
}

std::string ScenarioVerdict::deterministic_json() const {
  return verdict_json(*this, /*with_telemetry=*/false);
}

ScenarioVerdict run_chaos(const ScenarioSpec& spec,
                          const ScenarioSchedule& schedule) {
  spec.validate();
  ScenarioVerdict verdict;
  verdict.scenario = spec.name;
  verdict.backend_tier = std::string(to_string(spec.backend));
  verdict.backend_id = spec.backend_id;
  verdict.seed = spec.seed;
  verdict.schedule_digest = schedule.digest;
  verdict.planned_sessions = schedule.total_sessions;
  switch (spec.backend) {
    case ScenarioBackend::kAsync:
      verdict = run_async(spec, schedule, std::move(verdict));
      break;
    case ScenarioBackend::kRouter:
      verdict = run_router(spec, schedule, std::move(verdict));
      break;
  }
  verdict.pass = !verdict.invariants.empty();
  for (const InvariantResult& inv : verdict.invariants) {
    verdict.pass = verdict.pass && inv.pass;
  }
  return verdict;
}

}  // namespace oselm::scenario
