// ScenarioSpec — declarative workload + chaos description.
//
// A scenario is everything the chaos harness needs to reproduce a serving
// workload from a single file: which backend tier to drive
// (AsyncQServer, RouterQServer), an environment mix (env::registry
// ids, modifiers included), a fault plan, a session churn schedule (timed
// mass-join bursts with a train/eval mode mix), step/duration budgets,
// and ONE master seed. Every random choice the harness makes — which env
// a session draws, whether it trains or evaluates, its env/agent seeds,
// its fault wrapper's per-instance seed — derives from that master seed
// through a dedicated util::Rng stream (scenario::expand_schedule), so
// the same spec + seed expands to a bit-identical schedule on every run
// and platform, and the scenario rng never perturbs any environment rng.
//
// The on-disk format is intentionally dumb: one "key = value" per line,
// '#' comments, repeated keys for the env mix and fault plan. Parsing is
// STRICT — unknown keys, duplicate scalar keys, malformed numbers, and
// out-of-range values all throw std::invalid_argument naming the line —
// because a silently-ignored typo in a chaos spec means silently not
// testing what you meant to test. parse_scenario(spec.to_text()) == spec
// is pinned by tests/scenario/spec_test.cpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace oselm::scenario {

/// Which serving tier the scenario drives.
enum class ScenarioBackend {
  kAsync,   ///< rl::AsyncQServer — continuous batching, full chaos
  kRouter,  ///< rl::RouterQServer — multi-replica, per-replica stalls
};

/// "async" / "router" — the spec-file spelling.
[[nodiscard]] std::string_view to_string(ScenarioBackend backend) noexcept;

/// One fault-plan entry: sessions drawing it get their environment
/// wrapped as "fault:<kind>:<rate>:<seed>:<env-id>" with a per-instance
/// seed from the schedule stream. `kind` "none" (rate ignored) leaves the
/// session unwrapped — mix "none" entries in to set the faulty fraction.
struct FaultPlanEntry {
  std::string kind = "none";  ///< "none" or one of env::fault_kinds()
  double rate = 0.0;          ///< per-call fault probability in [0, 1]
};

struct ScenarioSpec {
  std::string name = "scenario";
  ScenarioBackend backend = ScenarioBackend::kAsync;
  /// Master seed: the ONLY entropy source for schedule expansion.
  std::uint64_t seed = 2021;

  // Workload shape.
  std::vector<std::string> env_ids;     ///< env mix (>= 1, homogeneous dims)
  std::vector<FaultPlanEntry> faults;   ///< fault plan (empty = no faults)
  double train_fraction = 0.0;          ///< P(session trains) vs evaluates
  std::size_t sessions = 16;            ///< total sessions across bursts
  std::size_t episodes_per_session = 2;
  std::size_t max_steps_per_episode = 40;

  // Churn schedule: `sessions` split over `bursts` mass-joins spaced
  // `burst_gap_ms` apart (leaves happen naturally as budgets complete).
  std::size_t bursts = 4;
  std::uint64_t burst_gap_ms = 2;
  /// 0 = every session gets a unique affinity key; N > 0 draws keys from
  /// an N-sized space, so sessions collide — co-locating on the router
  /// and exercising the driver's duplicate-id rejection.
  std::size_t affinity_keys = 0;

  // Serving tier configuration.
  std::string backend_id = "software";  ///< rl::BackendRegistry id
  std::size_t hidden_units = 32;        ///< N-tilde per backend
  std::size_t max_live_sessions = 8;    ///< per-server admission cap
  std::size_t worker_threads = 2;
  std::size_t replicas = 2;             ///< router only
  /// Router training sync (router only), passed through as
  /// rl::RouterConfig::sync_every_updates: 0 runs replicas independent;
  /// N > 0 turns on periodic parameter averaging every N fleet-wide
  /// train updates — the backend must have the state_sync capability.
  std::uint64_t sync_every_updates = 0;

  // Chaos injections.
  std::uint64_t stall_ms = 0;       ///< backend stall duration (0 = none)
  std::size_t stall_replica = 0;    ///< router: which replica stalls
  std::size_t stall_at_burst = 0;   ///< stall fires just before this burst
  std::uint64_t stop_after_ms = 0;  ///< 0 = wait for retirement; else
                                    ///< deadline-style stop() mid-run
  std::uint64_t stop_deadline_ms = 30000;  ///< stop() watchdog budget

  // Backend-fault axis (async/router only): the serving backend itself is
  // wrapped as "fault:<kind>:<rate>:<seed>:<backend_id>" (rl::FaultBackend)
  // with a per-run seed drawn from the schedule stream. On the router the
  // wrapper applies to ONE replica (backend_fault_replica) in its original
  // incarnation only — a replacement replica always gets the clean
  // backend, which is what makes replacement a recovery.
  std::string backend_fault_kind = "none";  ///< none or backend_fault_kinds()
  double backend_fault_rate = 0.0;          ///< per-call probability [0, 1]
  std::size_t backend_fault_replica = 0;    ///< router: faulted replica

  // Replica-kill event (router only): kill_replica is hard-killed via
  // RouterQServer::kill_replica just before burst kill_at_burst fires —
  // its live sessions are rescued onto survivors and the slot is
  // replaced. Spec-file form: "kill = none" or "kill = <replica>@<burst>".
  bool kill_planned = false;
  std::size_t kill_replica = 0;
  std::size_t kill_at_burst = 0;

  /// Router bounded-wait admission: a join against a saturated fleet
  /// blocks up to this long for a retirement before kCapacity rejection.
  std::uint64_t admission_wait_us = 0;
  /// Deterministically init_train every backend (paper Eq. 8 on seeded
  /// random data) before the first burst, so evaluate-only scenarios run
  /// a trained Q surface and replica replacements can be state-seeded
  /// from any survivor. async/router only.
  bool prime = false;

  /// Structural validation beyond per-line parsing: at least one env,
  /// bursts/sessions/caps nonzero, stall/replica indices in range.
  /// Throws std::invalid_argument naming the offending field.
  void validate() const;

  /// Canonical spec-file form. parse_scenario(to_text()) reproduces this
  /// spec exactly (the round-trip pin); the schedule digest hashes it.
  [[nodiscard]] std::string to_text() const;
};

/// Parses the "key = value" format described above. Strict: throws
/// std::invalid_argument (naming the line number) on anything it does
/// not fully understand, then runs ScenarioSpec::validate().
[[nodiscard]] ScenarioSpec parse_scenario(const std::string& text);

/// Reads `path` and parses it; throws std::runtime_error when the file
/// cannot be read.
[[nodiscard]] ScenarioSpec load_scenario_file(const std::string& path);

}  // namespace oselm::scenario
