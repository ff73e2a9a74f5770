// Chaos driver: executes an expanded ScenarioSchedule against a serving
// tier and checks conservation invariants.
//
// The driver is the scenario subsystem's muscle: it replays the schedule's
// mass-join bursts against rl::AsyncQServer / rl::RouterQServer, injects
// the planned backend stall (a run_exclusive sleep occupying one batch
// thread — the chosen replica's, behind the router), lets fault-wrapped
// environments fail mid-run, attributes every admission refusal by its
// structured reason (capacity vs stopping vs duplicate id), and — after stopping the tier under a watchdog — asserts
// the invariants that must hold under ANY timing:
//
//   sessions-conserved   every attempted join is admitted or rejected
//                        with a reason, and every admitted session
//                        delivers exactly one result
//   server-accounting    the tier's own admitted/retired counters agree
//                        with the driver's ledger
//   steps-accounted      the tier's step counter equals the merged step
//                        latency histogram count (no step lost a sample)
//   placement-consistent (router) every result names a real replica and
//                        the per-replica admission counters sum up
//                        (rescued sessions admit once per placement)
//   no-duplicate-results every admitted tier id is distinct and delivers
//                        exactly one result (rescue/replacement must not
//                        mint duplicate ids)
//   health-monotone      (router) every replica's health timeline is
//                        monotone within an incarnation (healthy ->
//                        degraded -> failed -> replaced) and every new
//                        incarnation starts healthy
//   rescued-complete     (router, planned kill, no mid-run stop) every
//                        rescued session completed on a survivor and no
//                        session was abandoned
//   replacement-seeded   (router, planned kill) at least one replacement
//                        happened; with prime, every replacement was
//                        seeded from fleet state, never served fresh
//   stop-returned        stop() returned within the spec's deadline
//   post-stop-rejects    a join after stop() raises rl::AdmissionError
//                        with reason kStopping — never a hang or a bare
//                        error
//
// The verdict separates a DETERMINISTIC core (scenario identity, schedule
// digest, invariant outcomes — identical across runs of the same spec +
// seed) from a "telemetry" subtree (counts, latencies, wall clock — all
// timing-dependent); ScenarioVerdict::deterministic_json() is the core
// alone, which the reproducibility tests compare byte-for-byte.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/schedule.hpp"
#include "scenario/spec.hpp"
#include "util/latency_histogram.hpp"

namespace oselm::scenario {

struct InvariantResult {
  std::string name;
  bool pass = false;
  std::string detail;  ///< the checked identity, numbers filled in
};

struct ScenarioVerdict {
  // Deterministic core.
  std::string scenario;
  std::string backend_tier;  ///< "async" | "router"
  std::string backend_id;
  std::uint64_t seed = 0;
  std::uint64_t schedule_digest = 0;
  std::size_t planned_sessions = 0;
  std::vector<InvariantResult> invariants;
  bool pass = false;  ///< every invariant passed

  // Telemetry (timing-dependent; the "telemetry" JSON subtree).
  std::uint64_t attempted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected_capacity = 0;
  std::uint64_t rejected_stopping = 0;
  std::uint64_t rejected_duplicate = 0;  ///< driver-side key collisions
  std::uint64_t completed = 0;        ///< ran to budget
  std::uint64_t failed_env = 0;       ///< environment threw (fault or real)
  std::uint64_t failed_backend = 0;   ///< backend threw/NaN'd mid-batch
  std::uint64_t stopped_early = 0;    ///< retired by stop()
  std::uint64_t rescued = 0;          ///< sessions re-placed >= 1 time
  std::uint64_t abandoned = 0;        ///< router gave up rescuing (stats)
  double wall_seconds = 0.0;
  /// Per-phase serving latency, split by what the session was doing.
  util::LatencyHistogram train_step_latency_us;
  util::LatencyHistogram eval_step_latency_us;
  /// The tier's own stats snapshot (AsyncServerStats / RouterStats JSON),
  /// embedded verbatim.
  std::string server_stats_json;
  /// Router only: the per-replica health-timeline JSON
  /// (RouterStats::health_json()), persisted as a standalone
  /// "<name>.health.json" artifact by the runner/CLI. Empty elsewhere.
  std::string health_json;

  /// Full verdict: deterministic core + "telemetry" subtree.
  [[nodiscard]] std::string to_json() const;
  /// Core alone — byte-identical across runs of the same spec + seed.
  [[nodiscard]] std::string deterministic_json() const;
};

/// Runs the schedule against the spec's tier. Throws
/// std::invalid_argument for config-level errors (unknown env/backend
/// ids, a dimension-heterogeneous env mix) — those are spec bugs, not
/// scenario outcomes; everything that happens while serving lands in the
/// verdict instead.
[[nodiscard]] ScenarioVerdict run_chaos(const ScenarioSpec& spec,
                                        const ScenarioSchedule& schedule);

}  // namespace oselm::scenario
