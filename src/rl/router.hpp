// RouterQServer — a multi-replica front tier over AsyncQServer.
//
// One AsyncQServer owns ONE backend, and its single batching thread is
// that backend's only toucher — which caps a deployment at one Q-network
// worth of training/predict throughput no matter how many CPU workers the
// environments get. RouterQServer horizontally scales the serving tier:
// it owns R replicas, each a full AsyncQServer with its OWN backend built
// from rl::BackendRegistry (same backend id, same BackendConfig — and
// therefore, same seed, identical initial weights), and routes sessions
// across them. Every replica runs its sessions on the router's ONE
// util::ThreadPool, so a session never waits for its own replica's
// lanes while another replica's sit idle:
//
//   * session-affinity placement: every session carries an affinity key
//     (explicit, or derived from its seeds) that hashes — FNV-1a, so the
//     mapping is platform-stable — to a preferred replica. A session
//     lives on the replica that admitted it until that replica fails;
//     affinity only decides which replica that is, so repeat sessions
//     with the same key land on the same Q-network and see the weights
//     their predecessors trained.
//   * spillover: when the preferred replica is at its live-session cap
//     (or failed), the router places the session on the least-loaded
//     healthy replica with room instead of rejecting it (counted in
//     RouterStats::spillovers). Only when EVERY usable replica is full
//     does admission fail (placement_rejections) — or, with
//     RouterConfig::admission_wait_us > 0, block bounded-wait style for
//     a retirement to free a slot first. The capacity pre-check is
//     race-free because the router is the only admitter: concurrent
//     retirements only decrease load, so a replica observed under cap
//     stays admissible.
//   * aggregated telemetry: stats() merges every replica's
//     AsyncServerStats (counters sum, latency/batch histograms
//     bucket-merge; retired incarnations' stats included) next to the
//     per-replica snapshots, the router's own placement counters, and
//     the per-replica health timelines; RouterStats::to_json() is what
//     bench_router and the router_serving example emit. The metrics
//     registry reads the router's counters as
//     `oselm_router_<field>_total{server="<name>"}` and its admission
//     waits as `oselm_router_admission_wait_us{server="<name>"}`, and
//     each replica incarnation exports its own series under
//     `server="<name>/rI"`.
//
// Replica lifecycle (the self-healing tier). Each replica slot carries a
// health state machine, advanced by the router's maintenance thread —
// its only background thread — which polls the replicas' failure
// counters every kHealthPollUs (the lifecycle constants live in
// router.cpp):
//
//   kHealthy --(any backend-failure event)--> kDegraded
//   kDegraded/kHealthy --(consecutive failed batch passes >=
//        kFailAfterConsecutive, or an explicit kill_replica())--> kFailed
//   kFailed --(replacement server built and swapped in)--> kReplaced,
//        then a NEW incarnation starts at kHealthy
//
// Within one incarnation the state only moves forward (kDegraded is
// sticky) — the timeline in RouterStats::health is monotone per
// incarnation, which the scenario invariants pin. A kFailed replica is
// excluded from placement, stopped (its live sessions retire), and
// replaced by a fresh AsyncQServer under the same replica name. The
// replacement's backend is seeded from the last fleet average when
// averaging has produced one, else from a state export off the
// first initialized survivor, else starts fresh — and is always built
// from the CLEAN RouterConfig::backend_id, never from a per-replica
// "fault:" override (the faulty instance is what is being replaced).
//
// Session rescue: sessions that were live on a failed replica retire
// there with cause kStopped or kBackendError; the router re-places each
// one onto a surviving (or replacement) replica instead of surfacing the
// failure. A rescued session restarts from its spec — same env seed,
// same agent seed — so its completed work on the failed replica is
// discarded and its final result looks like a clean run with
// AsyncSessionResult::rescues > 0. Re-placement retries up to
// kRescueMaxAttempts times with linear backoff; a session that cannot
// be placed (or is caught by router shutdown) is ABANDONED: its partial
// result is delivered with failed = true, cause kBackendError, and an
// error naming the abandonment. Every admitted session therefore ends
// exactly once — completed, rescued-then-completed, failed, stopped, or
// abandoned — the conservation invariant the chaos harness checks.
//
// Results are delivered at the ROUTER level: replicas run in on_retire
// callback mode and never hold results themselves, so wait()/drain()
// work unchanged across rescues and replacements. The router keeps one
// record per session, from admission until its result is claimed: the
// affinity key and spec a rescue re-places it from, its rescue count, and
// its result once it ends. Claiming the result (wait() or drain())
// erases the record, spec and env_factory included, so a router that
// admits sessions indefinitely holds only the unclaimed ones.
//
// Training across replicas is set by RouterConfig::sync_every_updates:
//
//   * 0 — replicas never exchange state; each converges on its own
//     traffic. Evaluation-only and embarrassingly-parallel training
//     fleets use this.
//   * N > 0 — each maintenance pass, after health, replacement and
//     rescue, checks the fleet-wide train-update count (retired
//     incarnations included, so it never drops) and, every N new
//     updates, averages the replicas' learned state (beta, beta_target,
//     P — see rl::QNetState) over the initialized replicas and imports
//     the average into every replica, parameter-averaging style. Export
//     and import run through AsyncQServer::run_exclusive, i.e. on each
//     replica's batching thread, so the no-backend-locking invariant
//     holds. Requires the backend's state_sync capability (checked at
//     construction against the registry).
//
// Determinism contract (pinned in tests/rl/router_test.cpp): replicas
// are built from the same BackendConfig, so their initial weights are
// identical, and kEvaluate sessions never mutate a backend — a
// fixed-seed evaluation session therefore produces a bit-identical
// trajectory REGARDLESS of which replica serves it, of the replica
// count, and of co-tenant placement. Training remains scheduling-
// dependent exactly as documented on AsyncQServer.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "rl/async_server.hpp"
#include "rl/backend_registry.hpp"

namespace oselm::rl {

/// Per-replica health state (see the header comment for the machine).
enum class ReplicaHealth {
  kHealthy,   ///< serving, no failure events this incarnation
  kDegraded,  ///< serving, but backend-failure events were observed
  kFailed,    ///< excluded from placement; replacement in progress
  kReplaced,  ///< terminal state of a retired incarnation
};

/// "healthy" / "degraded" / "failed" / "replaced" — the JSON spelling.
[[nodiscard]] constexpr std::string_view to_string(
    ReplicaHealth health) noexcept {
  switch (health) {
    case ReplicaHealth::kHealthy:
      return "healthy";
    case ReplicaHealth::kDegraded:
      return "degraded";
    case ReplicaHealth::kFailed:
      return "failed";
    case ReplicaHealth::kReplaced:
      return "replaced";
  }
  return "unknown";
}

/// One health transition, stamped with the incarnation it happened in
/// and wall milliseconds since router construction (telemetry only —
/// at_ms is scheduling-dependent and stays out of deterministic JSON).
struct ReplicaHealthEvent {
  std::uint64_t incarnation = 0;
  ReplicaHealth state = ReplicaHealth::kHealthy;
  double at_ms = 0.0;
};

/// Snapshot of one replica slot's health, returned in RouterStats.
struct ReplicaHealthInfo {
  ReplicaHealth state = ReplicaHealth::kHealthy;
  std::uint64_t incarnation = 0;  ///< 0 = the original replica
  /// Backend-failure events the maintenance thread has attributed to the
  /// CURRENT incarnation.
  std::uint64_t failure_events = 0;
  std::vector<ReplicaHealthEvent> timeline;
};

struct RouterConfig {
  /// Router identity; replica i is named "<name>/r<i>" (stamped into
  /// AsyncSessionResult::served_by — the name survives replacement).
  std::string name = "router";
  std::size_t replicas = 2;
  /// BackendRegistry id each replica's backend is built from.
  std::string backend_id = "software";
  /// Per-replica backend-id overrides, index-matched against the replica
  /// slots; replicas past the end (and empty strings) use backend_id.
  /// This is how the scenario harness points ONE replica at a
  /// "fault:<kind>:<rate>:<seed>:<inner>" backend while the rest of the
  /// fleet stays clean. Replacement replicas ALWAYS use backend_id.
  std::vector<std::string> replica_backend_ids;
  /// Per-replica backend configuration. The SAME config (seed included)
  /// goes to every replica — identical initial weights are what the
  /// evaluation determinism contract rests on. Each replica's backend
  /// owns its ledger, exported as
  /// `oselm_ledger_<category>_seconds{server="<name>/rI"}`.
  BackendConfig backend;
  /// Per-replica serving configuration; `name` is overwritten with the
  /// replica identity. max_live_sessions is the PER-REPLICA admission
  /// cap, so the router admits up to replicas * max_live_sessions.
  /// worker_threads is each replica's share of the ONE worker pool the
  /// whole fleet (replacements included) runs on: the router builds
  /// replicas * worker_threads lanes (0 = hardware concurrency per share).
  AsyncQServerConfig server;
  /// 0 = replicas never exchange state; N > 0 = run an averaging round
  /// whenever the fleet accumulated N train updates since the last one.
  std::uint64_t sync_every_updates = 0;
  /// Bounded-wait admission: when every usable replica is at cap,
  /// add_session blocks up to this long for a retirement to free a slot
  /// before throwing AdmissionError(kCapacity). 0 = reject immediately; a
  /// wait the clock cannot represent (UINT64_MAX) has no deadline.
  std::uint64_t admission_wait_us = 0;
};

/// A session plus its placement key.
struct RouterSessionSpec {
  AsyncSessionSpec session;
  /// Sessions with equal keys prefer the same replica. Empty =
  /// session_key(session), so identical specs co-locate.
  std::string affinity_key;
};

struct RouterStats {
  std::size_t replicas = 0;
  std::uint64_t sessions_admitted = 0;  ///< router-level admissions
  std::uint64_t spillovers = 0;         ///< placed off the preferred replica
  std::uint64_t placement_rejections = 0;  ///< every replica at cap
  std::uint64_t stopping_rejections = 0;   ///< refused while stopping
  std::uint64_t syncs = 0;              ///< completed averaging rounds
  std::uint64_t rescued = 0;       ///< successful session re-placements
  std::uint64_t abandoned = 0;     ///< rescues exhausted / caught by stop
  std::uint64_t replacements = 0;  ///< replica incarnations retired
  /// Replacements whose backend imported a non-fresh QNetState (fleet
  /// average or survivor export) before serving.
  std::uint64_t replacements_seeded = 0;
  std::uint64_t admission_waits = 0;  ///< admissions that blocked at cap
  std::uint64_t admission_wait_timeouts = 0;  ///< ... and still rejected
  /// Wall clock at capture (us since the Unix epoch; obs::wall_clock_us)
  /// and router lifetime at capture (steady us since construction) — the
  /// pair that lets snapshots from different hosts/runs be lined up.
  std::uint64_t captured_at_us = 0;
  std::uint64_t uptime_us = 0;
  AsyncServerStats aggregate;           ///< merged across replicas
  /// Per-SLOT stats: each entry merges every incarnation that served in
  /// that slot (retired replicas' counters are preserved across swaps).
  std::vector<AsyncServerStats> per_replica;
  std::vector<ReplicaHealthInfo> health;  ///< per-slot health snapshot

  [[nodiscard]] std::string to_json() const;
  /// Just the per-replica health array (the chaos harness writes it as a
  /// standalone artifact next to the verdict).
  [[nodiscard]] std::string health_json() const;
};

/// Every router-level counter field of RouterStats: to_json() writes
/// them and the router's metrics collector exports them as
/// `oselm_router_<key>_total`.
inline constexpr CounterField<RouterStats> kRouterCounters[] = {
    {"sessions_admitted", &RouterStats::sessions_admitted},
    {"spillovers", &RouterStats::spillovers},
    {"placement_rejections", &RouterStats::placement_rejections},
    {"stopping_rejections", &RouterStats::stopping_rejections},
    {"syncs", &RouterStats::syncs},
    {"rescued", &RouterStats::rescued},
    {"abandoned", &RouterStats::abandoned},
    {"replacements", &RouterStats::replacements},
    {"replacements_seeded", &RouterStats::replacements_seeded},
    {"admission_waits", &RouterStats::admission_waits},
    {"admission_wait_timeouts", &RouterStats::admission_wait_timeouts},
};

class RouterQServer {
 public:
  /// Builds `config.replicas` AsyncQServer replicas, each with its own
  /// backend from the registry. Throws std::invalid_argument for zero
  /// replicas, unknown backend ids, and — with sync_every_updates > 0 —
  /// for backends without the state_sync capability.
  RouterQServer(RouterConfig config, SimplifiedOutputModel model);
  RouterQServer(const RouterQServer&) = delete;
  RouterQServer& operator=(const RouterQServer&) = delete;
  ~RouterQServer();

  /// Places and admits a session (see the header comment for the
  /// affinity/spillover policy) and returns its ROUTER-level id. Throws
  /// rl::AdmissionError (reason kCapacity) when every usable replica is
  /// at cap — after blocking up to admission_wait_us when configured —
  /// and rl::AdmissionError (reason kStopping) during/after stop(); spec
  /// errors propagate from the replica as std::invalid_argument.
  std::size_t add_session(const RouterSessionSpec& spec);

  /// Blocks until the session's FINAL result is delivered — across any
  /// rescues and replica replacements — and returns it; the result
  /// carries the router id and the serving replica's name in served_by.
  /// Claims the result: the router forgets the session, and a later
  /// wait() on the id — or one still blocked when drain() claims it —
  /// throws std::logic_error. Throws std::invalid_argument for ids never
  /// admitted.
  AsyncSessionResult wait(std::size_t router_session_id);

  /// Blocks until every admitted session has ended (completed, failed,
  /// stopped, or abandoned) and returns all unclaimed results in router
  /// admission order, claiming them as wait() does.
  std::vector<AsyncSessionResult> drain();

  /// Stops the maintenance thread (it abandons any still-queued rescues,
  /// then runs a final partial averaging round), then every replica.
  /// Idempotent.
  void stop();

  /// Marks replica `replica_index` kFailed as if its backend had crossed
  /// the failure threshold: the maintenance thread stops it, rescues its
  /// sessions, and swaps in a replacement. Asynchronous — poll
  /// stats().replacements to observe completion. This is the fault
  /// injection seam the chaos harness's replica-kill axis drives. Throws
  /// std::invalid_argument for an out-of-range index; a no-op while
  /// stopping.
  void kill_replica(std::size_t replica_index);

  /// Runs `fn` through run_exclusive on EVERY replica in index order —
  /// each invocation on that replica's batching thread. This is how
  /// tests prime all replicas with identical trained weights and how
  /// the averaging rounds move state.
  void run_exclusive_on_all(const std::function<void(OsElmQBackend&)>& fn);
  /// Runs `fn` on ONE replica's batching thread without blocking the
  /// caller; the future carries fn's completion (or exception). While fn
  /// runs, that replica's batch loop is occupied — its sessions stall,
  /// co-replicas keep serving — which is exactly the fault the scenario
  /// harness's replica-stall injection exercises. Throws
  /// std::invalid_argument for an out-of-range index.
  std::future<void> run_exclusive_on(std::size_t replica_index,
                                     std::function<void(OsElmQBackend&)> fn);

  [[nodiscard]] RouterStats stats() const;
  [[nodiscard]] std::size_t live_sessions() const;
  [[nodiscard]] std::size_t replica_count() const noexcept {
    return config_.replicas;
  }
  /// The replica an affinity key hashes to (exposed so placement tests
  /// assert against the same mapping the router uses).
  [[nodiscard]] std::size_t preferred_replica(
      const std::string& affinity_key) const noexcept;
  /// Direct access to the CURRENT incarnation serving slot `index`.
  /// Only safe while no replacement can run concurrently (quiescent
  /// fleets, tests); the reference dangles across a replacement.
  [[nodiscard]] const AsyncQServer& replica(std::size_t index) const {
    const std::shared_lock fleet(fleet_mutex_);
    return *replicas_.at(index);
  }

 private:
  /// One admitted session, from admission until its result is claimed.
  struct Session {
    std::size_t rescues = 0;
    std::string key;        ///< affinity key (rescue re-placement)
    AsyncSessionSpec spec;  ///< full spec (rescue re-admission)
    std::optional<AsyncSessionResult> result;  ///< set once it ends
  };
  /// (replica slot, incarnation, replica-local id) — the identity a
  /// retirement callback reports.
  using ReverseKey = std::tuple<std::size_t, std::uint64_t, std::size_t>;
  struct RescueJob {
    std::size_t router_id = 0;
    AsyncSessionResult partial;  ///< the failed-replica retirement
  };

  [[nodiscard]] std::unique_ptr<AsyncQServer> build_replica(
      std::size_t index, std::uint64_t incarnation,
      const QNetState* seed_state);
  void on_replica_retire(std::size_t replica_index,
                         std::uint64_t incarnation,
                         AsyncSessionResult&& result);
  /// Stores a session's final result in its record. Caller holds
  /// bookkeeping_mutex_ and notifies bookkeeping_cv_ once it releases it.
  void finalize_locked(std::size_t router_id, AsyncSessionResult&& result);
  /// Records that replica `replica` runs `router_id` as `local_id`.
  /// Caller holds bookkeeping_mutex_.
  void place_locked(std::size_t router_id, std::size_t replica,
                    std::size_t local_id);
  /// Healthy/degraded replica with room for one more session, honoring
  /// affinity then least-loaded spillover; `npos` when none. Caller
  /// holds fleet (shared) + bookkeeping_mutex_.
  [[nodiscard]] std::size_t pick_replica_locked(const std::string& key,
                                                bool count_spillover);
  void maintenance_loop();
  /// One health poll: attributes new failure events, advances states,
  /// returns the slots that just crossed into kFailed.
  [[nodiscard]] std::vector<std::size_t> observe_health(
      const std::vector<std::size_t>& kill_requests);
  void replace_replica(std::size_t index);
  /// Re-places (or abandons) every queued rescue job. `abandon_all`
  /// skips placement attempts — the shutdown path.
  void process_rescues(bool abandon_all);
  void attempt_rescue(RescueJob&& job, bool abandon_all);
  void record_health_event_locked(std::size_t index, ReplicaHealth state);
  [[nodiscard]] double now_ms() const;

  /// Runs an averaging round when sync_every_updates new train updates
  /// accumulated since the last one — or, on shutdown, when any did.
  void maybe_average(bool stopping);
  /// One averaging round over the initialized replicas; returns true if
  /// state actually moved (at least one replica was initialized).
  bool average_replicas();

  RouterConfig config_;
  SimplifiedOutputModel model_;
  std::chrono::steady_clock::time_point start_{};

  // Lock order: stop_mutex_ > maintenance_mutex_ > fleet_mutex_ >
  // bookkeeping_mutex_. Replica-internal locks rank below every router
  // mutex. Metrics collectors (the router's and each replica's) take no
  // router mutex, and replicas are built and destroyed — attaching and
  // detaching their collectors — with none held.

  /// Guards the replica pointer array against replacement swaps: every
  /// reader (admission, averaging, stats, run_exclusive_*) holds it
  /// shared; the maintenance thread holds it unique only for the swap.
  mutable std::shared_mutex fleet_mutex_;
  /// The fleet's worker pool, shared by every replica incarnation.
  /// Declared before replicas_, so it outlives them.
  std::shared_ptr<util::ThreadPool> pool_;
  std::vector<std::unique_ptr<AsyncQServer>> replicas_;
  /// Counters of incarnations retired by replacement, merged into
  /// stats().per_replica. Written under unique fleet_mutex_.
  std::vector<AsyncServerStats> retired_stats_;

  // Bookkeeping: the session table, live placements and replica health.
  // The router is the only admitter; the maintenance thread writes
  // health, admissions and retirement callbacks read it.
  mutable std::mutex bookkeeping_mutex_;
  /// Fires on every finalized result, on every replacement (a replica's
  /// capacity came back) and on stop(): wait(), drain() and bounded-wait
  /// admissions block on it.
  std::condition_variable bookkeeping_cv_;
  /// Unclaimed sessions by router id: an id below next_router_id_ with no
  /// entry was claimed.
  std::map<std::size_t, Session> sessions_;
  /// Live placement -> router id; each entry goes when its retirement
  /// arrives, since each (slot, incarnation, local id) retires once.
  std::map<ReverseKey, std::size_t> reverse_;
  std::size_t next_router_id_ = 0;
  std::size_t unfinalized_ = 0;  ///< admitted sessions with no result yet
  /// failure_events is the replica's backend_failure_events() reading
  /// already attributed to health.
  std::vector<ReplicaHealthInfo> health_;

  CounterSet<kRouterCounters> counters_;
  /// Health-timeline entries recorded after construction; exported as
  /// oselm_router_health_transitions_total.
  std::atomic<std::uint64_t> health_transitions_{0};
  /// Wall time admissions spent blocked at capacity, recorded while
  /// tracing or metrics timing is on.
  obs::Histogram admission_wait_us_;
  std::atomic<bool> stopping_{false};

  // Maintenance thread (health polling, kills, replacement, rescue,
  // averaging).
  std::mutex maintenance_mutex_;
  std::condition_variable maintenance_cv_;
  bool maintenance_stop_ = false;
  std::vector<std::size_t> kill_requests_;
  std::vector<RescueJob> rescue_queue_;
  // Averaging state, owned by the maintenance thread (batch threads
  // read last_average_ only inside its blocking run_exclusive imports).
  std::uint64_t last_synced_updates_ = 0;
  QNetState last_average_;  ///< replacement seed once initialized
  std::thread maintenance_thread_;
  std::mutex stop_mutex_;  ///< serializes stop() callers
  /// Declared last, so destroyed first: the collector detaches before
  /// any member it reads goes away.
  obs::MetricsRegistry::CollectorHandle metrics_;
};

}  // namespace oselm::rl
