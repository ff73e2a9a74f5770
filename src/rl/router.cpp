#include "rl/router.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "linalg/ops.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contract.hpp"
#include "util/hash.hpp"

namespace oselm::rl {

namespace {

constexpr std::size_t kNoReplica = static_cast<std::size_t>(-1);

/// Maintenance-thread poll cadence: health, rescue and averaging.
constexpr std::uint64_t kHealthPollUs = 200;
/// Consecutive failed batch-thread passes (AsyncQServer::
/// consecutive_backend_failures) at which the maintenance thread marks a
/// replica kFailed and replaces it.
constexpr std::uint64_t kFailAfterConsecutive = 3;
/// Re-placement attempts per rescued session before abandoning it.
constexpr std::size_t kRescueMaxAttempts = 3;
/// Linear backoff between rescue attempts: attempt * kRescueBackoffUs.
constexpr std::uint64_t kRescueBackoffUs = 200;

/// Trace-instant spelling of a health transition; literals so the
/// record path never allocates.
void trace_health_transition(ReplicaHealth state) {
  switch (state) {
    case ReplicaHealth::kHealthy:
      OSELM_TRACE_INSTANT("health", "to_healthy");
      break;
    case ReplicaHealth::kDegraded:
      OSELM_TRACE_INSTANT("health", "to_degraded");
      break;
    case ReplicaHealth::kFailed:
      OSELM_TRACE_INSTANT("health", "to_failed");
      break;
    case ReplicaHealth::kReplaced:
      OSELM_TRACE_INSTANT("health", "to_replaced");
      break;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction / lifecycle
// ---------------------------------------------------------------------------

RouterQServer::RouterQServer(RouterConfig config, SimplifiedOutputModel model)
    : config_(std::move(config)), model_(model) {
  if (config_.replicas == 0) {
    throw std::invalid_argument("RouterQServer: replicas == 0");
  }
  start_ = std::chrono::steady_clock::now();
  // One worker pool for the whole fleet, replacements included: a session
  // resumed on a replica whose share of lanes is asleep in env steps runs
  // on any idle lane instead of waiting. worker_threads is each replica's
  // share, so the fleet keeps the lane count R private pools would have.
  const std::size_t share =
      config_.server.worker_threads != 0
          ? config_.server.worker_threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  pool_ = std::make_shared<util::ThreadPool>(config_.replicas * share);
  replicas_.reserve(config_.replicas);
  retired_stats_.resize(config_.replicas);
  health_.resize(config_.replicas);
  for (std::size_t i = 0; i < config_.replicas; ++i) {
    replicas_.push_back(build_replica(i, /*incarnation=*/0, nullptr));
    health_[i].timeline.push_back(
        ReplicaHealthEvent{0, ReplicaHealth::kHealthy, now_ms()});
  }
  maintenance_thread_ = std::thread([this] { maintenance_loop(); });
  metrics_ = obs::MetricsRegistry::global().add_collector(
      [this](obs::MetricsSnapshot& snapshot) {
        counters_.append_series(snapshot, "oselm_router_", config_.name);
        const obs::Labels server{{"server", config_.name}};
        snapshot.counters.push_back(
            {"oselm_router_health_transitions_total", server,
             health_transitions_.load(std::memory_order_relaxed)});
        snapshot.histograms.push_back({"oselm_router_admission_wait_us",
                                       server, admission_wait_us_.snapshot()});
      });
}

std::unique_ptr<AsyncQServer> RouterQServer::build_replica(
    std::size_t index, std::uint64_t incarnation,
    const QNetState* seed_state) {
  BackendCapabilities required;
  required.state_sync = config_.sync_every_updates > 0;
  // Per-replica backend-id overrides apply to the ORIGINAL incarnation
  // only: a replacement never re-inherits a "fault:" modifier — the
  // faulty backend instance is exactly what is being replaced.
  std::string backend_id = config_.backend_id;
  if (incarnation == 0 && index < config_.replica_backend_ids.size() &&
      !config_.replica_backend_ids[index].empty()) {
    backend_id = config_.replica_backend_ids[index];
  }
  // Every replica gets the SAME BackendConfig — seed included — so all
  // R networks start with identical weights (the evaluation determinism
  // contract; see the header comment).
  OsElmQBackendPtr backend =
      make_backend(backend_id, config_.backend, required);
  // Seed BEFORE the server exists: no batch thread has been spawned, so
  // the import is single-threaded by construction, and the server's
  // constructor observes an already-initialized backend (its sessions
  // skip init_train and go straight to sequential serving).
  if (seed_state != nullptr && seed_state->initialized) {
    backend->import_state(*seed_state);
  }
  AsyncQServerConfig server = config_.server;
  server.name = config_.name + "/r" + std::to_string(index);
  server.on_retire = [this, index, incarnation](AsyncSessionResult&& r) {
    on_replica_retire(index, incarnation, std::move(r));
  };
  return std::make_unique<AsyncQServer>(std::move(backend), model_,
                                        std::move(server), pool_);
}

RouterQServer::~RouterQServer() { stop(); }

void RouterQServer::stop() {
  const std::scoped_lock stop_lock(stop_mutex_);
  stopping_.store(true, std::memory_order_release);
  bookkeeping_cv_.notify_all();  // release bounded-wait admissions
  // Maintenance first: it drives replica stop()/swap, rescue
  // re-admission and averaging (run_exclusive into the batch threads),
  // none of which may race the fleet teardown below.
  if (maintenance_thread_.joinable()) {
    {
      const std::scoped_lock lk(maintenance_mutex_);
      maintenance_stop_ = true;
    }
    maintenance_cv_.notify_all();
    maintenance_thread_.join();
  }
  // A retirement callback racing the stopping_ flag may have enqueued a
  // rescue after the maintenance thread's final sweep; abandon it here
  // so every admitted session still ends exactly once.
  process_rescues(/*abandon_all=*/true);
  const std::shared_lock fleet(fleet_mutex_);
  for (const std::unique_ptr<AsyncQServer>& replica : replicas_) {
    replica->stop();
  }
}

double RouterQServer::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

// ---------------------------------------------------------------------------
// Placement & admission
// ---------------------------------------------------------------------------

std::size_t RouterQServer::preferred_replica(
    const std::string& affinity_key) const noexcept {
  // util::fnv1a is platform-stable — the same key maps to the same
  // replica on every build, which the placement tests (and any operator
  // reasoning about session co-location) rely on.
  return static_cast<std::size_t>(util::fnv1a(affinity_key) %
                                  config_.replicas);
}

std::size_t RouterQServer::pick_replica_locked(const std::string& key,
                                               bool count_spillover) {
  // kFailed replicas are mid-replacement: excluded from placement.
  // Everything else (kDegraded included) serves.
  const auto usable = [this](std::size_t r) {
    return health_[r].state != ReplicaHealth::kFailed;
  };
  // Capacity pre-check. Race-free despite being a separate step from
  // the replica's own admission: this router is the replica's ONLY
  // admitter (bookkeeping_mutex_ serializes admission and rescue), and
  // concurrent retirements only DECREASE load — a replica observed
  // under cap cannot be over cap by the time add_session lands.
  const auto load = [this](std::size_t r) {
    return replicas_[r]->live_sessions();
  };
  const std::size_t cap = config_.server.max_live_sessions;
  const std::size_t preferred = preferred_replica(key);
  if (usable(preferred) && load(preferred) < cap) return preferred;
  // Spillover: least-loaded usable replica with room, lowest index on
  // ties.
  std::size_t best = kNoReplica;
  for (std::size_t r = 0; r < config_.replicas; ++r) {
    if (r == preferred || !usable(r)) continue;
    const std::size_t l = load(r);
    if (l >= cap) continue;
    if (best == kNoReplica || l < load(best)) best = r;
  }
  if (best != kNoReplica && count_spillover) {
    counters_.add<&RouterStats::spillovers>();
    OSELM_TRACE_INSTANT("router", "spillover");
  }
  return best;
}

void RouterQServer::place_locked(std::size_t router_id, std::size_t replica,
                                 std::size_t local_id) {
  const bool unique =
      reverse_
          .emplace(ReverseKey{replica, health_[replica].incarnation, local_id},
                   router_id)
          .second;
  // Two router ids on one (replica, incarnation, local id) would make
  // retirement attribution ambiguous.
  OSELM_DCHECK(unique);
}

std::size_t RouterQServer::add_session(const RouterSessionSpec& spec) {
  const std::string key = spec.affinity_key.empty()
                              ? session_key(spec.session)
                              : spec.affinity_key;
  const std::shared_lock fleet(fleet_mutex_);
  std::unique_lock lk(bookkeeping_mutex_);
  const auto deadline = wait_deadline(std::chrono::steady_clock::now(),
                                      config_.admission_wait_us);
  bool waited = false;
  std::uint64_t wait_start_us = 0;  // 0 = never blocked / timing off
  for (;;) {
    if (stopping_.load(std::memory_order_acquire)) {
      counters_.add<&RouterStats::stopping_rejections>();
      throw AdmissionError(AdmissionRejectReason::kStopping,
                           "RouterQServer::add_session", key,
                           "router is stopping");
    }
    const std::size_t target = pick_replica_locked(key, true);
    if (target != kNoReplica) {
      // Spec errors (bad env, encoder mismatch) propagate from the
      // replica before any placement is recorded. An AdmissionError here
      // means the replica was marked kFailed and stopped between our
      // health check and the admission — re-pick (the mark happens
      // BEFORE the stop, so the next pick excludes it).
      std::size_t local_id = 0;
      try {
        local_id = replicas_[target]->add_session(spec.session);
      } catch (const AdmissionError&) {
        continue;
      }
      // bookkeeping_mutex_ is held across the replica admission AND the
      // recording, so the retirement callback's lookup cannot miss.
      const std::size_t router_id = next_router_id_++;
      sessions_.emplace(router_id, Session{0, key, spec.session, {}});
      ++unfinalized_;
      place_locked(router_id, target, local_id);
      counters_.add<&RouterStats::sessions_admitted>();
      OSELM_TRACE_INSTANT("router", "place");
      if (wait_start_us != 0) {
        admission_wait_us_.record(
            static_cast<double>(obs::Tracer::now_us() - wait_start_us));
      }
      return router_id;
    }
    // Every usable replica is at cap: bounded wait for a retirement to
    // free a slot (bookkeeping_cv_ fires on every finalization and on
    // stop()), then re-pick; reject on deadline. A deadline the clock
    // cannot represent means no deadline.
    if (config_.admission_wait_us == 0 ||
        (deadline && std::chrono::steady_clock::now() >= *deadline)) {
      counters_.add<&RouterStats::placement_rejections>();
      OSELM_TRACE_INSTANT("router", "placement_rejected");
      if (waited) {
        counters_.add<&RouterStats::admission_wait_timeouts>();
        if (wait_start_us != 0) {
          admission_wait_us_.record(
              static_cast<double>(obs::Tracer::now_us() - wait_start_us));
        }
      }
      throw AdmissionError(
          AdmissionRejectReason::kCapacity, "RouterQServer::add_session",
          key,
          "every replica is at its live-session cap (" +
              std::to_string(config_.replicas) + " x " +
              std::to_string(config_.server.max_live_sessions) +
              (waited ? ") and none retired within " +
                            std::to_string(config_.admission_wait_us) + "us"
                      : "); retry after a session retires"));
    }
    if (!waited) {
      waited = true;
      counters_.add<&RouterStats::admission_waits>();
      if (obs::Tracer::enabled() || obs::timing_enabled()) {
        wait_start_us = obs::Tracer::now_us();
      }
    }
    if (deadline) {
      bookkeeping_cv_.wait_until(lk, *deadline);
    } else {
      bookkeeping_cv_.wait(lk);
    }
  }
}

// ---------------------------------------------------------------------------
// Result delivery (router level — replicas run in on_retire mode)
// ---------------------------------------------------------------------------

void RouterQServer::on_replica_retire(std::size_t replica_index,
                                      std::uint64_t incarnation,
                                      AsyncSessionResult&& result) {
  std::unique_lock lk(bookkeeping_mutex_);
  // add_session/attempt_rescue record the placement under
  // bookkeeping_mutex_ BEFORE the replica can retire the session, so the
  // lookup cannot miss; the placement ends here.
  const auto node =
      reverse_.extract(ReverseKey{replica_index, incarnation, result.id});
  OSELM_DCHECK(!node.empty());
  const std::size_t router_id = node.mapped();
  // Rescue-eligible: the session ended because its replica failed — it
  // retired kStopped by the replacement's stop() or kBackendError off the
  // faulted backend, on an incarnation health marked kFailed. (The mark
  // happens-before the stop, so kStopped retirements on a failed replica
  // always observe it.) Router shutdown finalizes instead: there is
  // nowhere left to re-place.
  const ReplicaHealthInfo& slot = health_[replica_index];
  const bool rescue = (result.cause == SessionEndCause::kStopped ||
                       result.cause == SessionEndCause::kBackendError) &&
                      !stopping_.load(std::memory_order_acquire) &&
                      slot.state == ReplicaHealth::kFailed &&
                      slot.incarnation == incarnation;
  if (!rescue) {
    finalize_locked(router_id, std::move(result));
    lk.unlock();
    bookkeeping_cv_.notify_all();
    return;
  }
  lk.unlock();
  {
    const std::scoped_lock ml(maintenance_mutex_);
    rescue_queue_.push_back(RescueJob{router_id, std::move(result)});
  }
  maintenance_cv_.notify_all();
}

void RouterQServer::finalize_locked(std::size_t router_id,
                                    AsyncSessionResult&& result) {
  Session& session = sessions_.at(router_id);
  // Exactly-once: a session finalizes through precisely one of the
  // completion, failure, stop, or abandonment paths.
  OSELM_DCHECK(!session.result.has_value());
  result.id = router_id;
  result.rescues = session.rescues;
  session.result = std::move(result);
  --unfinalized_;
}

AsyncSessionResult RouterQServer::wait(std::size_t router_session_id) {
  std::unique_lock lk(bookkeeping_mutex_);
  if (router_session_id >= next_router_id_) {
    throw std::invalid_argument(
        "RouterQServer::wait: unknown router session id " +
        std::to_string(router_session_id));
  }
  auto it = sessions_.end();
  bookkeeping_cv_.wait(lk, [&] {
    it = sessions_.find(router_session_id);
    return it == sessions_.end() || it->second.result.has_value();
  });
  // An admitted id with no record was claimed, maybe by a drain() that
  // ran while this call waited.
  if (it == sessions_.end()) {
    throw std::logic_error("RouterQServer::wait: result of session " +
                           std::to_string(router_session_id) +
                           " was already claimed");
  }
  // Deliver-once: the record goes with its result, so a router that
  // admits and retires millions of sessions does not accumulate them.
  AsyncSessionResult out = std::move(*it->second.result);
  sessions_.erase(it);
  return out;
}

std::vector<AsyncSessionResult> RouterQServer::drain() {
  std::unique_lock lk(bookkeeping_mutex_);
  bookkeeping_cv_.wait(lk, [this] { return unfinalized_ == 0; });
  std::vector<AsyncSessionResult> out;
  out.reserve(sessions_.size());
  // std::map iterates in key order == router admission order.
  for (auto& [id, session] : sessions_) {
    OSELM_DCHECK(session.result.has_value());
    out.push_back(std::move(*session.result));
  }
  sessions_.clear();
  return out;
}

std::size_t RouterQServer::live_sessions() const {
  const std::shared_lock fleet(fleet_mutex_);
  std::size_t total = 0;
  for (const std::unique_ptr<AsyncQServer>& replica : replicas_) {
    total += replica->live_sessions();
  }
  return total;
}

// ---------------------------------------------------------------------------
// Replica lifecycle — maintenance thread
// ---------------------------------------------------------------------------

void RouterQServer::kill_replica(std::size_t replica_index) {
  if (replica_index >= config_.replicas) {
    throw std::invalid_argument(
        "RouterQServer::kill_replica: replica index " +
        std::to_string(replica_index) + " out of range (fleet has " +
        std::to_string(config_.replicas) + ")");
  }
  {
    const std::scoped_lock lk(maintenance_mutex_);
    if (maintenance_stop_) return;  // stopping: the fleet dies anyway
    kill_requests_.push_back(replica_index);
  }
  maintenance_cv_.notify_all();
}

void RouterQServer::record_health_event_locked(std::size_t index,
                                               ReplicaHealth state) {
  ReplicaHealthInfo& slot = health_[index];
  slot.state = state;
  slot.timeline.push_back(
      ReplicaHealthEvent{slot.incarnation, state, now_ms()});
  health_transitions_.fetch_add(1, std::memory_order_relaxed);
  trace_health_transition(state);
}

std::vector<std::size_t> RouterQServer::observe_health(
    const std::vector<std::size_t>& kill_requests) {
  std::vector<std::size_t> newly_failed;
  const std::shared_lock fleet(fleet_mutex_);
  const std::scoped_lock lk(bookkeeping_mutex_);
  for (std::size_t i = 0; i < config_.replicas; ++i) {
    ReplicaHealthInfo& slot = health_[i];
    if (slot.state == ReplicaHealth::kFailed) continue;  // awaiting swap
    const std::uint64_t events = replicas_[i]->backend_failure_events();
    if (events > slot.failure_events) {
      slot.failure_events = events;
      // kDegraded is sticky for the rest of the incarnation — the
      // timeline stays monotone even when the backend recovers.
      if (slot.state == ReplicaHealth::kHealthy) {
        record_health_event_locked(i, ReplicaHealth::kDegraded);
      }
    }
    const bool threshold =
        replicas_[i]->consecutive_backend_failures() >=
        kFailAfterConsecutive;
    const bool killed =
        std::find(kill_requests.begin(), kill_requests.end(), i) !=
        kill_requests.end();
    if (threshold || killed) {
      record_health_event_locked(i, ReplicaHealth::kFailed);
      newly_failed.push_back(i);
    }
  }
  return newly_failed;
}

void RouterQServer::replace_replica(std::size_t index) {
  OSELM_TRACE_SPAN("router", "replace_replica");
  // 1. Choose the replacement's seed state: the last fleet average when
  //    periodic averaging has produced one, else a live export off the
  //    first initialized survivor, else fresh weights.
  QNetState seed = last_average_;
  bool seeded = seed.initialized;
  if (!seeded) {
    const std::shared_lock fleet(fleet_mutex_);
    for (std::size_t r = 0; r < config_.replicas && !seeded; ++r) {
      if (r == index) continue;
      try {
        replicas_[r]->run_exclusive([&](OsElmQBackend& backend) {
          if (!backend.initialized()) return;
          seed = backend.export_state();
          seeded = true;
        });
      } catch (...) {
        // A faulted survivor cannot donate state; try the next one.
      }
    }
  }
  // 2. Stop the failed incarnation. Its live sessions retire (kStopped /
  //    kBackendError); their callbacks see the kFailed mark — recorded
  //    before this call — and queue themselves for rescue.
  std::uint64_t old_incarnation = 0;
  {
    const std::scoped_lock lk(bookkeeping_mutex_);
    old_incarnation = health_[index].incarnation;
  }
  {
    const std::shared_lock fleet(fleet_mutex_);
    replicas_[index]->stop();
  }
  // 3. Build the replacement outside every lock (backend construction
  //    and state import are the expensive part).
  std::unique_ptr<AsyncQServer> fresh =
      build_replica(index, old_incarnation + 1, seeded ? &seed : nullptr);
  // 4. Swap it in. The health transition rides the same unique-lock
  //    critical section so an admission that sees the new replica also
  //    sees the new incarnation (its reverse keys must match the
  //    callbacks the new server will make).
  {
    const std::unique_lock fleet(fleet_mutex_);
    retired_stats_[index].merge(replicas_[index]->stats());
    replicas_[index].swap(fresh);
    const std::scoped_lock lk(bookkeeping_mutex_);
    record_health_event_locked(index, ReplicaHealth::kReplaced);
    ++health_[index].incarnation;
    health_[index].failure_events = 0;
    record_health_event_locked(index, ReplicaHealth::kHealthy);
  }
  fresh.reset();  // destroy the old incarnation outside the fleet lock
  counters_.add<&RouterStats::replacements>();
  if (seeded) counters_.add<&RouterStats::replacements_seeded>();
  bookkeeping_cv_.notify_all();  // a whole replica's capacity came back
}

void RouterQServer::attempt_rescue(RescueJob&& job, bool abandon_all) {
  OSELM_TRACE_SPAN("rescue", "attempt");
  for (std::size_t attempt = 1; !abandon_all && attempt <= kRescueMaxAttempts;
       ++attempt) {
    if (stopping_.load(std::memory_order_acquire)) break;
    {
      const std::shared_lock fleet(fleet_mutex_);
      const std::scoped_lock lk(bookkeeping_mutex_);
      Session& session = sessions_.at(job.router_id);
      // Re-placement honors the same affinity-then-spillover policy as
      // admission but never counts spillovers — the preferred replica
      // is the one that just died.
      const std::size_t target = pick_replica_locked(session.key, false);
      if (target != kNoReplica) {
        try {
          place_locked(job.router_id, target,
                       replicas_[target]->add_session(session.spec));
          ++session.rescues;
          counters_.add<&RouterStats::rescued>();
          OSELM_TRACE_INSTANT("rescue", "rescued");
          return;  // the re-placed run delivers the final result
        } catch (const AdmissionError&) {
          // The target failed between health check and admission;
          // back off and re-pick like the capacity case.
        }
      }
    }
    // Deterministic linear backoff: attempt * kRescueBackoffUs.
    std::this_thread::sleep_for(std::chrono::microseconds(
        kRescueBackoffUs * static_cast<std::uint64_t>(attempt)));
  }
  // Abandoned: deliver the partial result as a backend failure so the
  // session still ends exactly once, with an error naming why.
  counters_.add<&RouterStats::abandoned>();
  OSELM_TRACE_INSTANT("rescue", "abandoned");
  const bool shutdown =
      abandon_all || stopping_.load(std::memory_order_acquire);
  std::string note =
      shutdown ? "router stopping"
               : "no capacity after " + std::to_string(kRescueMaxAttempts) +
                     " attempts";
  AsyncSessionResult result = std::move(job.partial);
  result.cause = SessionEndCause::kBackendError;
  result.completed = false;
  result.failed = true;
  result.error = "rescue abandoned (" + note + ")" +
                 (result.error.empty() ? "" : ": " + result.error);
  {
    const std::scoped_lock lk(bookkeeping_mutex_);
    finalize_locked(job.router_id, std::move(result));
  }
  bookkeeping_cv_.notify_all();
}

void RouterQServer::process_rescues(bool abandon_all) {
  for (;;) {
    RescueJob job;
    {
      const std::scoped_lock lk(maintenance_mutex_);
      if (rescue_queue_.empty()) return;
      job = std::move(rescue_queue_.front());
      rescue_queue_.erase(rescue_queue_.begin());
    }
    attempt_rescue(std::move(job), abandon_all);
  }
}

void RouterQServer::maintenance_loop() {
  obs::Tracer::set_thread_name((config_.name + "/maintenance").c_str());
  std::unique_lock lk(maintenance_mutex_);
  for (;;) {
    maintenance_cv_.wait_for(
        lk, std::chrono::microseconds(kHealthPollUs), [this] {
          return maintenance_stop_ || !kill_requests_.empty() ||
                 !rescue_queue_.empty();
        });
    const bool stopping = maintenance_stop_;
    std::vector<std::size_t> kills = std::move(kill_requests_);
    kill_requests_.clear();
    lk.unlock();
    if (!stopping) {
      const std::vector<std::size_t> failed = observe_health(kills);
      for (const std::size_t index : failed) replace_replica(index);
    }
    // Rescues queue during replace_replica's stop(); re-place them now
    // (the replacement is already serving). On shutdown they abandon —
    // stop() repeats the sweep after the join for stragglers.
    process_rescues(/*abandon_all=*/stopping);
    if (config_.sync_every_updates > 0) maybe_average(stopping);
    lk.lock();
    if (stopping) return;
  }
}

// ---------------------------------------------------------------------------
// State synchronization
// ---------------------------------------------------------------------------

void RouterQServer::run_exclusive_on_all(
    const std::function<void(OsElmQBackend&)>& fn) {
  const std::shared_lock fleet(fleet_mutex_);
  for (const std::unique_ptr<AsyncQServer>& replica : replicas_) {
    replica->run_exclusive(fn);
  }
}

std::future<void> RouterQServer::run_exclusive_on(
    std::size_t replica_index, std::function<void(OsElmQBackend&)> fn) {
  const std::shared_lock fleet(fleet_mutex_);
  if (replica_index >= replicas_.size()) {
    throw std::invalid_argument(
        "RouterQServer::run_exclusive_on: replica index " +
        std::to_string(replica_index) + " out of range (fleet has " +
        std::to_string(replicas_.size()) + ")");
  }
  return replicas_[replica_index]->run_exclusive_async(std::move(fn));
}

bool RouterQServer::average_replicas() {
  OSELM_TRACE_SPAN("averaging", "round");
  const std::shared_lock fleet(fleet_mutex_);
  // Export every replica's learned state through its batch thread.
  // Sequential (not barrier-synchronized) exports: replicas keep
  // training between snapshots, so the average is slightly stale — the
  // standard parameter-averaging trade, and training order is already
  // documented as scheduling-dependent. No replica ever blocks on
  // another, so no rendezvous deadlock is possible.
  std::vector<QNetState> states(replicas_.size());
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    QNetState& slot = states[i];
    replicas_[i]->run_exclusive(
        [&slot](OsElmQBackend& backend) { slot = backend.export_state(); });
  }
  QNetState average;
  std::size_t initialized = 0;
  for (QNetState& state : states) {
    if (!state.initialized) continue;
    if (initialized++ == 0) {
      average = std::move(state);
      continue;
    }
    linalg::axpy_inplace(average.beta, 1.0, state.beta);
    linalg::axpy_inplace(average.beta_target, 1.0, state.beta_target);
    linalg::axpy_inplace(average.p, 1.0, state.p);
  }
  // Nobody has trained yet — nothing to move this round.
  if (initialized == 0) return false;
  const double inv = 1.0 / static_cast<double>(initialized);
  average.beta = linalg::scale(average.beta, inv);
  average.beta_target = linalg::scale(average.beta_target, inv);
  average.p = linalg::scale(average.p, inv);
  // Keep it as the replacement seed: a replica failing later starts
  // from the fleet's consensus instead of fresh weights.
  last_average_ = std::move(average);
  // Import into EVERY replica — an uninitialized one adopts the fleet's
  // state (its buffering sessions switch to sequential training, exactly
  // as if a local init_train had run).
  for (const std::unique_ptr<AsyncQServer>& replica : replicas_) {
    replica->run_exclusive([this](OsElmQBackend& backend) {
      backend.import_state(last_average_);
    });
  }
  counters_.add<&RouterStats::syncs>();
  return true;
}

void RouterQServer::maybe_average(bool stopping) {
  // Per-slot totals include retired incarnations, so the count never
  // drops when a replacement starts from zero updates.
  std::uint64_t total = 0;
  {
    const std::shared_lock fleet(fleet_mutex_);
    for (std::size_t r = 0; r < config_.replicas; ++r) {
      total += retired_stats_[r].train_updates +
               replicas_[r]->train_update_count();
    }
  }
  const bool due = total - last_synced_updates_ >= config_.sync_every_updates;
  // On shutdown, flush a final partial round so short-lived fleets still
  // converge once — before the replicas stop.
  if (!due && !(stopping && total > last_synced_updates_)) return;
  try {
    if (average_replicas()) last_synced_updates_ = total;
  } catch (...) {
    // A faulted backend already retired its sessions (run_exclusive
    // surfaces the exception here); skip the round and let the next
    // pass retry against the survivors.
  }
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

RouterStats RouterQServer::stats() const {
  RouterStats out;
  out.replicas = config_.replicas;
  counters_.read_into(out);
  out.captured_at_us = obs::wall_clock_us();
  out.uptime_us = static_cast<std::uint64_t>(now_ms() * 1000.0);
  out.per_replica.reserve(config_.replicas);
  {
    const std::shared_lock fleet(fleet_mutex_);
    for (std::size_t r = 0; r < config_.replicas; ++r) {
      // Per-SLOT view: retired incarnations' counters plus the live one.
      AsyncServerStats slot = retired_stats_[r];
      slot.merge(replicas_[r]->stats());
      out.aggregate.merge(slot);
      out.per_replica.push_back(std::move(slot));
    }
  }
  const std::scoped_lock lk(bookkeeping_mutex_);
  out.health = health_;
  return out;
}

std::string RouterStats::health_json() const {
  std::string json = "[\n";
  for (std::size_t r = 0; r < health.size(); ++r) {
    const ReplicaHealthInfo& info = health[r];
    char head[160];
    std::snprintf(head, sizeof(head),
                  "  {\"replica\": %llu, \"state\": \"%s\", "
                  "\"incarnation\": %llu, \"failure_events\": %llu, "
                  "\"timeline\": [",
                  static_cast<unsigned long long>(r),
                  std::string(to_string(info.state)).c_str(),
                  static_cast<unsigned long long>(info.incarnation),
                  static_cast<unsigned long long>(info.failure_events));
    json += head;
    for (std::size_t e = 0; e < info.timeline.size(); ++e) {
      const ReplicaHealthEvent& event = info.timeline[e];
      char entry[128];
      std::snprintf(entry, sizeof(entry),
                    "{\"incarnation\": %llu, \"state\": \"%s\", "
                    "\"at_ms\": %.3f}",
                    static_cast<unsigned long long>(event.incarnation),
                    std::string(to_string(event.state)).c_str(),
                    event.at_ms);
      json += entry;
      if (e + 1 < info.timeline.size()) json += ", ";
    }
    json += "]}";
    if (r + 1 < health.size()) json += ",";
    json += "\n";
  }
  json += "]";
  return json;
}

std::string RouterStats::to_json() const {
  std::string json =
      "{\n  \"replicas\": " + std::to_string(replicas) + ",\n  ";
  append_counters_json(json, *this, kRouterCounters);
  json += "\"captured_at_us\": " + std::to_string(captured_at_us) +
          ", \"uptime_us\": " + std::to_string(uptime_us) +
          ",\n  \"health\": ";
  json += health_json();
  json += ",\n  \"aggregate\": ";
  json += aggregate.to_json();
  json += ",\n  \"per_replica\": [\n";
  for (std::size_t r = 0; r < per_replica.size(); ++r) {
    json += per_replica[r].to_json();
    if (r + 1 < per_replica.size()) json += ",";
    json += "\n";
  }
  json += "]\n}";
  return json;
}

}  // namespace oselm::rl
