#include "rl/async_server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <coroutine>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "env/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rl/policy.hpp"

namespace oselm::rl {

using Clock = std::chrono::steady_clock;

namespace {

/// Weight of each drained session's last env step in the batch thread's
/// smoothed co-tenant step time (AsyncQServer::env_step_us_).
constexpr double kEnvStepSmoothing = 0.1;

/// A corrupting backend (rl::FaultBackend kNan, a real numerical blow-up)
/// must not leak silently into action selection or TD targets: surface it
/// as a backend failure, so its sessions retire with kBackendError and a
/// router can treat the replica as unhealthy.
void require_finite(std::span<const double> q, const char* where) {
  for (std::size_t k = 0; k < q.size(); ++k) {
    if (!std::isfinite(q[k])) {
      throw std::runtime_error(
          std::string("AsyncQServer: backend returned non-finite Q in ") +
          where + " (entry " + std::to_string(k) + ")");
    }
  }
}

/// One drain's resumed session loops, in session-id order, and the index
/// of the next unclaimed one; the lane tasks that claim from it own it.
struct ClaimList {
  std::vector<std::coroutine_handle<>> loops;
  std::atomic<std::size_t> next{0};
};

/// One pool lane: resumes the list's next unclaimed loop, back to back,
/// until none is left. A loop runs until it parks again or retires.
void run_lane(ClaimList& list) {
  if (obs::Tracer::enabled()) {
    // Label each worker lane once, lazily — names show up as Perfetto
    // track titles next to the batch thread's.
    thread_local bool lane_named = false;
    if (!lane_named) {
      obs::Tracer::set_thread_name("worker");
      lane_named = true;
    }
  }
  for (;;) {
    const std::size_t i = list.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= list.loops.size()) return;
    OSELM_TRACE_SPAN("worker", "session_slice");
    list.loops[i].resume();
  }
}

/// The retirement message for a session ended by `error`.
std::string failure_text(const std::exception_ptr& error,
                         const char* fallback) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    const char* what = e.what();
    if (what != nullptr && what[0] != '\0') return what;
  } catch (...) {
  }
  return fallback;
}

}  // namespace

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// One session is one run_episodes() loop, parked on the ready queue
/// whenever an operation needs the shared network.
struct AsyncQServer::Session final : EpisodeDriver {
  Session(AsyncQServer& owner, const AsyncSessionSpec& spec,
          env::EnvironmentPtr environment)
      : server(owner),
        knobs(spec.session),
        training(spec.mode == AsyncSessionMode::kTrain),
        env(std::move(environment)),
        rules(knobs.agent, owner.model_.action_count(),
              owner.backend_->hidden_units(), knobs.agent_seed),
        sa(owner.model_.input_dim(), 0.0),
        admitted_at(Clock::now()),
        loop(run_episodes(*this, *env, knobs.trainer, result.train)) {}

  [[nodiscard]] bool supports_weight_reset() const override {
    return training;
  }
  bool stop_requested() override {
    stopped = server.stopping_.load(std::memory_order_acquire);
    return stopped;
  }
  void step_end() override {
    result.step_latency_us.record(
        std::chrono::duration<double, std::micro>(Clock::now() - step_start)
            .count());
    server.counters_.add<&AsyncServerStats::steps>();
  }
  void finish(std::exception_ptr error) override {  // retire() deletes us
    if (error) {
      server.retire(this, SessionEndCause::kEnvError,
                    failure_text(error, "unknown session failure"));
    } else {
      server.retire(this, stopped ? SessionEndCause::kStopped
                                  : SessionEndCause::kCompleted, {});
    }
  }

  bool act(const linalg::VecD& state) override {
    step_start = Clock::now();
    env_seconds_at_act = env_seconds;
    if (const std::optional<std::size_t> random = rules.explore()) {
      action = *random;
      return false;
    }
    query = &state;
    return wait_for(RequestKind::kGreedyEval);
  }
  bool observe(const nn::Transition& observed) override {
    // The env step since act(), for the batch thread's linger estimate.
    last_env_step_us = (env_seconds - env_seconds_at_act) * 1e6;
    if (!training) return false;
    switch (rules.observe(observed, server.backend_initialized_.load(
                                        std::memory_order_acquire))) {
      case OsElmQRules::Update::kNone:
        break;
      case OsElmQRules::Update::kInitTrain:
        return wait_for(RequestKind::kInitTrain);
      case OsElmQRules::Update::kSeqTrain:
        server.model_.encode_into(observed.state, observed.action, sa);
        transition = &observed;
        return wait_for(RequestKind::kSeqTrain);
    }
    return false;
  }
  bool episode_end(std::size_t episodes_since_reset) override {
    server.counters_.add<&AsyncServerStats::episodes>();
    if (!training || !rules.sync_due(episodes_since_reset)) return false;
    return wait_for(RequestKind::kSyncTarget);
  }
  bool reset_weights() override {
    rules.drop_buffer();
    return wait_for(RequestKind::kReset);
  }
  bool wait_for(RequestKind kind) {
    request = kind;
    return true;
  }
  void park(std::coroutine_handle<>) override { server.enqueue(*this); }

  AsyncQServer& server;
  /// The spec's knobs; its env_factory, used once to build `env`, is not
  /// kept, so nothing it captures outlives the caller's copies.
  ServingSessionSpec knobs;
  const bool training;  ///< kTrain: observes, resets and syncs
  env::EnvironmentPtr env;
  OsElmQRules rules;
  AsyncSessionResult result;
  bool stopped = false;  ///< the loop ended on stop_requested()

  // The parked operation. The loop's frame keeps `query`/`transition`
  // alive while it is suspended; the batch thread reads them (and writes
  // `action`/`max_next_q`) through the ready queue's synchronization.
  RequestKind request = RequestKind::kGreedyEval;
  const linalg::VecD* query = nullptr;         ///< kGreedyEval state
  const nn::Transition* transition = nullptr;  ///< kSeqTrain sample
  linalg::VecD sa;           ///< its encoded (state, action) row
  double max_next_q = 0.0;   ///< max_a Q_theta2(s', a) from the TD batch
  Clock::time_point admitted_at;
  Clock::time_point step_start{};
  double env_seconds_at_act = 0.0;
  /// Duration of the last env.step (µs; negative until one ends). Written
  /// before the session parks, read when the batch thread drains it.
  double last_env_step_us = -1.0;

  EpisodeLoop loop;  ///< last: the loop references the members above
};

// ---------------------------------------------------------------------------
// Construction / lifecycle
// ---------------------------------------------------------------------------

AsyncQServer::AsyncQServer(OsElmQBackendPtr backend,
                           SimplifiedOutputModel model,
                           AsyncQServerConfig config,
                           std::shared_ptr<util::ThreadPool> pool)
    : backend_(std::move(backend)),
      model_(model),
      config_(config),
      action_codes_(model.action_count(), 0.0),
      q_ws_(model.action_count(), 0.0),
      pool_(std::move(pool)) {
  if (!backend_) throw std::invalid_argument("AsyncQServer: null backend");
  if (backend_->input_dim() != model_.input_dim()) {
    throw std::invalid_argument(
        "AsyncQServer: backend input width != encoder width");
  }
  if (config_.max_live_sessions == 0) {
    throw std::invalid_argument("AsyncQServer: max_live_sessions == 0");
  }
  if (config_.max_batch == 0) config_.max_batch = 1;
  for (std::size_t a = 0; a < model_.action_count(); ++a) {
    action_codes_[a] = model_.action_code(a);
  }
  backend_initialized_.store(backend_->initialized(),
                             std::memory_order_release);
  states_by_rows_.resize(config_.max_batch + 1);
  q_by_rows_.resize(config_.max_batch + 1);
  // Ledger ownership transfers to the batch thread: whoever charged this
  // backend's account before (an agent that pre-trained the weights, a
  // bench's setup phase) is quiescent once it hands the backend over.
  backend_->ledger().release_writer();
  started_at_us_ = obs::Tracer::now_us();
  if (!pool_) {
    pool_ = std::make_shared<util::ThreadPool>(config_.worker_threads);
  }
  batch_thread_ = std::thread([this] { batch_loop(); });
  metrics_ = obs::MetricsRegistry::global().add_collector(
      [this](obs::MetricsSnapshot& snapshot) {
        counters_.append_series(snapshot, "oselm_async_", config_.name);
        const obs::Labels server{{"server", config_.name}};
        snapshot.histograms.push_back({"oselm_async_batch_linger_us", server,
                                       batch_linger_us_.snapshot()});
        const std::scoped_lock lk(stats_mutex_);
        for (std::size_t c = 0; c < util::kOpCategoryCount; ++c) {
          const auto category = static_cast<util::OpCategory>(c);
          const double seconds = stopped_ledger_.get(category);
          if (seconds == 0.0) continue;
          snapshot.gauges.push_back(
              {"oselm_ledger_" +
                   std::string(util::op_category_name(category)) + "_seconds",
               server, seconds});
        }
      });
}

AsyncQServer::~AsyncQServer() { stop(); }

void AsyncQServer::stop() {
  // A worker waiting here for live sessions to retire holds a lane those
  // sessions may need; on a shared pool every lane can end up waiting.
  OSELM_DCHECK(!pool_->on_worker_thread());
  const std::scoped_lock stop_lock(stop_mutex_);
  stopping_.store(true, std::memory_order_release);
  {
    // Live sessions retire at their next step boundary; the batch thread
    // keeps serving their in-flight requests until every one is gone.
    std::unique_lock lk(sessions_mutex_);
    retire_cv_.wait(lk, [this] { return live_.empty(); });
  }
  {
    const std::scoped_lock lk(queue_mutex_);
    if (batch_stop_) return;  // a previous stop() already joined
    batch_stop_ = true;
  }
  queue_cv_.notify_all();
  if (batch_thread_.joinable()) batch_thread_.join();
  // The batch thread is gone; the ledger's next writer is whichever
  // thread touches the quiescent backend next (inline run_exclusive, an
  // agent resuming training, a bench reading then reusing it).
  backend_->ledger().release_writer();
  batch_affinity_.release();
  // The collector publishes the quiescent ledger's charge categories.
  const std::scoped_lock lk(stats_mutex_);
  stopped_ledger_ = backend_->ledger().breakdown();
}

std::string session_key(const AsyncSessionSpec& spec) {
  return spec.session.env_id + "#" + std::to_string(spec.session.env_seed) +
         "#" + std::to_string(spec.session.agent_seed);
}

std::size_t AsyncQServer::add_session(const AsyncSessionSpec& spec) {
  spec.session.agent.validate();
  if (spec.session.trainer.solved_window == 0) {
    throw std::invalid_argument("AsyncQServer: solved_window == 0");
  }
  env::EnvironmentPtr environment =
      spec.env_factory
          ? spec.env_factory(spec.session.env_seed)
          : env::make_environment(spec.session.env_id,
                                  spec.session.env_seed);
  if (!environment) {
    throw std::invalid_argument(
        "AsyncQServer::add_session: env_factory returned null");
  }
  if (environment->observation_space().dimensions() != model_.state_dim() ||
      environment->action_space().n != model_.action_count()) {
    throw std::invalid_argument(
        "AsyncQServer::add_session: environment '" + spec.session.env_id +
        "' does not match the server's (state, action) encoding");
  }

  Session* raw = nullptr;
  std::size_t id = 0;
  {
    const std::scoped_lock lk(sessions_mutex_);
    if (stopping_.load(std::memory_order_acquire)) {
      counters_.add<&AsyncServerStats::stopping_rejections>();
      throw AdmissionError(AdmissionRejectReason::kStopping,
                           "AsyncQServer::add_session",
                           session_key(spec), "server is stopping");
    }
    if (live_.size() >= config_.max_live_sessions) {
      counters_.add<&AsyncServerStats::admission_rejections>();
      OSELM_TRACE_INSTANT("session", "admission_rejected");
      throw AdmissionError(
          AdmissionRejectReason::kCapacity, "AsyncQServer::add_session",
          session_key(spec),
          "live-session cap (" + std::to_string(config_.max_live_sessions) +
              ") reached; retry after a session retires");
    }
    id = next_id_++;
    auto session = std::make_unique<Session>(*this, spec,
                                             std::move(environment));
    session->result.id = id;
    session->result.mode = spec.mode;
    raw = session.get();
    live_.emplace(id, std::move(session));
    live_count_.store(live_.size(), std::memory_order_relaxed);
  }
  counters_.add<&AsyncServerStats::sessions_admitted>();
  OSELM_TRACE_INSTANT("session", "admit");
  resume(std::span<Session* const>(&raw, 1));
  return id;
}

AsyncSessionResult AsyncQServer::wait(std::size_t session_id) {
  std::unique_lock lk(sessions_mutex_);
  if (session_id >= next_id_) {
    throw std::invalid_argument("AsyncQServer::wait: unknown session id " +
                                std::to_string(session_id));
  }
  retire_cv_.wait(lk, [&] { return !live_.contains(session_id); });
  // retire() files the result and ends the session in one critical
  // section, so a retired session with no result was claimed — by an
  // earlier wait(), a drain(), or the on_retire callback.
  const auto it = results_.find(session_id);
  if (it == results_.end()) {
    throw std::logic_error("AsyncQServer::wait: result of session " +
                           std::to_string(session_id) +
                           " was already claimed");
  }
  // Deliver-once: the result moves out so a server that admits and
  // retires sessions indefinitely does not accumulate them forever.
  AsyncSessionResult out = std::move(it->second);
  results_.erase(it);
  return out;
}

std::vector<AsyncSessionResult> AsyncQServer::drain() {
  std::unique_lock lk(sessions_mutex_);
  retire_cv_.wait(lk, [this] { return live_.empty(); });
  std::vector<AsyncSessionResult> out;
  out.reserve(results_.size());
  for (auto& [id, result] : results_) out.push_back(std::move(result));
  results_.clear();
  return out;
}

std::size_t AsyncQServer::live_sessions() const {
  const std::scoped_lock lk(sessions_mutex_);
  return live_.size();
}

AsyncServerStats AsyncQServer::stats() const {
  AsyncServerStats out;
  counters_.read_into(out);
  out.captured_at_us = obs::wall_clock_us();
  out.uptime_us = obs::Tracer::now_us() - started_at_us_;
  {
    const std::scoped_lock lk(stats_mutex_);
    out.step_latency_us = retired_latency_;
    out.batch_rows_hist = batch_rows_hist_;
  }
  return out;
}

void AsyncServerStats::merge(const AsyncServerStats& other) {
  for (const auto& [key, field] : kAsyncServerCounters) {
    this->*field += other.*field;
  }
  captured_at_us = std::max(captured_at_us, other.captured_at_us);
  uptime_us = std::max(uptime_us, other.uptime_us);
  step_latency_us.merge(other.step_latency_us);
  batch_rows_hist.merge(other.batch_rows_hist);
}

std::string AsyncServerStats::to_json() const {
  std::string json = "{\n  ";
  append_counters_json(json, *this, kAsyncServerCounters);
  char tail[160];
  std::snprintf(tail, sizeof(tail),
                "\"mean_batch_rows\": %.3f,\n"
                "  \"captured_at_us\": %llu, \"uptime_us\": %llu,\n",
                mean_batch_rows(),
                static_cast<unsigned long long>(captured_at_us),
                static_cast<unsigned long long>(uptime_us));
  return json + tail + "  \"step_latency_us\": " +
         step_latency_us.to_json() + ",\n" +
         "  \"batch_rows_hist\": " + batch_rows_hist.to_json() + "\n}";
}

// ---------------------------------------------------------------------------
// Worker side — session loops between parks
// ---------------------------------------------------------------------------

void AsyncQServer::resume(std::span<Session* const> sessions) {
  // The lanes hold the list, never the server: every loop not claimed yet
  // belongs to a parked, live session, so stop() cannot return while one
  // is left, but once the last is claimed the server may be gone before
  // its lanes see the list empty.
  const auto list = std::make_shared<ClaimList>();
  list->loops.reserve(sessions.size());
  for (Session* s : sessions) {
    if (s != nullptr) list->loops.push_back(s->loop.handle());
  }
  util::ThreadPool& pool = *pool_;
  const std::size_t lanes = std::min(list->loops.size(), pool.size());
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    pool.submit([list] { run_lane(*list); });
  }
}

void AsyncQServer::enqueue(Session& s) {
  OSELM_TRACE_INSTANT("session", "suspend");
  const std::scoped_lock lk(queue_mutex_);
  const bool was_empty = ready_.empty();
  if (was_empty && (obs::Tracer::enabled() || obs::timing_enabled())) {
    // Queue goes empty -> non-empty: the coalescing linger for the next
    // batch starts now. Clock read gated so default-off serving stays
    // clock-free on this seam.
    pending_since_us_ = obs::Tracer::now_us();
  }
  ready_.push_back(&s);
  // Wake the batch thread only when a drain can start: its idle wait
  // ends on empty -> non-empty, its linger on a full batch (retire() and
  // stop() wake it for their own events). The wake happens under the
  // lock: once it is released the request can be served, the session
  // retired and the server destroyed, while this worker — on a pool
  // that may outlive the server — is still returning through here.
  if (was_empty || ready_.size() >= config_.max_batch ||
      ready_.size() >= live_count_.load(std::memory_order_relaxed)) {
    queue_cv_.notify_one();
  }
  // NOTE: the session may already be running on another worker once the
  // lock is released — no member of `s` or of the server may be touched
  // past this point.
}

void AsyncQServer::retire(Session* s, SessionEndCause cause,
                          std::string error) {
  AsyncSessionResult result = std::move(s->result);
  result.cause = cause;
  result.completed = cause == SessionEndCause::kCompleted;
  result.failed = !error.empty();
  result.error = std::move(error);
  result.served_by = config_.name;
  result.train.wall_seconds =
      std::chrono::duration<double>(Clock::now() - s->admitted_at).count();
  result.train.breakdown.add(util::OpCategory::kEnvironment,
                             s->env_seconds);
  {
    const std::scoped_lock lk(stats_mutex_);
    retired_latency_.merge(result.step_latency_us);
  }
  if (cause == SessionEndCause::kEnvError) {
    counters_.add<&AsyncServerStats::env_failures>();
  }
  counters_.add<&AsyncServerStats::sessions_retired>();
  OSELM_TRACE_INSTANT("session", "retire");
  const std::size_t id = result.id;
  // Callback mode (the router's replica seam): deliver the result with
  // NO server locks held — the callback re-places rescued sessions onto
  // other servers, which takes their locks. The session is erased from
  // live_ only AFTER the callback returns, so stop()'s live_.empty()
  // wait cannot complete (and tear the owner down) mid-delivery.
  if (config_.on_retire) config_.on_retire(std::move(result));
  const std::scoped_lock lk(sessions_mutex_);
  if (!config_.on_retire) results_.emplace(id, std::move(result));
  live_.erase(id);  // destroys *s and its (suspended) loop
  live_count_.store(live_.size(), std::memory_order_relaxed);
  // Notify under the locks: a waiter (stop()/wait()/drain()) may destroy
  // the server the moment its predicate holds, so no condition variable
  // may be touched after the mutex is released. The lower live count can
  // complete batch_full() for pending co-tenants, so the batch thread is
  // woken too — under queue_mutex_, so the wake cannot fall between its
  // predicate check and its wait.
  {
    const std::scoped_lock queue_lock(queue_mutex_);
    queue_cv_.notify_all();
  }
  retire_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Batch thread — the only owner of the shared backend
// ---------------------------------------------------------------------------

void AsyncQServer::batch_loop() {
  batch_affinity_.bind();  // this thread owns backend_ until stop()
  obs::Tracer::set_thread_name((config_.name + "/batch").c_str());
  std::vector<Session*> drained;
  std::vector<ExclusiveTask> exclusive;
  for (;;) {
    drained.clear();
    exclusive.clear();
    {
      std::unique_lock lk(queue_mutex_);
      queue_cv_.wait(lk, [this] {
        return batch_stop_ || !ready_.empty() || !exclusive_.empty();
      });
      if (batch_stop_ && ready_.empty() && exclusive_.empty()) return;
      // Exclusive tasks (run_exclusive) jump ahead of batching: they are
      // rare (sync rounds, priming) and their callers block on them.
      if (!exclusive_.empty()) {
        exclusive.assign(std::make_move_iterator(exclusive_.begin()),
                         std::make_move_iterator(exclusive_.end()));
        exclusive_.clear();
      }
      if (!ready_.empty()) {
        // A batch is "full" at max_batch rows — or as soon as no further
        // request can arrive before a drain: every live session already
        // has one pending (solo sessions never pay the linger).
        const auto batch_full = [this] {
          return ready_.size() >= config_.max_batch ||
                 ready_.size() >= live_count_.load(std::memory_order_relaxed);
        };
        if (config_.max_wait_us > 0 && !batch_full() && exclusive.empty()) {
          if (env_step_us_ >= static_cast<double>(config_.max_wait_us)) {
            // Co-tenants spend at least the linger in env.step, so one
            // stepping now cannot join before the deadline: serve now.
            counters_.add<&AsyncServerStats::lingers_skipped>();
          } else {
            // Continuous-batching linger: give co-tenants max_wait_us to
            // join this batch, then serve whatever is pending. UINT64_MAX
            // (the lockstep configuration) has no deadline at all.
            const auto ready = [&] { return batch_stop_ || batch_full(); };
            if (const auto deadline =
                    wait_deadline(Clock::now(), config_.max_wait_us)) {
              queue_cv_.wait_until(lk, *deadline, ready);
            } else {
              queue_cv_.wait(lk, ready);
            }
          }
        }
        // Each live session has at most one request in flight, so the
        // ready queue never outgrows the live count.
        OSELM_DCHECK_LE(ready_.size(),
                        live_count_.load(std::memory_order_relaxed));
        const std::size_t take =
            std::min(ready_.size(), config_.max_batch);
        drained.assign(ready_.begin(),
                       ready_.begin() + static_cast<std::ptrdiff_t>(take));
        ready_.erase(ready_.begin(),
                     ready_.begin() + static_cast<std::ptrdiff_t>(take));
        if (pending_since_us_ != 0) {
          // Achieved batch-assembly linger: first enqueue -> this drain.
          const std::uint64_t now = obs::Tracer::now_us();
          batch_linger_us_.record(
              static_cast<double>(now - pending_since_us_));
          // Requests left behind re-arm; linger restarts at this drain.
          pending_since_us_ = ready_.empty() ? 0 : now;
        }
      }
    }
    for (ExclusiveTask& task : exclusive) run_exclusive_task(task);
    if (!drained.empty()) process_requests(drained);
  }
}

void AsyncQServer::run_exclusive_task(ExclusiveTask& task) {
  OSELM_TRACE_SPAN("batch", "run_exclusive");
  try {
    task.fn(checked_backend());
    task.done->set_value();
  } catch (...) {
    task.done->set_exception(std::current_exception());
  }
  // The callback may have initialized (state import) or reset the
  // backend; buffering workers read this mirror, so refresh it or an
  // imported-initialized network would leave them buffering forever.
  backend_initialized_.store(backend_->initialized(),
                             std::memory_order_release);
}

std::future<void> AsyncQServer::run_exclusive_async(
    std::function<void(OsElmQBackend&)> fn) {
  if (!fn) {
    throw std::invalid_argument("AsyncQServer::run_exclusive: null fn");
  }
  ExclusiveTask task{std::move(fn), std::make_shared<std::promise<void>>()};
  std::future<void> done = task.done->get_future();
  {
    std::unique_lock lk(queue_mutex_);
    if (!batch_stop_) {
      exclusive_.push_back(std::move(task));
      lk.unlock();
      queue_cv_.notify_one();
      return done;
    }
  }
  // The batch thread is gone (stop() ran). stop_mutex_ serializes against
  // a stop() still joining it and against concurrent inline callers — the
  // backend stays single-touched even after shutdown. The affinity guard
  // moves with the serialization: bind for the inline call, release after
  // so the next (possibly different) inline caller passes too.
  const std::scoped_lock stop_lock(stop_mutex_);
  batch_affinity_.bind();
  run_exclusive_task(task);
  batch_affinity_.release();
  backend_->ledger().release_writer();
  return done;
}

void AsyncQServer::run_exclusive(
    const std::function<void(OsElmQBackend&)>& fn) {
  run_exclusive_async(fn).get();
}

void AsyncQServer::coalesced_predict(QNetwork which) {
  OSELM_TRACE_SPAN("batch", "coalesced_predict");
  const std::size_t rows = batch_sessions_.size();
  // predict_actions_multi validates exact shapes, so buffers are cached
  // per row count — steady-state serving allocates nothing.
  linalg::MatD& states = states_by_rows_[rows];
  linalg::MatD& q_multi = q_by_rows_[rows];
  if (states.rows() != rows) {
    states = linalg::MatD(rows, model_.state_dim());
    q_multi = linalg::MatD(rows, model_.action_count());
  }
  for (std::size_t i = 0; i < rows; ++i) {
    const Session& s = *batch_sessions_[i];
    // theta_1 ranks the current state, theta_2 the TD target's next one.
    states.set_row(i, which == QNetwork::kMain ? *s.query
                                               : s.transition->next_state);
  }
  checked_backend().predict_actions_multi(states, action_codes_, which,
                                          q_multi);
  require_finite(q_multi.storage(), "coalesced predict");
  for (std::size_t i = 0; i < rows; ++i) {
    const std::span<const double> q(q_multi.row_ptr(i), model_.action_count());
    const std::size_t best = argmax_action(q);
    if (which == QNetwork::kMain) {
      batch_sessions_[i]->action = best;
    } else {
      batch_sessions_[i]->max_next_q = q[best];
    }
  }
  counters_.add<&AsyncServerStats::batches>();
  counters_.add<&AsyncServerStats::batch_rows>(rows);
  {
    const std::scoped_lock lk(stats_mutex_);
    batch_rows_hist_.record(static_cast<double>(rows));
  }
}

void AsyncQServer::apply_init_train(Session& s) {
  OSELM_TRACE_SPAN("train", "init_train");
  if (backend_->initialized()) {
    // A co-tenant initialized the shared network first (authoritative
    // re-check — the worker-side mirror may lag); this chunk is stale.
    s.rules.drop_buffer();
    return;
  }
  const auto max_target_q = [this](const linalg::VecD& next_state) {
    const util::TimeLedger::PredictScope scope(backend_->ledger(),
                                               util::OpCategory::kInitTrain);
    checked_backend().predict_actions(next_state, action_codes_,
                                      QNetwork::kTarget, q_ws_);
    require_finite(q_ws_, "TD-target predict");
    return q_ws_[argmax_action(q_ws_)];
  };
  const OsElmQRules::InitChunk chunk =
      s.rules.take_init_chunk(model_, max_target_q);
  checked_backend().init_train(chunk.x, chunk.t);
  counters_.add<&AsyncServerStats::init_trains>();
  backend_initialized_.store(true, std::memory_order_release);
}

void AsyncQServer::process_requests(std::vector<Session*>& requests) {
  OSELM_TRACE_SPAN("batch", "process_requests");
  // The slice was taken FIFO; apply it in session-id order so a drain's
  // backend call sequence does not depend on which worker suspended
  // first (each session has at most one request in flight).
  std::sort(requests.begin(), requests.end(),
            [](const Session* a, const Session* b) {
              return a->result.id < b->result.id;
            });
  // Fold the drained sessions' last env steps into the linger estimate,
  // skipping sessions whose first env step has not ended yet.
  for (const Session* s : requests) {
    const double sample = s->last_env_step_us;
    if (sample < 0.0) continue;
    if (env_step_us_ < 0.0) {
      env_step_us_ = sample;
    } else {
      env_step_us_ += kEnvStepSmoothing * (sample - env_step_us_);
    }
  }
  // Failure containment: a backend fault in one coalesced batch (or one
  // request) retires the sessions it carried and counts as ONE event, so
  // a router's health tracking counts faults, not blast radius; the batch
  // thread serves everyone else. A pass with zero events resets the
  // consecutive counter — the backend recovered.
  bool had_backend_error = false;
  const auto fail = [&](const std::vector<Session*>& failed) {
    had_backend_error = true;
    counters_.add<&AsyncServerStats::backend_failures>();
    OSELM_TRACE_INSTANT("batch", "backend_failure");
    const std::string error =
        failure_text(std::current_exception(), "backend failure");
    for (Session* s : failed) {
      std::replace(requests.begin(), requests.end(), s,
                   static_cast<Session*>(nullptr));
      retire(s, SessionEndCause::kBackendError, error);
    }
  };
  // One coalesced predict per network: greedy actions on theta_1, then
  // max_a Q_theta2(s', a) for the non-terminal updates.
  const auto predict = [&](QNetwork which, RequestKind kind) {
    batch_sessions_.clear();
    for (Session* s : requests) {
      if (s != nullptr && s->request == kind &&
          (kind != RequestKind::kSeqTrain || !s->transition->done)) {
        batch_sessions_.push_back(s);
      }
    }
    if (batch_sessions_.empty()) return;
    try {
      coalesced_predict(which);
    } catch (...) {
      fail(batch_sessions_);
    }
  };
  predict(QNetwork::kMain, RequestKind::kGreedyEval);
  {
    // Charged to kSeqTrain, like the agents' TD-target evaluations.
    const util::TimeLedger::PredictScope scope(backend_->ledger(),
                                               util::OpCategory::kSeqTrain);
    predict(QNetwork::kTarget, RequestKind::kSeqTrain);
  }

  // Apply trains/init/sync/reset in session-id order, then resume the
  // drain's sessions on the worker pool — only after every request is
  // applied, so no resumed session observes a later kInitTrain/kReset of
  // the same drain mid-flight.
  OSELM_TRACE_SPAN("train", "seq_train_drain");
  for (Session* s : requests) {
    if (s == nullptr) continue;
    try {
      switch (s->request) {
        case RequestKind::kGreedyEval:
          break;  // action already delivered
        case RequestKind::kSeqTrain: {
          // A co-tenant §4.3 reset may have de-initialized the shared
          // network after this session drew its update coin; skip then.
          if (!backend_->initialized()) break;
          const nn::Transition& t = *s->transition;
          checked_backend().seq_train(
              s->sa, s->rules.td_target(t.reward, t.done, s->max_next_q));
          counters_.add<&AsyncServerStats::train_updates>();
          break;
        }
        case RequestKind::kInitTrain:
          apply_init_train(*s);
          break;
        case RequestKind::kSyncTarget:
          checked_backend().sync_target();
          break;
        case RequestKind::kReset:
          checked_backend().initialize();
          backend_initialized_.store(false, std::memory_order_release);
          break;
      }
    } catch (...) {
      fail({s});
    }
  }
  resume(requests);
  if (had_backend_error) {
    consecutive_backend_failures_.fetch_add(1, std::memory_order_relaxed);
  } else {
    consecutive_backend_failures_.store(0, std::memory_order_relaxed);
  }
}

AsyncQServerConfig lockstep_config(std::size_t sessions) {
  AsyncQServerConfig config;
  config.worker_threads = sessions;
  config.max_live_sessions = sessions;
  config.max_batch = sessions;
  config.max_wait_us = std::numeric_limits<std::uint64_t>::max();
  return config;
}

std::vector<std::size_t> add_cohort(
    AsyncQServer& server, const std::vector<AsyncSessionSpec>& specs) {
  std::vector<std::size_t> ids;
  ids.reserve(specs.size());
  server.run_exclusive([&](OsElmQBackend&) {
    for (const AsyncSessionSpec& spec : specs) {
      ids.push_back(server.add_session(spec));
    }
  });
  return ids;
}

}  // namespace oselm::rl
