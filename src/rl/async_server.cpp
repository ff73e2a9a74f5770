#include "rl/async_server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <utility>

#include "env/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rl/policy.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace oselm::rl {

using Clock = std::chrono::steady_clock;

namespace {

/// Process-wide serving metrics (totals across every AsyncQServer in the
/// process — router replicas included). Handles are resolved once; every
/// update afterwards is a single relaxed atomic op.
struct AsyncMetrics {
  obs::Counter& steps;
  obs::Counter& batches;
  obs::Counter& batch_rows;
  obs::Counter& train_updates;
  obs::Counter& init_trains;
  obs::Counter& sessions_admitted;
  obs::Counter& sessions_retired;
  obs::Counter& admission_rejections;
  obs::Counter& backend_failures;
  obs::Histogram& batch_linger_us;

  AsyncMetrics()
      : steps(obs::MetricsRegistry::global().counter(
            "oselm_async_steps_total")),
        batches(obs::MetricsRegistry::global().counter(
            "oselm_async_batches_total")),
        batch_rows(obs::MetricsRegistry::global().counter(
            "oselm_async_batch_rows_total")),
        train_updates(obs::MetricsRegistry::global().counter(
            "oselm_async_train_updates_total")),
        init_trains(obs::MetricsRegistry::global().counter(
            "oselm_async_init_trains_total")),
        sessions_admitted(obs::MetricsRegistry::global().counter(
            "oselm_async_sessions_admitted_total")),
        sessions_retired(obs::MetricsRegistry::global().counter(
            "oselm_async_sessions_retired_total")),
        admission_rejections(obs::MetricsRegistry::global().counter(
            "oselm_async_admission_rejections_total")),
        backend_failures(obs::MetricsRegistry::global().counter(
            "oselm_async_backend_failures_total")),
        batch_linger_us(obs::MetricsRegistry::global().histogram(
            "oselm_async_batch_linger_us")) {}
};

AsyncMetrics& async_metrics() {
  static AsyncMetrics metrics;
  return metrics;
}

}  // namespace

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

struct AsyncQServer::Session {
  AsyncSessionSpec spec;
  env::EnvironmentPtr env;
  GreedyWithProbabilityPolicy policy;
  util::Rng rng;
  util::MovingAverage window;
  AsyncSessionResult result;
  std::vector<nn::Transition> buffer;  ///< buffer D (train mode)
  double env_seconds = 0.0;

  // Episode-transient state.
  linalg::VecD state;
  std::size_t episode = 0;
  std::size_t steps = 0;
  double episode_return = 0.0;
  std::size_t episodes_since_reset = 0;

  // Step-transient state (stable while the session is suspended; the
  // batch thread reads/writes it through the queue's synchronization).
  std::size_t action = 0;
  nn::Transition transition;
  linalg::VecD sa;  ///< encoded (state, action) row for seq_train
  double pending_value = 0.0;  ///< batch thread -> worker (best next Q)
  Clock::time_point step_start{};
  Clock::time_point admitted_at{};
  Phase phase = Phase::kBeginEpisode;

  Session(AsyncSessionSpec s, env::EnvironmentPtr e, std::size_t actions,
          std::size_t input_dim)
      : spec(std::move(s)),
        env(std::move(e)),
        policy(spec.session.agent.epsilon_greedy, actions),
        rng(spec.session.agent_seed),
        window(spec.session.trainer.solved_window),
        sa(input_dim, 0.0) {}
};

// ---------------------------------------------------------------------------
// Construction / lifecycle
// ---------------------------------------------------------------------------

AsyncQServer::AsyncQServer(OsElmQBackendPtr backend,
                           SimplifiedOutputModel model,
                           AsyncQServerConfig config)
    : backend_(std::move(backend)),
      model_(model),
      config_(config),
      action_codes_(model.action_count(), 0.0),
      q_ws_(model.action_count(), 0.0),
      scratch_sa_(model.input_dim(), 0.0) {
  if (!backend_) throw std::invalid_argument("AsyncQServer: null backend");
  if (backend_->input_dim() != model_.input_dim()) {
    throw std::invalid_argument(
        "AsyncQServer: backend input width != encoder width");
  }
  if (config_.max_live_sessions == 0) {
    throw std::invalid_argument("AsyncQServer: max_live_sessions == 0");
  }
  if (config_.max_batch == 0) config_.max_batch = 1;
  if (config_.ready_queue_capacity == 0) {
    config_.ready_queue_capacity = config_.max_live_sessions;
  }
  if (config_.worker_threads == 0) {
    config_.worker_threads =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
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
  pool_ = std::make_unique<util::ThreadPool>(config_.worker_threads);
  batch_thread_ = std::thread([this] { batch_loop(); });
}

AsyncQServer::~AsyncQServer() { stop(); }

void AsyncQServer::stop() {
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
  space_cv_.notify_all();
  if (batch_thread_.joinable()) batch_thread_.join();
  // The batch thread is gone; the ledger's next writer is whichever
  // thread touches the quiescent backend next (inline run_exclusive, an
  // agent resuming training, a bench reading then reusing it).
  backend_->ledger().release_writer();
  batch_affinity_.release();
  // Surface the quiescent ledger's charge categories as process-wide
  // gauges (cumulative seconds across every server stopped so far).
  const util::OpBreakdown& breakdown = backend_->ledger().breakdown();
  for (std::size_t c = 0; c < util::kOpCategoryCount; ++c) {
    const auto category = static_cast<util::OpCategory>(c);
    const double seconds = breakdown.get(category);
    if (seconds == 0.0) continue;
    obs::MetricsRegistry::global()
        .gauge("oselm_ledger_" +
               std::string(util::op_category_name(category)) + "_seconds")
        .add(seconds);
  }
}

namespace {

/// Human-readable identity of a not-yet-admitted session for admission
/// errors: the same env#seed#seed derivation the router uses for its
/// default affinity keys, so logs from both tiers name sessions alike.
std::string session_descriptor(const AsyncSessionSpec& spec) {
  return spec.session.env_id + "#" + std::to_string(spec.session.env_seed) +
         "#" + std::to_string(spec.session.agent_seed);
}

}  // namespace

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
      stopping_rejections_.fetch_add(1, std::memory_order_relaxed);
      throw AdmissionError(AdmissionRejectReason::kStopping,
                           "AsyncQServer::add_session",
                           session_descriptor(spec), "server is stopping");
    }
    if (live_.size() >= config_.max_live_sessions) {
      admission_rejections_.fetch_add(1, std::memory_order_relaxed);
      async_metrics().admission_rejections.add();
      OSELM_TRACE_INSTANT("session", "admission_rejected");
      throw AdmissionError(
          AdmissionRejectReason::kCapacity, "AsyncQServer::add_session",
          session_descriptor(spec),
          "live-session cap (" + std::to_string(config_.max_live_sessions) +
              ") reached; retry after a session retires");
    }
    id = next_id_++;
    auto session = std::make_unique<Session>(
        spec, std::move(environment), model_.action_count(),
        model_.input_dim());
    session->result.id = id;
    session->result.mode = spec.mode;
    session->admitted_at = Clock::now();
    session->buffer.reserve(backend_->hidden_units());
    raw = session.get();
    live_.emplace(id, std::move(session));
    live_count_.store(live_.size(), std::memory_order_relaxed);
  }
  sessions_admitted_.fetch_add(1, std::memory_order_relaxed);
  async_metrics().sessions_admitted.add();
  OSELM_TRACE_INSTANT("session", "admit");
  pool_->submit([this, raw] { advance(raw); });
  return id;
}

AsyncSessionResult AsyncQServer::wait(std::size_t session_id) {
  std::unique_lock lk(sessions_mutex_);
  if (session_id >= next_id_) {
    throw std::invalid_argument("AsyncQServer::wait: unknown session id " +
                                std::to_string(session_id));
  }
  if (claimed_.contains(session_id)) {
    throw std::logic_error("AsyncQServer::wait: result of session " +
                           std::to_string(session_id) +
                           " was already claimed");
  }
  retire_cv_.wait(lk, [&] { return results_.contains(session_id); });
  // Deliver-once: the result moves out so a server that admits and
  // retires sessions indefinitely does not accumulate them forever.
  const auto it = results_.find(session_id);
  AsyncSessionResult out = std::move(it->second);
  results_.erase(it);
  claimed_.insert(session_id);
  return out;
}

std::vector<AsyncSessionResult> AsyncQServer::drain() {
  std::unique_lock lk(sessions_mutex_);
  retire_cv_.wait(lk, [this] { return live_.empty(); });
  std::vector<AsyncSessionResult> out;
  out.reserve(results_.size());
  for (auto& [id, result] : results_) {
    claimed_.insert(id);
    out.push_back(std::move(result));
  }
  results_.clear();
  return out;
}

std::size_t AsyncQServer::live_sessions() const {
  const std::scoped_lock lk(sessions_mutex_);
  return live_.size();
}

AsyncServerStats AsyncQServer::stats() const {
  AsyncServerStats out;
  out.steps = steps_.load(std::memory_order_relaxed);
  out.episodes = episodes_.load(std::memory_order_relaxed);
  out.batches = batches_.load(std::memory_order_relaxed);
  out.batch_rows = batch_rows_.load(std::memory_order_relaxed);
  out.train_updates = train_updates_.load(std::memory_order_relaxed);
  out.init_trains = init_trains_.load(std::memory_order_relaxed);
  out.sessions_admitted = sessions_admitted_.load(std::memory_order_relaxed);
  out.sessions_retired = sessions_retired_.load(std::memory_order_relaxed);
  out.admission_rejections =
      admission_rejections_.load(std::memory_order_relaxed);
  out.stopping_rejections =
      stopping_rejections_.load(std::memory_order_relaxed);
  out.env_failures = env_failures_.load(std::memory_order_relaxed);
  out.backend_failures = backend_failures_.load(std::memory_order_relaxed);
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
  steps += other.steps;
  episodes += other.episodes;
  batches += other.batches;
  batch_rows += other.batch_rows;
  train_updates += other.train_updates;
  init_trains += other.init_trains;
  sessions_admitted += other.sessions_admitted;
  sessions_retired += other.sessions_retired;
  admission_rejections += other.admission_rejections;
  stopping_rejections += other.stopping_rejections;
  env_failures += other.env_failures;
  backend_failures += other.backend_failures;
  captured_at_us = std::max(captured_at_us, other.captured_at_us);
  uptime_us = std::max(uptime_us, other.uptime_us);
  step_latency_us.merge(other.step_latency_us);
  batch_rows_hist.merge(other.batch_rows_hist);
}

std::string AsyncServerStats::to_json() const {
  char head[768];
  std::snprintf(
      head, sizeof(head),
      "{\n"
      "  \"steps\": %llu, \"episodes\": %llu,\n"
      "  \"batches\": %llu, \"batch_rows\": %llu, "
      "\"mean_batch_rows\": %.3f,\n"
      "  \"train_updates\": %llu, \"init_trains\": %llu,\n"
      "  \"sessions_admitted\": %llu, \"sessions_retired\": %llu, "
      "\"admission_rejections\": %llu, \"stopping_rejections\": %llu,\n"
      "  \"env_failures\": %llu, \"backend_failures\": %llu,\n"
      "  \"captured_at_us\": %llu, \"uptime_us\": %llu,\n",
      static_cast<unsigned long long>(steps),
      static_cast<unsigned long long>(episodes),
      static_cast<unsigned long long>(batches),
      static_cast<unsigned long long>(batch_rows), mean_batch_rows(),
      static_cast<unsigned long long>(train_updates),
      static_cast<unsigned long long>(init_trains),
      static_cast<unsigned long long>(sessions_admitted),
      static_cast<unsigned long long>(sessions_retired),
      static_cast<unsigned long long>(admission_rejections),
      static_cast<unsigned long long>(stopping_rejections),
      static_cast<unsigned long long>(env_failures),
      static_cast<unsigned long long>(backend_failures),
      static_cast<unsigned long long>(captured_at_us),
      static_cast<unsigned long long>(uptime_us));
  return std::string(head) +
         "  \"step_latency_us\": " + step_latency_us.to_json() + ",\n" +
         "  \"batch_rows_hist\": " + batch_rows_hist.to_json() + "\n}";
}

// ---------------------------------------------------------------------------
// Worker side — the per-session state machine
// ---------------------------------------------------------------------------

void AsyncQServer::advance(Session* s) {
  if (obs::Tracer::enabled()) {
    // Label each worker lane once, lazily — names show up as Perfetto
    // track titles next to the batch thread's.
    thread_local bool lane_named = false;
    if (!lane_named) {
      obs::Tracer::set_thread_name("worker");
      lane_named = true;
    }
  }
  OSELM_TRACE_SPAN("worker", "session_slice");
  try {
    run_session(*s);
  } catch (const std::exception& e) {
    const char* what = e.what();
    retire(s, SessionEndCause::kEnvError,
           (what != nullptr && what[0] != '\0') ? what
                                                : "unknown session failure");
  } catch (...) {
    retire(s, SessionEndCause::kEnvError, "unknown session failure");
  }
}

void AsyncQServer::begin_episode_env(Session& s) {
  ++s.episode;
  s.steps = 0;
  s.episode_return = 0.0;
  util::WallTimer env_timer;
  s.state = s.env->reset();
  s.env_seconds += env_timer.seconds();
}

void AsyncQServer::run_session(Session& s) {
  const OsElmQAgentConfig& agent = s.spec.session.agent;
  const TrainerConfig& trainer = s.spec.session.trainer;
  const bool training = s.spec.mode == AsyncSessionMode::kTrain;
  for (;;) {
    switch (s.phase) {
      case Phase::kBeginEpisode: {
        if (stopping_.load(std::memory_order_acquire)) {
          retire(&s, SessionEndCause::kStopped, {});
          return;
        }
        if (trainer.max_episodes == 0) {
          // Empty budget completes immediately, like rl::run_training.
          retire(&s, SessionEndCause::kCompleted, {});
          return;
        }
        // §4.3 reset rule, identical to rl::run_training; the
        // re-randomization itself must run on the batch thread.
        if (training && !s.result.train.solved &&
            trainer.reset_interval != 0 &&
            s.episodes_since_reset >= trainer.reset_interval) {
          suspend(s, RequestKind::kReset, Phase::kAfterReset);
          return;
        }
        begin_episode_env(s);
        s.phase = Phase::kChooseAction;
        break;
      }
      case Phase::kAfterReset: {
        s.buffer.clear();
        s.buffer.reserve(backend_->hidden_units());
        s.window.reset();
        s.episodes_since_reset = 0;
        ++s.result.train.resets;
        begin_episode_env(s);
        s.phase = Phase::kChooseAction;
        break;
      }
      case Phase::kChooseAction: {
        if (stopping_.load(std::memory_order_acquire)) {
          retire(&s, SessionEndCause::kStopped, {});
          return;
        }
        s.step_start = Clock::now();
        if (s.policy.should_act_greedily(s.rng)) {
          suspend(s, RequestKind::kGreedyEval, Phase::kStepEnv);
          return;
        }
        s.action = s.policy.random_action(s.rng);
        s.phase = Phase::kStepEnv;
        break;
      }
      case Phase::kStepEnv: {
        env::StepResult step;
        {
          util::WallTimer env_timer;
          step = s.env->step(s.action);
          s.env_seconds += env_timer.seconds();
        }
        ++s.steps;
        s.episode_return += step.reward;
        s.transition = nn::Transition{s.state, s.action, step.reward,
                                      step.observation, step.done()};
        s.state = step.observation;
        if (!training) {
          s.phase = Phase::kFinishStep;
          break;
        }
        // Observe (Algorithm 1 Store + Update), per-session control flow
        // identical to OsElmQAgent::observe.
        model_.encode_into(s.transition.state, s.action, s.sa);
        if (!backend_initialized_.load(std::memory_order_acquire)) {
          s.buffer.push_back(s.transition);
          if (s.buffer.size() >= backend_->hidden_units()) {
            suspend(s, RequestKind::kInitTrain, Phase::kFinishStep);
            return;
          }
          s.phase = Phase::kFinishStep;
          break;
        }
        if (!s.buffer.empty()) {
          // Lost the init-train race to a co-tenant: the part-filled
          // chunk is stale (recorded under pre-init weights) — drop it.
          s.buffer.clear();
          s.buffer.shrink_to_fit();
        }
        if (agent.random_update &&
            !s.rng.bernoulli(agent.update_probability)) {
          s.phase = Phase::kFinishStep;
          break;
        }
        suspend(s,
                s.transition.done ? RequestKind::kTrainOnly
                                  : RequestKind::kTdEvalTrain,
                Phase::kFinishStep);
        return;
      }
      case Phase::kFinishStep: {
        s.result.step_latency_us.record(
            std::chrono::duration<double, std::micro>(Clock::now() -
                                                      s.step_start)
                .count());
        steps_.fetch_add(1, std::memory_order_relaxed);
        async_metrics().steps.add();
        const bool capped = trainer.episode_step_cap != 0 &&
                            s.steps >= trainer.episode_step_cap;
        if (!s.transition.done && !capped) {
          s.phase = Phase::kChooseAction;
          break;
        }
        ++s.episodes_since_reset;
        // UPDATE_STEP target sync (Algorithm 1 lines 23-24), keyed on the
        // episodes-since-reset count exactly like Agent::episode_end.
        if (training &&
            s.episodes_since_reset % agent.target_sync_interval == 0) {
          suspend(s, RequestKind::kSyncTarget, Phase::kEpisodeEnd);
          return;
        }
        s.phase = Phase::kEpisodeEnd;
        break;
      }
      case Phase::kEpisodeEnd: {
        episodes_.fetch_add(1, std::memory_order_relaxed);
        TrainResult& tr = s.result.train;
        tr.episode_steps.push_back(static_cast<double>(s.steps));
        tr.episode_returns.push_back(s.episode_return);
        tr.total_steps += s.steps;
        tr.episodes = s.episode;
        s.window.add(static_cast<double>(s.steps));
        if (!tr.solved && s.window.full() &&
            s.window.value() >= trainer.solved_threshold) {
          tr.solved = true;
          tr.first_solved_episode = s.episode;
          if (trainer.stop_on_solved) {
            retire(&s, SessionEndCause::kCompleted, {});
            return;
          }
        }
        if (s.episode >= trainer.max_episodes) {
          retire(&s, SessionEndCause::kCompleted, {});
          return;
        }
        s.phase = Phase::kBeginEpisode;
        break;
      }
    }
  }
}

void AsyncQServer::suspend(Session& s, RequestKind kind, Phase resume) {
  // Session state-machine contract: each request kind resumes at exactly
  // one phase (the worker-side switch relies on the pairing to route the
  // batch thread's answer — an action, a TD value, an init ack).
  switch (kind) {
    case RequestKind::kGreedyEval:
      OSELM_DCHECK(resume == Phase::kStepEnv);
      break;
    case RequestKind::kTdEvalTrain:
    case RequestKind::kTrainOnly:
    case RequestKind::kInitTrain:
      OSELM_DCHECK(resume == Phase::kFinishStep);
      break;
    case RequestKind::kSyncTarget:
      OSELM_DCHECK(resume == Phase::kEpisodeEnd);
      break;
    case RequestKind::kReset:
      OSELM_DCHECK(resume == Phase::kAfterReset);
      break;
  }
  s.phase = resume;
  OSELM_TRACE_INSTANT("session", "suspend");
  std::unique_lock lk(queue_mutex_);
  // Backpressure: block until the bounded ready queue has room. The batch
  // thread is the only consumer and never blocks on this queue, so space
  // always appears.
  space_cv_.wait(lk, [this] {
    return ready_.size() < config_.ready_queue_capacity;
  });
  if (ready_.empty() &&
      (obs::Tracer::enabled() || obs::timing_enabled())) {
    // Queue goes empty -> non-empty: the coalescing linger for the next
    // batch starts now. Clock read gated so default-off serving stays
    // clock-free on this seam.
    pending_since_us_ = obs::Tracer::now_us();
  }
  ready_.emplace_back(&s, kind);
  OSELM_DCHECK_LE(ready_.size(), config_.ready_queue_capacity);
  lk.unlock();
  queue_cv_.notify_one();
  // NOTE: the session may already be running on another worker by the
  // time push returns — no member of `s` may be touched past this point.
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
  result.train.breakdown = util::OpBreakdown{};
  result.train.breakdown.add(util::OpCategory::kEnvironment,
                             s->env_seconds);
  {
    const std::scoped_lock lk(stats_mutex_);
    retired_latency_.merge(result.step_latency_us);
  }
  if (cause == SessionEndCause::kEnvError) {
    env_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  sessions_retired_.fetch_add(1, std::memory_order_relaxed);
  async_metrics().sessions_retired.add();
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
  live_.erase(id);  // destroys *s — it owns no further control flow
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
  std::vector<Request> drained;
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
        // has one pending (solo sessions never pay the linger), or the
        // bounded queue is at capacity and workers are blocked on it.
        const auto batch_full = [this] {
          return ready_.size() >= config_.max_batch ||
                 ready_.size() >=
                     live_count_.load(std::memory_order_relaxed) ||
                 ready_.size() >= config_.ready_queue_capacity;
        };
        if (config_.max_wait_us > 0 && !batch_full() && exclusive.empty()) {
          // Continuous-batching linger: give co-tenants max_wait_us to
          // join this batch, then serve whatever is pending. A linger
          // whose deadline the clock cannot represent (UINT64_MAX, the
          // lockstep configuration) has no deadline at all.
          const auto ready = [&] { return batch_stop_ || batch_full(); };
          const auto now = Clock::now();
          const auto headroom = std::chrono::duration_cast<
              std::chrono::microseconds>(Clock::time_point::max() - now);
          if (config_.max_wait_us >=
              static_cast<std::uint64_t>(headroom.count())) {
            queue_cv_.wait(lk, ready);
          } else {
            queue_cv_.wait_until(
                lk,
                now + std::chrono::microseconds(
                          static_cast<std::int64_t>(config_.max_wait_us)),
                ready);
          }
        }
        // Bounded-queue invariant: workers' backpressure wait keeps the
        // ready queue within its configured capacity at every drain.
        OSELM_DCHECK_LE(ready_.size(), config_.ready_queue_capacity);
        const std::size_t take =
            std::min(ready_.size(), config_.max_batch);
        drained.assign(ready_.begin(),
                       ready_.begin() + static_cast<std::ptrdiff_t>(take));
        ready_.erase(ready_.begin(),
                     ready_.begin() + static_cast<std::ptrdiff_t>(take));
        if (pending_since_us_ != 0) {
          // Achieved batch-assembly linger: first enqueue -> this drain.
          const std::uint64_t now = obs::Tracer::now_us();
          async_metrics().batch_linger_us.record(
              static_cast<double>(now - pending_since_us_));
          // Requests left behind re-arm; linger restarts at this drain.
          pending_since_us_ = ready_.empty() ? 0 : now;
        }
      }
    }
    space_cv_.notify_all();
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

double AsyncQServer::clip_target(const Session& s, double target) const {
  const OsElmQAgentConfig& agent = s.spec.session.agent;
  if (!agent.clip_targets) return target;
  return std::clamp(target, agent.clip_min, agent.clip_max);
}

void AsyncQServer::coalesced_predict(QNetwork which, bool use_next_state) {
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
    states.set_row(i, use_next_state ? s.transition.next_state : s.state);
  }
  checked_backend().predict_actions_multi(states, action_codes_, which,
                                          q_multi);
  // A corrupting backend (rl::FaultBackend kNan, a real numerical blow-up)
  // must not leak silently into action selection or TD targets — surface
  // it as a backend failure so the batch retires with kBackendError and a
  // router can treat the replica as unhealthy.
  for (std::size_t i = 0; i < rows; ++i) {
    const double* q = q_multi.row_ptr(i);
    for (std::size_t a = 0; a < model_.action_count(); ++a) {
      if (!std::isfinite(q[a])) {
        throw std::runtime_error(
            "AsyncQServer: backend returned non-finite Q in coalesced "
            "predict (row " + std::to_string(i) + ", action " +
            std::to_string(a) + ")");
      }
    }
  }
  q_multi_ = &q_multi;
  batches_.fetch_add(1, std::memory_order_relaxed);
  batch_rows_.fetch_add(rows, std::memory_order_relaxed);
  async_metrics().batches.add();
  async_metrics().batch_rows.add(rows);
  {
    const std::scoped_lock lk(stats_mutex_);
    batch_rows_hist_.record(static_cast<double>(rows));
  }
}

double AsyncQServer::session_td_target(Session& s,
                                       const nn::Transition& transition,
                                       util::OpCategory charge_to) {
  double best_next = 0.0;
  if (!transition.done) {
    const util::TimeLedger::PredictScope scope(backend_->ledger(),
                                               charge_to);
    checked_backend().predict_actions(transition.next_state, action_codes_,
                              QNetwork::kTarget, q_ws_);
    for (std::size_t a = 0; a < q_ws_.size(); ++a) {
      if (!std::isfinite(q_ws_[a])) {
        throw std::runtime_error(
            "AsyncQServer: backend returned non-finite Q in TD-target "
            "predict (action " + std::to_string(a) + ")");
      }
    }
    best_next = q_ws_[0];
    for (std::size_t a = 1; a < q_ws_.size(); ++a) {
      if (q_ws_[a] > best_next) best_next = q_ws_[a];
    }
  }
  double target = transition.reward;
  if (!transition.done) {
    target += s.spec.session.agent.gamma * best_next;
  }
  return clip_target(s, target);
}

void AsyncQServer::apply_init_train(Session& s) {
  OSELM_TRACE_SPAN("train", "init_train");
  if (backend_->initialized()) {
    // A co-tenant initialized the shared network first (authoritative
    // re-check — the worker-side mirror may lag); this chunk is stale.
    s.buffer.clear();
    s.buffer.shrink_to_fit();
    return;
  }
  const std::size_t n = s.buffer.size();
  linalg::MatD x(n, model_.input_dim());
  linalg::MatD t(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    model_.encode_into(s.buffer[i].state, s.buffer[i].action, scratch_sa_);
    x.set_row(i, scratch_sa_);
    t(i, 0) =
        session_td_target(s, s.buffer[i], util::OpCategory::kInitTrain);
  }
  checked_backend().init_train(x, t);
  init_trains_.fetch_add(1, std::memory_order_relaxed);
  async_metrics().init_trains.add();
  backend_initialized_.store(true, std::memory_order_release);
  s.buffer.clear();
  s.buffer.shrink_to_fit();  // the edge device frees D after init training
}

void AsyncQServer::process_requests(std::vector<Request>& requests) {
  OSELM_TRACE_SPAN("batch", "process_requests");
  // The slice was taken FIFO; apply it in session-id order so a drain's
  // backend call sequence does not depend on which worker suspended
  // first (each session has at most one request in flight).
  std::sort(requests.begin(), requests.end(),
            [](const Request& a, const Request& b) {
              return a.session->result.id < b.session->result.id;
            });
  // Failure containment: a backend fault in one coalesced batch retires
  // the sessions it carried and leaves the batch thread serving everyone
  // else. (Environment faults never reach this thread — workers catch
  // them in advance().)
  const auto failure_text = [](const std::exception& e) {
    const char* what = e.what();
    return std::string((what != nullptr && what[0] != '\0')
                           ? what
                           : "backend failure");
  };
  // Backend-failure events per pass: one per thrown batch / per-request
  // exception (not per retired session), so a router's health tracking
  // counts faults, not blast radius. A pass with zero events resets the
  // consecutive counter — the backend recovered.
  bool had_backend_error = false;
  const auto fail_batch = [&](const std::exception& e) {
    had_backend_error = true;
    backend_failures_.fetch_add(1, std::memory_order_relaxed);
    async_metrics().backend_failures.add();
    OSELM_TRACE_INSTANT("batch", "backend_failure");
    for (Session* failed : batch_sessions_) {
      for (Request& r : requests) {
        if (r.session == failed) r.session = nullptr;
      }
      retire(failed, SessionEndCause::kBackendError, failure_text(e));
    }
  };

  // Greedy batch on theta_1: argmax with lowest-index tie-break, exactly
  // like the single-agent path.
  batch_sessions_.clear();
  for (const Request& r : requests) {
    if (r.session != nullptr && r.kind == RequestKind::kGreedyEval) {
      batch_sessions_.push_back(r.session);
    }
  }
  if (!batch_sessions_.empty()) {
    try {
      coalesced_predict(QNetwork::kMain, /*use_next_state=*/false);
      for (std::size_t i = 0; i < batch_sessions_.size(); ++i) {
        const double* q = q_multi_->row_ptr(i);
        std::size_t best = 0;
        for (std::size_t a = 1; a < model_.action_count(); ++a) {
          if (q[a] > q[best]) best = a;  // ties keep the lowest index
        }
        batch_sessions_[i]->action = best;
      }
    } catch (const std::exception& e) {
      fail_batch(e);
    }
  }

  // TD-target batch on theta_2, charged to kSeqTrain like the agents do.
  batch_sessions_.clear();
  for (const Request& r : requests) {
    if (r.session != nullptr && r.kind == RequestKind::kTdEvalTrain) {
      batch_sessions_.push_back(r.session);
    }
  }
  if (!batch_sessions_.empty()) {
    try {
      const util::TimeLedger::PredictScope scope(
          backend_->ledger(), util::OpCategory::kSeqTrain);
      coalesced_predict(QNetwork::kTarget, /*use_next_state=*/true);
      for (std::size_t i = 0; i < batch_sessions_.size(); ++i) {
        const double* q = q_multi_->row_ptr(i);
        double best_next = q[0];
        for (std::size_t a = 1; a < model_.action_count(); ++a) {
          best_next = std::max(best_next, q[a]);
        }
        batch_sessions_[i]->pending_value = best_next;
      }
    } catch (const std::exception& e) {
      fail_batch(e);
    }
  }

  // Apply trains/init/sync/reset in session-id order, then resume the
  // drain's sessions on the worker pool — only after every request is
  // applied, so no resumed session observes a later kInitTrain/kReset of
  // the same drain mid-flight.
  OSELM_TRACE_SPAN("train", "seq_train_drain");
  for (Request& r : requests) {
    Session* s = r.session;
    if (s == nullptr) continue;
    try {
      switch (r.kind) {
        case RequestKind::kGreedyEval:
          break;  // action already delivered
        case RequestKind::kTdEvalTrain: {
          const double target = clip_target(
              *s, s->transition.reward +
                      s->spec.session.agent.gamma * s->pending_value);
          // A co-tenant §4.3 reset may have de-initialized the shared
          // network after this session drew its update coin; skip then.
          if (backend_->initialized()) {
            checked_backend().seq_train(s->sa, target);
            train_updates_.fetch_add(1, std::memory_order_relaxed);
            async_metrics().train_updates.add();
          }
          break;
        }
        case RequestKind::kTrainOnly: {
          const double target = clip_target(*s, s->transition.reward);
          if (backend_->initialized()) {
            checked_backend().seq_train(s->sa, target);
            train_updates_.fetch_add(1, std::memory_order_relaxed);
            async_metrics().train_updates.add();
          }
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
    } catch (const std::exception& e) {
      had_backend_error = true;
      backend_failures_.fetch_add(1, std::memory_order_relaxed);
      async_metrics().backend_failures.add();
      OSELM_TRACE_INSTANT("batch", "backend_failure");
      r.session = nullptr;
      retire(s, SessionEndCause::kBackendError, failure_text(e));
    }
  }
  for (const Request& r : requests) {
    Session* s = r.session;
    if (s != nullptr) pool_->submit([this, s] { advance(s); });
  }
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
