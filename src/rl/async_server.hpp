// AsyncQServer — asynchronous continuous-batching serving engine: N
// episodic sessions multiplexed onto ONE shared OsElmQBackend, with no
// fleet-wide barrier, so one slow environment (a remote simulator, a
// laggy sensor) never stalls its co-tenants:
//
//   * each session is the run_episodes() coroutine of rl::run_training
//     (trainer.hpp) over the same OsElmQRules as rl::OsElmQAgent. Its
//     environment steps, rng draws and encoding run on a util::ThreadPool
//     worker, never waiting for co-tenants. The pool is the server's own
//     (`worker_threads` lanes) or one the caller shares across servers —
//     RouterQServer runs its whole fleet on one;
//   * whenever the loop needs the shared Q-network it parks on the ready
//     queue, which holds at most one request per live session, so it is
//     bounded by max_live_sessions and a worker never blocks on it;
//   * a single batching thread drains pending requests — lingering up
//     to `max_wait_us`, counted from when it finds one pending, to
//     coalesce up to `max_batch` of them — into predict_actions_multi
//     batches against ONE shared backend from rl::BackendRegistry,
//     applies the training updates in session-id order, and only then
//     resumes the drain's sessions. Every backend call (and so every
//     util::TimeLedger charge) happens on this one thread, so the backend
//     needs no locking;
//   * a drain computes every TD target from theta_2 before it applies any
//     train row, so each maximal run of train rows (a kInitTrain,
//     kSyncTarget or kReset request ends a run) goes to the backend as
//     one seq_train_chunk call. The software backend applies it as one
//     Eq. 5 update of chunk size k, which equals the k rank-1 updates in
//     exact arithmetic; fpga-q20 keeps the paper's k = 1 and applies the
//     rows one by one. A run of one row is exactly seq_train;
//   * a drain goes back to the pool as one claim list: its sessions'
//     loops in session-id order and an atomic next index. min(sessions,
//     pool size) lane tasks each resume the next unclaimed loop until
//     none is left, so co-drained sessions run back to back on a lane
//     rather than as one pool task each, and a session waits only while
//     every lane is busy. add_session() starts a session through a
//     one-loop list. A lane touches its list and nothing else of the
//     server: every loop not yet claimed belongs to a parked live
//     session, so stop() cannot return before the last one is claimed.
//
// The linger pays only for co-tenants that can arrive. Each session notes
// how long its last env.step took (the loop's own env timing), and the
// batch thread folds the drained sessions' values into one smoothed
// estimate. While that estimate is at least `max_wait_us`, a co-tenant
// stepping now cannot be back before the deadline, so a partial batch is
// served at once (counted as `lingers_skipped`). Zero-latency sessions
// keep lingering, and no estimate reaches lockstep's UINT64_MAX.
//
// Sessions join and leave dynamically: add_session() admits up to
// `max_live_sessions` concurrent sessions (beyond the cap it throws a
// clear admission error — callers retry after a retirement). A session
// retires when its loop ends — budget/solved criterion, stop(), or an
// environment exception (retired with its message) — or when a backend
// failure hits its request; the batch thread and co-tenants carry on.
//
// Lockstep serving is a configuration, not a separate engine:
// lockstep_config(N) lingers without a deadline until every live session
// has a request pending, and add_cohort() admits the N sessions before
// the first drain. Every drain then carries the whole live cohort, as a
// barrier tick would.
//
// Determinism contract (pinned in tests/rl/async_server_test.cpp):
//   * per-session PINNED for kEvaluate sessions: a row of a coalesced
//     batch is bit-identical to a standalone evaluation (the
//     predict_actions_multi contract), so a fixed-seed session produces
//     the same trajectory for ANY worker-thread count and ANY co-tenants;
//   * a kTrain session running ALONE reproduces rl::run_training over
//     rl::OsElmQAgent exactly: trajectory, backend call stream, weights;
//   * PINNED for a lockstep cohort of kTrain sessions: trajectories,
//     batch counts and ledger invocations are identical across reruns
//     and worker-thread counts;
//   * otherwise cross-session batch composition is NOT pinned. Co-tenant
//     kTrain sessions share weight updates in a scheduling-dependent
//     order, like any asynchronous trainer, and the fpga-q20 backend
//     charges each coalesced batch as one multi-batch, so modeled seconds
//     under co-tenant training are not pinned either. A rank-k chunk
//     reassociates the rank-1 arithmetic, so co-tenant weights drift from
//     a row-by-row replay at the ULP level; the learning suite bounds
//     that drift and checks that a lockstep cohort still learns.
//
// Telemetry: per-step latency and achieved batch size land in
// util::LatencyHistogram buckets; stats() snapshots them with the
// counters, and AsyncServerStats::to_json() emits the bench JSON. The
// counters are the only count of their events: the server's collector
// in obs::MetricsRegistry::global() reads the same atomics as
// `oselm_async_<field>_total{server="<name>"}` until it is destroyed,
// with the achieved batch linger (`oselm_async_batch_linger_us`) and,
// once stop() has run, the backend ledger's breakdown
// (`oselm_ledger_<category>_seconds`) under the same label.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "env/environment.hpp"
#include "obs/metrics.hpp"
#include "rl/sa_encoding.hpp"
#include "rl/serving_types.hpp"
#include "rl/trainer.hpp"
#include "util/contract.hpp"
#include "util/latency_histogram.hpp"
#include "util/op_accounting.hpp"
#include "util/thread_pool.hpp"

namespace oselm::rl {

/// What a session does with the shared network.
enum class AsyncSessionMode {
  /// Episodic rollouts (exploration included) against frozen weights —
  /// the deployment/serving shape. Never mutates the backend; fully
  /// deterministic per seed regardless of threads or co-tenants.
  kEvaluate,
  /// Algorithm 1 as rl::run_training runs it (buffer -> Eq. 7/8 init ->
  /// Eq. 6 updates, §4.3 resets, target syncs) on the shared network.
  /// With co-tenants the shared weights evolve in scheduling-dependent
  /// order (lockstep cohorts excepted).
  kTrain,
};

struct AsyncSessionSpec {
  ServingSessionSpec session;  ///< env/seeds/exploration/budget knobs
  AsyncSessionMode mode = AsyncSessionMode::kEvaluate;
  /// Optional environment override: when set it is called with
  /// session.env_seed instead of env::make_environment(session.env_id)
  /// — custom simulators, failure injection in tests.
  std::function<env::EnvironmentPtr(std::uint64_t)> env_factory;
};

/// A session's `env_id#env_seed#agent_seed` identity: it names a
/// not-yet-admitted session in admission errors on both tiers, and it is
/// RouterQServer's placement key when a session brings none.
[[nodiscard]] std::string session_key(const AsyncSessionSpec& spec);

struct AsyncSessionResult {
  std::size_t id = 0;
  AsyncSessionMode mode = AsyncSessionMode::kEvaluate;
  /// Episode trajectory in the shared TrainResult shape (evaluation
  /// sessions fill it too); breakdown carries this session's environment
  /// time only — backend time lives on the backend's ledger.
  TrainResult train;
  /// Why service ended. `completed`/`failed` are derived views of it:
  /// completed == (cause == kCompleted), failed == !error.empty().
  SessionEndCause cause = SessionEndCause::kCompleted;
  bool completed = false;  ///< ran to its budget / solved criterion
  bool failed = false;     ///< an env or backend error; see `error`/`cause`
  std::string error;
  /// Times this session was re-placed onto a surviving replica after its
  /// serving replica failed. Stamped by RouterQServer's rescue path; a
  /// standalone AsyncQServer always leaves it 0.
  std::size_t rescues = 0;
  /// AsyncQServerConfig::name of the server that ran this session — the
  /// replica identity when serving behind rl::RouterQServer (placement
  /// tests and spillover accounting read it).
  std::string served_by;
  /// Wall micros from step start (action choice) to step end, batching
  /// wait included — the user-visible serving latency.
  util::LatencyHistogram step_latency_us;
};

struct AsyncQServerConfig {
  /// Server identity, stamped into every AsyncSessionResult::served_by.
  /// RouterQServer overwrites it with the replica name ("router/r2").
  std::string name = "server";
  /// Environment/encode worker pool size (0 = hardware concurrency).
  /// Sessions sleeping in slow environments only occupy a worker while
  /// stepping, so oversubscribing (more sessions than workers) is normal.
  /// Unused when the server runs on a shared pool; under RouterQServer it
  /// is each replica's share of the one fleet pool.
  std::size_t worker_threads = 0;
  /// Admission cap: add_session() beyond this many live sessions throws.
  std::size_t max_live_sessions = 64;
  /// Coalescing policy: the batch thread drains at most `max_batch`
  /// requests per predict_actions_multi call...
  std::size_t max_batch = 32;
  /// ...and, once it finds a request pending, waits at most this long for
  /// more to arrive (0 = fire immediately with whatever is pending; a
  /// value whose deadline the clock cannot represent, e.g. UINT64_MAX,
  /// waits until the batch is full — the lockstep configuration). It
  /// does not wait while the sessions' smoothed env-step time is at least
  /// this long: a co-tenant mid-step would miss the deadline anyway.
  std::uint64_t max_wait_us = 100;
  /// Retirement callback mode (RouterQServer's replica seam). When set,
  /// every retiring session's result is handed to this callback INSTEAD
  /// of the internal results map: the callback is the claim, so wait()
  /// throws std::logic_error once the session retires and drain() returns
  /// nothing. Invoked with no server locks held, from a worker or the
  /// batch thread; the session stays counted as live until the callback
  /// returns, so stop() cannot complete mid-callback. The callback must
  /// not call back into this server (it may — and the router's rescue
  /// path does — call into OTHER servers).
  std::function<void(AsyncSessionResult&&)> on_retire;
};

struct AsyncServerStats {
  std::uint64_t steps = 0;            ///< environment steps completed
  std::uint64_t episodes = 0;         ///< episodes finished
  std::uint64_t batches = 0;          ///< predict_actions_multi calls
  std::uint64_t batch_rows = 0;       ///< states carried by those calls
  /// Partial batches served without lingering because co-tenants' env
  /// steps outlast max_wait_us.
  std::uint64_t lingers_skipped = 0;
  std::uint64_t train_updates = 0;    ///< seq_train applications
  std::uint64_t init_trains = 0;      ///< Eq. 7/8 chunk solves
  std::uint64_t sessions_admitted = 0;
  std::uint64_t sessions_retired = 0;
  std::uint64_t admission_rejections = 0;  ///< refused at the cap
  std::uint64_t stopping_rejections = 0;   ///< refused while stopping
  std::uint64_t env_failures = 0;      ///< sessions retired by env errors
  /// Backend exception EVENTS (one coalesced batch failure = one event,
  /// however many sessions it retired) — the replica health signal
  /// RouterQServer's maintenance thread polls.
  std::uint64_t backend_failures = 0;
  /// Wall clock at snapshot time (microseconds since the Unix epoch) —
  /// correlates exported snapshots with trace timelines and external
  /// logs. merge() keeps the newest.
  std::uint64_t captured_at_us = 0;
  /// Steady-clock microseconds this server had been running when the
  /// snapshot was taken. merge() keeps the largest (a fleet's aggregate
  /// uptime is its longest-lived replica's).
  std::uint64_t uptime_us = 0;
  /// Step latency merged across RETIRED sessions (live sessions' private
  /// histograms are not sampled mid-flight).
  util::LatencyHistogram step_latency_us;
  /// Rows per coalesced predict batch actually achieved.
  util::LatencyHistogram batch_rows_hist;

  [[nodiscard]] double mean_batch_rows() const noexcept {
    return batches == 0 ? 0.0
                        : static_cast<double>(batch_rows) /
                              static_cast<double>(batches);
  }
  /// Folds another server's snapshot into this one: counters sum,
  /// histograms bucket-merge. RouterQServer aggregates its replicas'
  /// stats this way.
  void merge(const AsyncServerStats& other);
  [[nodiscard]] std::string to_json() const;
};

/// Every counter field of AsyncServerStats: merge() sums these,
/// to_json() writes them, and each server's metrics collector exports
/// them as `oselm_async_<key>_total`.
inline constexpr CounterField<AsyncServerStats> kAsyncServerCounters[] = {
    {"steps", &AsyncServerStats::steps},
    {"episodes", &AsyncServerStats::episodes},
    {"batches", &AsyncServerStats::batches},
    {"batch_rows", &AsyncServerStats::batch_rows},
    {"lingers_skipped", &AsyncServerStats::lingers_skipped},
    {"train_updates", &AsyncServerStats::train_updates},
    {"init_trains", &AsyncServerStats::init_trains},
    {"sessions_admitted", &AsyncServerStats::sessions_admitted},
    {"sessions_retired", &AsyncServerStats::sessions_retired},
    {"admission_rejections", &AsyncServerStats::admission_rejections},
    {"stopping_rejections", &AsyncServerStats::stopping_rejections},
    {"env_failures", &AsyncServerStats::env_failures},
    {"backend_failures", &AsyncServerStats::backend_failures},
};

class AsyncQServer {
 public:
  /// `backend` is shared by every session and only ever touched by the
  /// internal batch thread; `model` fixes the (state, action) encoding.
  /// Sessions run on `pool` when one is given — it may be shared with
  /// other servers and must outlive this one — else on a pool of
  /// config.worker_threads lanes the server owns.
  AsyncQServer(OsElmQBackendPtr backend, SimplifiedOutputModel model,
               AsyncQServerConfig config = {},
               std::shared_ptr<util::ThreadPool> pool = nullptr);
  AsyncQServer(const AsyncQServer&) = delete;
  AsyncQServer& operator=(const AsyncQServer&) = delete;
  /// Stops (gracefully: in-flight requests complete, sessions retire at
  /// their next step boundary) and joins all threads.
  ~AsyncQServer();

  /// Admits a session and starts it immediately. Returns its id.
  /// Throws rl::AdmissionError (reason kCapacity) when the live-session
  /// cap is reached, rl::AdmissionError (reason kStopping) during/after
  /// stop(), and std::invalid_argument on spec/environment mismatches.
  std::size_t add_session(const AsyncSessionSpec& spec);

  /// Blocks until the given session retires and returns its result.
  /// Results are delivered exactly once (a long-lived server admitting
  /// sessions indefinitely does not accumulate them). A retired session
  /// whose result is gone was claimed — by an earlier wait(), a drain(),
  /// or, in on_retire mode, the callback — and wait() on it throws
  /// std::logic_error, also when it was already blocked when the claim
  /// happened. Throws std::invalid_argument for ids never admitted.
  AsyncSessionResult wait(std::size_t session_id);

  /// Blocks until every live session retires on its own criterion, then
  /// returns all unclaimed results in admission order (claiming them —
  /// see wait()). Sessions with unbounded budgets never retire on their
  /// own — use stop() for deadline-style runs.
  std::vector<AsyncSessionResult> drain();

  /// Graceful shutdown: live sessions retire at their next step boundary
  /// (completed = false), in-flight batch requests are processed, and
  /// the batch thread joins. Idempotent; add_session() afterwards throws.
  /// Once it returns no task of this server is left on the pool, so a
  /// shared pool may outlive the server. Never call it from one of the
  /// pool's own workers (Debug-checked): it waits for sessions that need
  /// a worker to retire.
  void stop();

  /// Runs `fn(backend)` on the batching thread — the backend's single
  /// legal toucher — and blocks until it completes. Requests already
  /// pending keep their drain order; `fn` runs between batches. After
  /// stop() the batch thread is gone and the backend quiescent, so `fn`
  /// runs inline on the caller (serialized against stop() itself).
  /// Exceptions from `fn` propagate to the caller; the backend's
  /// initialized() flag is re-mirrored afterwards either way, so a
  /// synchronization import that initializes the network immediately
  /// unblocks buffering sessions. RouterQServer's state averaging and
  /// the tests' weight priming run through here.
  void run_exclusive(const std::function<void(OsElmQBackend&)>& fn);
  /// Fire-and-collect variant: returns a future that carries fn's
  /// completion (or exception) without blocking the caller.
  std::future<void> run_exclusive_async(
      std::function<void(OsElmQBackend&)> fn);

  [[nodiscard]] AsyncServerStats stats() const;
  [[nodiscard]] std::size_t live_sessions() const;
  /// seq_train applications so far (lock-free; RouterQServer's periodic
  /// averaging polls it to pace sync rounds).
  [[nodiscard]] std::uint64_t train_update_count() const noexcept {
    return counters_.get<&AsyncServerStats::train_updates>();
  }
  /// Backend exception events so far (lock-free; the router's health
  /// thread polls it — any growth marks the replica kDegraded).
  [[nodiscard]] std::uint64_t backend_failure_events() const noexcept {
    return counters_.get<&AsyncServerStats::backend_failures>();
  }
  /// Consecutive batch-thread passes that ended in a backend exception
  /// (reset to zero by any clean pass). Crossing the router's
  /// kFailAfterConsecutive threshold (router.cpp) marks the replica kFailed.
  [[nodiscard]] std::uint64_t consecutive_backend_failures() const noexcept {
    return consecutive_backend_failures_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& name() const noexcept {
    return config_.name;
  }
  [[nodiscard]] const OsElmQBackend& backend() const noexcept {
    return *backend_;
  }

 private:
  /// What a parked session waits for from the batch thread.
  enum class RequestKind {
    kGreedyEval,  ///< argmax_a Q_theta1(s, a) -> the session's action
    kSeqTrain,    ///< [max_a Q_theta2(s', a) ->] TD target -> seq_train
    kInitTrain,   ///< Eq. 7/8 on the session's buffer D
    kSyncTarget,  ///< theta_2 <- theta_1
    kReset,       ///< §4.3 re-randomization of the shared weights
  };

  struct Session;

  /// A run_exclusive callback queued for the batch thread, paired with
  /// the promise its caller is waiting on.
  struct ExclusiveTask {
    std::function<void(OsElmQBackend&)> fn;
    std::shared_ptr<std::promise<void>> done;
  };
  /// Executes one exclusive task (either on the batch thread or inline
  /// after stop()), fulfilling its promise and re-mirroring
  /// backend_->initialized().
  void run_exclusive_task(ExclusiveTask& task);

  // Worker side (thread pool tasks).
  /// Hands the non-null sessions' loops to the pool as one claim list,
  /// in the given order: min(count, pool size) lane tasks resume them
  /// back to back (async_server.cpp, run_lane).
  void resume(std::span<Session* const> sessions);
  void enqueue(Session& s);  ///< parks a session on the ready queue
  void retire(Session* s, SessionEndCause cause, std::string error);

  // Batch-thread side (the only code that touches backend_ after start).
  /// The backend seam: every predicting/training/initializing backend
  /// call goes through here, which Debug-asserts the caller IS the batch
  /// thread (or, after stop(), the run_exclusive inline caller the
  /// affinity was handed to). Metadata getters (input_dim, hidden_units,
  /// initialized, ledger) are excluded from the contract — they are
  /// immutable or mirrored and legal from any thread.
  [[nodiscard]] OsElmQBackend& checked_backend() noexcept {
    batch_affinity_.assert_here(
        "AsyncQServer: backend call outside the batch thread / "
        "run_exclusive handoff");
    return *backend_;
  }
  void batch_loop();
  void process_requests(std::vector<Session*>& requests);
  /// One predict_actions_multi over the batch_sessions_ rows, answering
  /// each: the greedy action for its state on theta_1, max_a Q for its
  /// next state on theta_2.
  void coalesced_predict(QNetwork which);
  void apply_init_train(Session& s);
  /// One seq_train_chunk over the kSeqTrain sessions in batch_sessions_,
  /// in order.
  void apply_train_run();

  OsElmQBackendPtr backend_;
  SimplifiedOutputModel model_;
  AsyncQServerConfig config_;
  linalg::VecD action_codes_;
  /// Debug ownership guard for backend_: bound by the batch thread at
  /// startup, re-bound to the inline caller by run_exclusive after
  /// stop(). Inert in Release.
  util::ThreadAffinity batch_affinity_;

  // Lock order: stop_mutex_ > sessions_mutex_ > queue_mutex_ >
  // stats_mutex_ (outermost to innermost). A thread holding a later
  // mutex never acquires an earlier one; in practice only stop() nests
  // at all (stop_mutex_ around each of the others, one at a time).
  // The metrics collector (run by registry snapshots) reads counters_,
  // batch_linger_us_ and, under stats_mutex_, stopped_ledger_; it
  // attaches and detaches with no server lock held.

  // Ready queue (workers push, batch thread drains).
  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;  ///< batch thread waits for work
  std::deque<Session*> ready_;
  std::deque<ExclusiveTask> exclusive_;  ///< run_exclusive queue
  bool batch_stop_ = false;

  // Session registry and lifecycle.
  mutable std::mutex sessions_mutex_;
  std::condition_variable retire_cv_;
  std::map<std::size_t, std::unique_ptr<Session>> live_;
  /// Unclaimed results only: an id below next_id_ that is neither live nor
  /// here was claimed.
  std::map<std::size_t, AsyncSessionResult> results_;
  std::size_t next_id_ = 0;
  /// Lock-free mirror of live_.size() for the batch thread's linger
  /// short-circuit (once every live session has a request pending, no
  /// further request can arrive — fire immediately).
  std::atomic<std::size_t> live_count_{0};
  std::atomic<bool> stopping_{false};
  std::mutex stop_mutex_;  ///< serializes stop() callers (idempotent join)
  /// Construction instant on the obs trace clock (steady); stats()
  /// derives uptime_us from it.
  std::uint64_t started_at_us_ = 0;
  /// Trace-clock instant the ready queue last went empty -> non-empty;
  /// the batch thread reads it at drain time to measure the achieved
  /// coalescing linger. Guarded by queue_mutex_; only written when
  /// tracing/metrics timing is on, 0 = not armed.
  std::uint64_t pending_since_us_ = 0;
  /// Worker-visible mirror of backend_->initialized(); authoritative
  /// re-checks happen on the batch thread (init races, §4.3 resets).
  std::atomic<bool> backend_initialized_;

  // Telemetry (counters are atomics; histograms live under stats_mutex_).
  mutable std::mutex stats_mutex_;
  util::LatencyHistogram retired_latency_;
  util::LatencyHistogram batch_rows_hist_;
  CounterSet<kAsyncServerCounters> counters_;
  std::atomic<std::uint64_t> consecutive_backend_failures_{0};
  /// Achieved batch-assembly linger (first enqueue -> drain), recorded
  /// by the batch thread while tracing or metrics timing is on.
  obs::Histogram batch_linger_us_;
  /// The backend ledger's breakdown as stop() found it quiescent; all
  /// zero before. Guarded by stats_mutex_.
  util::OpBreakdown stopped_ledger_;

  // Batch-thread workspaces (only that thread touches them). Batch sizes
  // fluctuate under continuous batching, so the state/Q matrices are
  // cached per achieved row count (bounded by max_batch) — the hot path
  // allocates only the first time each batch size occurs.
  std::vector<linalg::MatD> states_by_rows_;
  std::vector<linalg::MatD> q_by_rows_;
  linalg::VecD q_ws_;
  std::vector<Session*> batch_sessions_;  ///< rows of a batch or train run
  linalg::MatD train_rows_;             ///< encoded rows of a train run
  std::vector<double> train_targets_;   ///< their TD targets
  /// Smoothed env-step time of drained sessions (µs; negative before the
  /// first sample): a partial batch lingers only while it is below
  /// max_wait_us.
  double env_step_us_ = -1.0;

  // Threads last: destroyed FIRST, so no worker or batch task can touch a
  // member (queues, condition variables, histograms) mid-destruction.
  // stop() joins batch_thread_ before any member teardown regardless. A
  // shared pool outlives the server: stop() returns only once every
  // session retired, and no worker touches the server after that (see
  // enqueue() and retire()).
  std::shared_ptr<util::ThreadPool> pool_;
  std::thread batch_thread_;
  /// Declared last, so destroyed first: the collector detaches before
  /// any member it reads goes away.
  obs::MetricsRegistry::CollectorHandle metrics_;
};

/// The lockstep configuration for a cohort of `sessions`: max_batch,
/// max_live_sessions and worker_threads all equal `sessions`, and
/// max_wait_us = UINT64_MAX, so the batch thread drains exactly when every
/// live session has a request pending.
[[nodiscard]] AsyncQServerConfig lockstep_config(std::size_t sessions);

/// Admits `specs` inside one run_exclusive call: the batch thread is busy
/// running the admissions, so no drain starts before the whole cohort is
/// live. Returns the session ids in spec order. Admission errors
/// propagate; sessions admitted before the failing one keep running.
std::vector<std::size_t> add_cohort(AsyncQServer& server,
                                    const std::vector<AsyncSessionSpec>& specs);

}  // namespace oselm::rl
