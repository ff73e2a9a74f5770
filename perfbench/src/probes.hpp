// Outside-in probes: every layer is measured by timing calls into its
// public functions from benchmark code, never by instrumenting the
// program itself.
//
//   * TimedEnv wraps an environment (through AsyncSessionSpec::env_factory
//     for the servers, directly for run_training). Its cycle-time record
//     — one clock read per step — is the source of the step-latency
//     end-to-end metrics and is on in every run; env busy time and env
//     spans are recorded only in the traced run.
//   * TimedBackend decorates an OsElmQBackend. It is registered in
//     rl::BackendRegistry under benchmark-only ids, so agents
//     (AgentConfig::backend_id), servers and router replicas
//     (RouterConfig::backend_id) pick it up by name in the traced run.
//   * TimedAgent decorates an rl::Agent for solo training (traced run).
//
// Spans go to obs::Tracer and are exported as a Chrome/Perfetto trace.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "env/environment.hpp"
#include "rl/agent.hpp"
#include "rl/backend_registry.hpp"

namespace perfbench {

/// Step samples are kept only while [open, close) contains the step's
/// end. Bounds are atomics so a workload may (re)arm them while
/// sessions already run.
class Window {
 public:
  /// Opens now and never closes (solo training measures whole trials).
  Window();
  void set(Clock::time_point open, Clock::time_point close) noexcept;
  /// Seconds from the opening to `t` when the window contains `t`,
  /// otherwise a negative value.
  [[nodiscard]] double offset_s(Clock::time_point t) const noexcept;

 private:
  std::atomic<std::int64_t> open_ns_;
  std::atomic<std::int64_t> close_ns_;
};

/// One finished block of steps, reduced to its count and exact
/// percentiles.
struct StepBlock {
  double seconds = 0.0;  ///< wall time the block covers
  std::uint64_t steps = 0;
  double cycle_p50_us = 0.0;
  double cycle_p99_us = 0.0;
  double wait_p50_us = 0.0;  ///< cycle minus env time (traced run only)
  double wait_p99_us = 0.0;
};

/// Pools the per-step samples of many environments into blocks and
/// reduces each block as soon as it is complete, so memory stays at a few
/// blocks of samples however fast the program steps (peak RSS is an
/// end-to-end metric and must not grow with throughput).
///
///   * time mode: blocks of `block_s` seconds from the window opening,
///     shared by every environment; a block is reduced once some
///     environment has stepped two blocks past it.
///   * count mode (one environment at a time): blocks of `block_steps`
///     consecutive steps; a block's wall time is the sum of its cycles.
struct TimeBlocks {
  double block_s;
};
struct CountBlocks {
  std::size_t block_steps;
};

class StepBlocks {
 public:
  explicit StepBlocks(TimeBlocks mode) : block_s_(mode.block_s) {}
  explicit StepBlocks(CountBlocks mode) : block_steps_(mode.block_steps) {}

  /// Block index of a step that ended `at_s` into the window. In count
  /// mode every call is the next step (single writer).
  [[nodiscard]] long block_of(double at_s);

  /// Hands over one environment's samples of block `block` (thread-safe).
  void flush(long block, std::vector<float>& cycles, std::vector<float>& waits,
             double env_busy_us);

  /// Reduces what is left and returns the blocks in order. Count mode
  /// drops a final block shorter than half a block unless it is the only
  /// one.
  std::vector<StepBlock> finish();

  [[nodiscard]] double env_busy_us() const { return env_busy_us_; }
  /// Samples that arrived for an already-reduced block (dropped).
  [[nodiscard]] std::uint64_t late_samples() const { return late_; }

  StepBlocks(const StepBlocks&) = delete;
  StepBlocks& operator=(const StepBlocks&) = delete;
  StepBlocks(StepBlocks&&) = delete;
  StepBlocks& operator=(StepBlocks&&) = delete;
  ~StepBlocks() = default;

 private:
  struct Pending {
    std::vector<float> cycles;
    std::vector<float> waits;
    double cycle_sum_us = 0.0;
  };
  void reduce_locked(long block, Pending& pending);

  const double block_s_ = 0.0;         ///< time mode (0 in count mode)
  const std::size_t block_steps_ = 0;  ///< count mode (0 in time mode)
  std::uint64_t counted_ = 0;      ///< count mode: steps placed so far
  std::mutex mutex_;
  std::map<long, Pending> pending_;
  std::map<long, StepBlock> done_;
  double env_busy_us_ = 0.0;
  std::uint64_t late_ = 0;
};

/// Returns a process-lifetime copy of `text` (obs::Tracer stores span
/// name pointers, never copies).
const char* intern(const std::string& text);

class TimedEnv final : public oselm::env::Environment {
 public:
  /// `blocks` and `window` must outlive this environment. A traced run
  /// passes `span_name`, an interned name carrying the session id; it
  /// turns on env busy timing and env spans (nullptr: cycle times only).
  TimedEnv(oselm::env::EnvironmentPtr inner, StepBlocks* blocks,
           const Window* window, const char* span_name);
  TimedEnv(const TimedEnv&) = delete;
  TimedEnv& operator=(const TimedEnv&) = delete;
  ~TimedEnv() override;

  oselm::env::Observation reset() override;
  oselm::env::StepResult step(std::size_t action) override;
  void seed(std::uint64_t seed_value) override { inner_->seed(seed_value); }
  [[nodiscard]] const oselm::env::BoxSpace& observation_space()
      const override {
    return inner_->observation_space();
  }
  [[nodiscard]] const oselm::env::DiscreteSpace& action_space()
      const override {
    return inner_->action_space();
  }
  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  [[nodiscard]] std::size_t max_episode_steps() const override {
    return inner_->max_episode_steps();
  }

 private:
  void flush();

  oselm::env::EnvironmentPtr inner_;
  StepBlocks* blocks_;
  const Window* window_;
  const char* span_name_;
  Clock::time_point last_end_{};
  // This environment's samples of its current block.
  long block_ = -1;
  std::vector<float> cycles_;
  std::vector<float> waits_;
  double env_busy_us_ = 0.0;
};

/// Busy time and work counts of one backend, written only by the
/// backend's single legal caller and read after it is quiescent.
struct BackendCounters {
  std::uint64_t predict_calls = 0;
  std::uint64_t predict_rows = 0;
  double predict_us = 0.0;
  std::uint64_t seq_train_calls = 0;
  double seq_train_us = 0.0;
  std::uint64_t init_train_calls = 0;
  double init_train_us = 0.0;

  BackendCounters& operator+=(const BackendCounters& other);
  [[nodiscard]] double busy_us() const {
    return predict_us + seq_train_us + init_train_us;
  }
};

class TimedBackend final : public oselm::rl::OsElmQBackend {
 public:
  TimedBackend(oselm::rl::OsElmQBackendPtr inner,
               oselm::rl::BackendConfig config);

  void initialize() override { inner_->initialize(); }
  [[nodiscard]] double predict_main(const oselm::linalg::VecD& sa) override;
  [[nodiscard]] double predict_target(const oselm::linalg::VecD& sa) override;
  void predict_actions(const oselm::linalg::VecD& state,
                       const oselm::linalg::VecD& action_codes,
                       oselm::rl::QNetwork which,
                       oselm::linalg::VecD& q_out) override;
  void predict_actions_multi(const oselm::linalg::MatD& states,
                             const oselm::linalg::VecD& action_codes,
                             oselm::rl::QNetwork which,
                             oselm::linalg::MatD& q_out) override;
  void init_train(const oselm::linalg::MatD& x,
                  const oselm::linalg::MatD& t) override;
  void seq_train(const oselm::linalg::VecD& sa, double target) override;
  void sync_target() override { inner_->sync_target(); }
  [[nodiscard]] bool initialized() const override {
    return inner_->initialized();
  }
  [[nodiscard]] std::size_t input_dim() const override {
    return inner_->input_dim();
  }
  [[nodiscard]] std::size_t hidden_units() const override {
    return inner_->hidden_units();
  }
  [[nodiscard]] bool supports_state_sync() const override {
    return inner_->supports_state_sync();
  }
  [[nodiscard]] oselm::rl::QNetState export_state() const override {
    return inner_->export_state();
  }
  void import_state(const oselm::rl::QNetState& state) override {
    inner_->import_state(state);
  }

  [[nodiscard]] const BackendCounters& counters() const { return counters_; }
  /// The registry configuration this backend was built from.
  [[nodiscard]] const oselm::rl::BackendConfig& config() const {
    return config_;
  }

 private:
  oselm::rl::OsElmQBackendPtr inner_;
  oselm::rl::BackendConfig config_;
  BackendCounters counters_;
};

/// Registry id of the timing decorator around `inner_id` ("software" ->
/// "perfbench-timed-software"). Registers both decorators on first use.
std::string timed_backend_id(const std::string& inner_id);

/// Moves out every TimedBackend the registry built since the last call.
std::vector<std::shared_ptr<TimedBackend>> take_timed_backends();

/// Mean-per-call timing of an agent's act/observe (traced solo run).
class TimedAgent final : public oselm::rl::Agent {
 public:
  explicit TimedAgent(oselm::rl::AgentPtr inner) : inner_(std::move(inner)) {}

  std::size_t act(const oselm::linalg::VecD& state) override;
  void observe(const oselm::nn::Transition& transition) override;
  void episode_end(std::size_t episodes_since_reset) override {
    inner_->episode_end(episodes_since_reset);
  }
  void reset_weights() override { inner_->reset_weights(); }
  [[nodiscard]] bool supports_weight_reset() const override {
    return inner_->supports_weight_reset();
  }
  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  [[nodiscard]] const oselm::util::OpBreakdown& breakdown() const override {
    return inner_->breakdown();
  }

  std::uint64_t act_calls = 0;
  double act_us = 0.0;
  std::uint64_t observe_calls = 0;
  double observe_us = 0.0;

 private:
  oselm::rl::AgentPtr inner_;
};

/// Writes the drained obs::Tracer rings to `path` as Chrome trace JSON,
/// re-validates the file with obs::validate_chrome_trace, and returns the
/// event count (-1 on a write or validation failure, with `error` set).
long write_trace(const std::string& path, std::string* error);

}  // namespace perfbench
