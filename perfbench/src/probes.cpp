#include "probes.hpp"

#include <deque>
#include <fstream>
#include <limits>
#include <mutex>
#include <utility>

#include "obs/trace.hpp"

namespace perfbench {

namespace rl = oselm::rl;
using oselm::obs::Tracer;

namespace {

std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// Records a span of `us` microseconds that ended now on the trace clock.
void span_ending_now(const char* category, const char* name, double us) {
  const std::uint64_t end = Tracer::now_us();
  const auto length = static_cast<std::uint64_t>(us);
  Tracer::complete(category, name, end > length ? end - length : 0, end);
}

/// Times `fn`, adds the elapsed microseconds to `total` and records a
/// span when tracing is on.
template <typename Fn>
auto timed(const char* category, const char* name, double& total, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  struct Done {
    const char* category;
    const char* name;
    double& total;
    Clock::time_point start;
    ~Done() {
      const double us = micros(start, Clock::now());
      total += us;
      if (Tracer::enabled()) span_ending_now(category, name, us);
    }
  } done{category, name, total, start};
  return fn();
}

std::mutex& timed_mutex() {
  static std::mutex m;
  return m;
}

std::vector<std::shared_ptr<TimedBackend>>& timed_built() {
  static std::vector<std::shared_ptr<TimedBackend>> built;
  return built;
}

}  // namespace

Window::Window()
    : open_ns_(to_ns(Clock::now())),
      close_ns_(std::numeric_limits<std::int64_t>::max()) {}

void Window::set(Clock::time_point open, Clock::time_point close) noexcept {
  open_ns_.store(to_ns(open), std::memory_order_relaxed);
  close_ns_.store(to_ns(close), std::memory_order_relaxed);
}

double Window::offset_s(Clock::time_point t) const noexcept {
  const std::int64_t ns = to_ns(t);
  const std::int64_t open = open_ns_.load(std::memory_order_relaxed);
  if (ns < open || ns >= close_ns_.load(std::memory_order_relaxed)) {
    return -1.0;
  }
  return static_cast<double>(ns - open) * 1e-9;
}

const char* intern(const std::string& text) {
  static std::mutex m;
  static std::deque<std::string> names;  // deque: stable element addresses
  const std::scoped_lock lock(m);
  return names.emplace_back(text).c_str();
}

long StepBlocks::block_of(double at_s) {
  if (block_steps_ != 0) return static_cast<long>(counted_++ / block_steps_);
  return static_cast<long>(at_s / block_s_);
}

void StepBlocks::flush(long block, std::vector<float>& cycles,
                       std::vector<float>& waits, double env_busy_us) {
  const std::scoped_lock lock(mutex_);
  env_busy_us_ += env_busy_us;
  if (done_.count(block) != 0) {
    late_ += cycles.size();
  } else {
    Pending& pending = pending_[block];
    for (const float c : cycles) pending.cycle_sum_us += c;
    pending.cycles.insert(pending.cycles.end(), cycles.begin(), cycles.end());
    pending.waits.insert(pending.waits.end(), waits.begin(), waits.end());
  }
  cycles.clear();
  waits.clear();
  // An environment flushes a block when it leaves it. Time mode: every
  // environment steps through blocks in order and a step is far shorter
  // than a block, so blocks before `block - 1` are complete (a thread
  // stalled longer than that has its samples counted late). Count mode:
  // the single environment finished every earlier block.
  const long horizon = block_steps_ != 0 ? block : block - 1;
  while (!pending_.empty() && pending_.begin()->first < horizon) {
    reduce_locked(pending_.begin()->first, pending_.begin()->second);
    pending_.erase(pending_.begin());
  }
}

void StepBlocks::reduce_locked(long block, Pending& pending) {
  StepBlock& out = done_[block];
  out.steps = pending.cycles.size();
  out.seconds = block_steps_ != 0 ? pending.cycle_sum_us * 1e-6 : block_s_;
  const std::vector<double> cycles(pending.cycles.begin(),
                                   pending.cycles.end());
  out.cycle_p50_us = quantile(cycles, 0.50);
  out.cycle_p99_us = quantile(cycles, 0.99);
  const std::vector<double> waits(pending.waits.begin(), pending.waits.end());
  out.wait_p50_us = quantile(waits, 0.50);
  out.wait_p99_us = quantile(waits, 0.99);
}

std::vector<StepBlock> StepBlocks::finish() {
  const std::scoped_lock lock(mutex_);
  for (auto& [block, pending] : pending_) reduce_locked(block, pending);
  pending_.clear();
  std::vector<StepBlock> out;
  for (const auto& [block, reduced] : done_) {
    const bool short_tail = block_steps_ != 0 && done_.size() > 1 &&
                            2 * reduced.steps < block_steps_;
    if (!short_tail) out.push_back(reduced);
  }
  return out;
}

TimedEnv::TimedEnv(oselm::env::EnvironmentPtr inner, StepBlocks* blocks,
                   const Window* window, const char* span_name)
    : inner_(std::move(inner)),
      blocks_(blocks),
      window_(window),
      span_name_(span_name) {}

TimedEnv::~TimedEnv() { flush(); }

void TimedEnv::flush() {
  if (block_ >= 0 && (!cycles_.empty() || env_busy_us_ > 0.0)) {
    blocks_->flush(block_, cycles_, waits_, env_busy_us_);
  }
  env_busy_us_ = 0.0;
}

oselm::env::Observation TimedEnv::reset() {
  oselm::env::Observation obs = inner_->reset();
  last_end_ = Clock::now();
  return obs;
}

oselm::env::StepResult TimedEnv::step(std::size_t action) {
  Clock::time_point start{};
  if (span_name_ != nullptr) start = Clock::now();
  oselm::env::StepResult result = inner_->step(action);
  const Clock::time_point end = Clock::now();
  const double at = window_->offset_s(end);
  if (at >= 0.0) {
    const long block = blocks_->block_of(at);
    if (block != block_) {
      flush();
      block_ = block;
    }
    const double cycle = micros(last_end_, end);
    cycles_.push_back(static_cast<float>(cycle));
    if (span_name_ != nullptr) {
      const double busy = micros(start, end);
      waits_.push_back(static_cast<float>(cycle - busy));
      env_busy_us_ += busy;
      span_ending_now("env", span_name_, busy);
    }
  }
  last_end_ = end;
  return result;
}

BackendCounters& BackendCounters::operator+=(const BackendCounters& other) {
  predict_calls += other.predict_calls;
  predict_rows += other.predict_rows;
  predict_us += other.predict_us;
  seq_train_calls += other.seq_train_calls;
  seq_train_us += other.seq_train_us;
  init_train_calls += other.init_train_calls;
  init_train_us += other.init_train_us;
  return *this;
}

TimedBackend::TimedBackend(rl::OsElmQBackendPtr inner,
                           rl::BackendConfig config)
    : OsElmQBackend(inner->ledger_ptr()),
      inner_(std::move(inner)),
      config_(std::move(config)) {}

double TimedBackend::predict_main(const oselm::linalg::VecD& sa) {
  ++counters_.predict_calls;
  ++counters_.predict_rows;
  return timed("backend", "predict", counters_.predict_us,
               [&] { return inner_->predict_main(sa); });
}

double TimedBackend::predict_target(const oselm::linalg::VecD& sa) {
  ++counters_.predict_calls;
  ++counters_.predict_rows;
  return timed("backend", "predict", counters_.predict_us,
               [&] { return inner_->predict_target(sa); });
}

void TimedBackend::predict_actions(const oselm::linalg::VecD& state,
                                   const oselm::linalg::VecD& action_codes,
                                   rl::QNetwork which,
                                   oselm::linalg::VecD& q_out) {
  ++counters_.predict_calls;
  ++counters_.predict_rows;
  timed("backend", "predict", counters_.predict_us, [&] {
    inner_->predict_actions(state, action_codes, which, q_out);
  });
}

void TimedBackend::predict_actions_multi(
    const oselm::linalg::MatD& states, const oselm::linalg::VecD& action_codes,
    rl::QNetwork which, oselm::linalg::MatD& q_out) {
  ++counters_.predict_calls;
  counters_.predict_rows += states.rows();
  timed("backend", "predict_multi", counters_.predict_us, [&] {
    inner_->predict_actions_multi(states, action_codes, which, q_out);
  });
}

void TimedBackend::init_train(const oselm::linalg::MatD& x,
                              const oselm::linalg::MatD& t) {
  ++counters_.init_train_calls;
  timed("backend", "init_train", counters_.init_train_us,
        [&] { inner_->init_train(x, t); });
}

void TimedBackend::seq_train(const oselm::linalg::VecD& sa, double target) {
  ++counters_.seq_train_calls;
  timed("backend", "seq_train", counters_.seq_train_us,
        [&] { inner_->seq_train(sa, target); });
}

std::string timed_backend_id(const std::string& inner_id) {
  static std::once_flag once;
  std::call_once(once, [] {
    for (const std::string inner : {"software", "fpga-q20"}) {
      rl::BackendRegistry::global().register_backend(
          "perfbench-timed-" + inner, rl::backend_capabilities(inner),
          [inner](const rl::BackendConfig& config) -> rl::OsElmQBackendPtr {
            auto timed_backend = std::make_shared<TimedBackend>(
                rl::make_backend(inner, config), config);
            const std::scoped_lock lock(timed_mutex());
            timed_built().push_back(timed_backend);
            return timed_backend;
          });
    }
  });
  return "perfbench-timed-" + inner_id;
}

std::vector<std::shared_ptr<TimedBackend>> take_timed_backends() {
  const std::scoped_lock lock(timed_mutex());
  return std::exchange(timed_built(), {});
}

std::size_t TimedAgent::act(const oselm::linalg::VecD& state) {
  ++act_calls;
  return timed("agent", "act", act_us, [&] { return inner_->act(state); });
}

void TimedAgent::observe(const oselm::nn::Transition& transition) {
  ++observe_calls;
  timed("agent", "observe", observe_us,
        [&] { inner_->observe(transition); });
}

long write_trace(const std::string& path, std::string* error) {
  const std::vector<oselm::obs::TraceEvent> events = Tracer::drain();
  const std::string json = Tracer::chrome_trace_json(events);
  if (!oselm::obs::validate_chrome_trace(json, error)) return -1;
  std::ofstream out(path, std::ios::binary);
  out << json;
  out.close();
  if (!out) {
    if (error != nullptr) *error = "cannot write " + path;
    return -1;
  }
  return static_cast<long>(events.size());
}

}  // namespace perfbench
