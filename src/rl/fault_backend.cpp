#include "rl/fault_backend.hpp"

#include <array>
#include <limits>
#include <thread>
#include <utility>

#include "obs/trace.hpp"

namespace oselm::rl {

namespace {

/// BackendFaultKind declaration order; trace names in the same order.
constexpr std::string_view kKinds = "throw|stall|nan";
constexpr std::array<const char*, 3> kTraceNames = {
    "backend_throw", "backend_stall", "backend_nan"};

constexpr double kQuietNan = std::numeric_limits<double>::quiet_NaN();

}  // namespace

std::string_view to_string(BackendFaultKind kind) noexcept {
  return util::kind_name(kKinds, static_cast<std::size_t>(kind));
}

std::string_view backend_fault_kinds() noexcept { return kKinds; }

FaultBackend::FaultBackend(OsElmQBackendPtr inner, BackendFaultKind kind,
                           double rate, std::uint64_t seed,
                           std::chrono::microseconds stall)
    // Charge the inner backend's ledger: the decorator adds failure
    // modes, never a second time account.
    : OsElmQBackend(inner ? inner->ledger_ptr() : nullptr),
      inner_(std::move(inner)),
      kind_(kind),
      schedule_("FaultBackend", rate, seed),
      stall_(stall) {
  if (!inner_) {
    throw std::invalid_argument("FaultBackend: null inner backend");
  }
  if (stall_.count() < 0) {
    throw std::invalid_argument("FaultBackend: negative stall duration");
  }
}

bool FaultBackend::draw_fault(const char* call) {
  // The schedule is consumed on EVERY serving-path call — even kinds
  // whose effect on this call is a no-op (kNan on train/sync) — so the
  // decision sequence stays aligned with util::FaultSchedule::preview()
  // regardless of kind.
  if (!schedule_.draw()) return false;
  OSELM_TRACE_INSTANT("fault", kTraceNames[static_cast<std::size_t>(kind_)]);
  if (kind_ == BackendFaultKind::kThrow) {
    // The wrapped backend's id is unknown here: name the modifier prefix.
    throw BackendFaultInjected(
        "FaultBackend: injected failure on " + std::string(call) + " #" +
        std::to_string(schedule_.draws()) + " of '" +
        util::format_fault_id(to_string(kind_), rate(), fault_seed(), {}) +
        "'");
  }
  if (kind_ == BackendFaultKind::kStall) std::this_thread::sleep_for(stall_);
  return true;
}

void FaultBackend::initialize() {
  // State management never faults and consumes no draw (see header).
  inner_->initialize();
}

double FaultBackend::predict_main(const linalg::VecD& sa) {
  const bool fired = draw_fault("predict_main");
  const double q = inner_->predict_main(sa);
  return fired && kind_ == BackendFaultKind::kNan ? kQuietNan : q;
}

double FaultBackend::predict_target(const linalg::VecD& sa) {
  const bool fired = draw_fault("predict_target");
  const double q = inner_->predict_target(sa);
  return fired && kind_ == BackendFaultKind::kNan ? kQuietNan : q;
}

void FaultBackend::predict_actions(const linalg::VecD& state,
                                   const linalg::VecD& action_codes,
                                   QNetwork which, linalg::VecD& q_out) {
  const bool fired = draw_fault("predict_actions");
  inner_->predict_actions(state, action_codes, which, q_out);
  if (fired && kind_ == BackendFaultKind::kNan) {
    for (std::size_t i = 0; i < q_out.size(); ++i) q_out[i] = kQuietNan;
  }
}

void FaultBackend::predict_actions_multi(const linalg::MatD& states,
                                         const linalg::VecD& action_codes,
                                         QNetwork which,
                                         linalg::MatD& q_out) {
  const bool fired = draw_fault("predict_actions_multi");
  inner_->predict_actions_multi(states, action_codes, which, q_out);
  if (fired && kind_ == BackendFaultKind::kNan) {
    for (std::size_t r = 0; r < q_out.rows(); ++r) {
      for (std::size_t c = 0; c < q_out.cols(); ++c) {
        q_out(r, c) = kQuietNan;
      }
    }
  }
}

void FaultBackend::init_train(const linalg::MatD& x, const linalg::MatD& t) {
  draw_fault("init_train");
  inner_->init_train(x, t);  // kNan passes training through unchanged
}

void FaultBackend::seq_train(const linalg::VecD& sa, double target) {
  draw_fault("seq_train");
  inner_->seq_train(sa, target);
}

void FaultBackend::seq_train_chunk(const linalg::MatD& sa_rows,
                                   std::span<const double> targets) {
  draw_fault("seq_train_chunk");
  inner_->seq_train_chunk(sa_rows, targets);
}

void FaultBackend::sync_target() {
  draw_fault("sync_target");
  inner_->sync_target();
}

bool FaultBackend::initialized() const { return inner_->initialized(); }

std::size_t FaultBackend::input_dim() const { return inner_->input_dim(); }

std::size_t FaultBackend::hidden_units() const {
  return inner_->hidden_units();
}

bool FaultBackend::supports_state_sync() const {
  return inner_->supports_state_sync();
}

QNetState FaultBackend::export_state() const {
  // Never faulted: replacement seeding and periodic averaging must keep
  // working on a replica whose serving path is mid-failure.
  return inner_->export_state();
}

void FaultBackend::import_state(const QNetState& state) {
  inner_->import_state(state);
}

}  // namespace oselm::rl
