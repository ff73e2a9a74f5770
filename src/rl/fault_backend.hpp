// Seeded fault-injection decorator for OS-ELM backends — the backend-side
// twin of env::FaultEnv.
//
// The self-healing router (replica health, session rescue, replacement)
// needs *backend* failures it can reproduce bit-for-bit: a replica whose
// arithmetic substrate throws mid-batch, stalls the batch thread, or
// silently corrupts predictions to NaN. FaultBackend decorates any
// registered backend with exactly those modes, driven by a
// util::FaultSchedule: the schedule is a pure function of (rate, seed),
// util::FaultSchedule::preview() pins it without training a network, and
// the wrapped backend's rng is never touched, so the learned weights
// under a given config seed are bit-identical with and without the
// wrapper.
//
// One schedule decision is drawn per SERVING-PATH call —
// predict_main, predict_target, predict_actions, predict_actions_multi,
// init_train, seq_train, sync_target — in call order. What a firing fault
// does depends on the kind:
//
//   kThrow  throws rl::BackendFaultInjected BEFORE delegating — the
//           serving stack's backend-failure isolation path (fail_batch,
//           replica health degradation).
//   kStall  sleeps stall_duration() first, then delegates unchanged —
//           the latency-only fault; results are bit-identical to the
//           unwrapped backend.
//   kNan    delegates, then corrupts the PREDICT outputs to quiet NaN
//           (predict_main/predict_target return NaN; predict_actions and
//           predict_actions_multi fill q_out with NaN). Training and sync
//           calls consume their draw but pass through unchanged — the
//           silent-corruption mode AsyncQServer's NaN scan must catch.
//
// STATE-MANAGEMENT CALLS NEVER FAULT: initialize(), export_state() and
// import_state() pass through un-faulted and consume no draw. Replica
// replacement seeds a fresh server from an exported QNetState and the
// periodic-average sync round-trips state through every replica; both must
// keep working on a replica whose serving path is mid-failure, so the
// fault axis deliberately cannot reach them.
//
// Registry integration: rl::make_backend accepts
// "fault:<kind>:<rate>:<seed>:<inner-id>" (e.g.
// "fault:throw:0.05:9:software"), nestable with itself — so scenario
// specs compose backend fault plans from ids alone, with the same
// nested-error reporting as the env registry.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "rl/agent.hpp"
#include "util/fault.hpp"

namespace oselm::rl {

/// Thrown by FaultBackend's kThrow kind. A distinct type so chaos tests
/// can tell an injected backend failure from a genuine arithmetic bug.
class BackendFaultInjected : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Declared in backend_fault_kinds() order.
enum class BackendFaultKind { kThrow, kStall, kNan };

/// "throw" / "stall" / "nan" — the registry-id spelling.
[[nodiscard]] std::string_view to_string(BackendFaultKind kind) noexcept;

/// The valid <kind> spellings for "fault:<kind>:..." backend ids,
/// '|'-separated in declaration order — the single source for the
/// registry, the scenario spec's validation and their error messages.
[[nodiscard]] std::string_view backend_fault_kinds() noexcept;

class FaultBackend final : public OsElmQBackend {
 public:
  /// `rate` in [0, 1] is the per-call fault probability; `seed` fixes the
  /// fault schedule (independent of the inner backend's config seed);
  /// `stall` is the kStall sleep duration (other kinds ignore it). The
  /// decorator charges the INNER backend's ledger — time accounting is
  /// transparent to the wrapper.
  FaultBackend(OsElmQBackendPtr inner, BackendFaultKind kind, double rate,
               std::uint64_t seed,
               std::chrono::microseconds stall = kDefaultStall);

  void initialize() override;
  [[nodiscard]] double predict_main(const linalg::VecD& sa) override;
  [[nodiscard]] double predict_target(const linalg::VecD& sa) override;
  void predict_actions(const linalg::VecD& state,
                       const linalg::VecD& action_codes, QNetwork which,
                       linalg::VecD& q_out) override;
  void predict_actions_multi(const linalg::MatD& states,
                             const linalg::VecD& action_codes,
                             QNetwork which, linalg::MatD& q_out) override;
  void init_train(const linalg::MatD& x, const linalg::MatD& t) override;
  void seq_train(const linalg::VecD& sa, double target) override;
  void sync_target() override;

  [[nodiscard]] bool initialized() const override;
  [[nodiscard]] std::size_t input_dim() const override;
  [[nodiscard]] std::size_t hidden_units() const override;
  [[nodiscard]] bool supports_state_sync() const override;
  [[nodiscard]] QNetState export_state() const override;
  void import_state(const QNetState& state) override;

  [[nodiscard]] BackendFaultKind kind() const noexcept { return kind_; }
  [[nodiscard]] double rate() const noexcept { return schedule_.rate(); }
  [[nodiscard]] std::uint64_t fault_seed() const noexcept {
    return schedule_.seed();
  }
  [[nodiscard]] std::chrono::microseconds stall_duration() const noexcept {
    return stall_;
  }
  /// Faults injected so far (draws that fired, across all serving calls).
  [[nodiscard]] std::uint64_t fault_count() const noexcept {
    return schedule_.fires();
  }
  [[nodiscard]] const OsElmQBackendPtr& inner() const noexcept {
    return inner_;
  }

  static constexpr std::chrono::microseconds kDefaultStall{2000};

 private:
  /// One schedule draw for `call`; a firing kThrow throws and a firing
  /// kStall sleeps before it returns. Returns whether the call faults.
  bool draw_fault(const char* call);

  OsElmQBackendPtr inner_;
  BackendFaultKind kind_;
  util::FaultSchedule schedule_;
  std::chrono::microseconds stall_;
};

}  // namespace oselm::rl
